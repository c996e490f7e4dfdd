"""Exact computation of Masur-Veech volumes of moduli spaces of quadratic
differentials, area Siegel-Veech constants, multicurve frequencies and
square-tiled surface statistics from psi-class intersection numbers.

Volumes and their per-cylinder parts come from a recursion on one marked
edge of the stable-graph Feynman sum, with no graph in it; the stable-graph
catalog serves per-graph breakdowns, the graph-sum Siegel-Veech route and
the lattice oracle, and checks the recursion."""

from .exact_arith import ExactnessError, PiRational, bernoulli, zeta_even
from .correlators import correlator, c_gk, epsilon_d, max_bracket, normalized_bracket
from .stable_graphs import StableGraph, aut_order, enumerate_graphs
from .volume_engine import (
    graph_polynomial,
    kontsevich_poly,
    masur_veech_volume,
    vol_graph,
)
from .siegel_veech import c_area_boundary, c_area_graphsum, lyapunov_sum_plus
from .multicurve_stats import (
    IndeterminateError,
    Multicurve,
    b_gn,
    cylinder_distribution,
    expectation_ratio,
    frequency,
    prob_heights,
)
from .asymptotics import (
    agk_by_recursion,
    agk_from_correlators,
    poisson_model,
    sep_nonsep_ratio,
    series_coeffs,
    vol_gamma_k,
)
from .lattice_oracle import (
    lattice_sum,
    square_tiled_count,
    volume_convergence_report,
)

__version__ = "0.1.0"
