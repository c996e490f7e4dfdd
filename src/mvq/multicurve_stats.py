"""Frequencies of multicurves and statistics of square-tiled surfaces.

A multicurve is encoded by a stable graph together with strictly positive
integer weights on its edges.  Frequencies, cylinder-count distributions and
height/width statistics are all exact ratios of evaluations of the graph
polynomials from the volume engine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .exact_arith import IndeterminateError, PiRational, factorial, zeta_even
from .stable_graphs import StableGraph
from .volume_engine import (
    Poly,
    graph_polynomial,
    masur_veech_volume,
    op_Y,
    op_Z,
)


class Multicurve(NamedTuple):
    graph: StableGraph
    weights: Tuple[int, ...]

    def validate(self) -> None:
        _check_heights(self.graph, self.weights, "weights")


def _check_edges(graph: StableGraph, vec: Sequence, name: str) -> None:
    """Raise ValueError unless vec has one entry per edge of graph."""
    if len(vec) != graph.num_edges:
        raise ValueError(f"{name} needs one entry per edge ({graph.num_edges}), got {len(vec)}")


def _check_heights(graph: StableGraph, H: Sequence, name: str, symbolic=()) -> None:
    """Raise ValueError unless H is a list or tuple of one positive int (not
    bool, not float) per edge of graph; entries of a ``symbolic`` type pass."""
    if not isinstance(H, (list, tuple)) or any(
        not isinstance(h, symbolic) and (type(h) is not int or h <= 0) for h in H
    ):
        raise ValueError(f"{name} must be a list of positive integers")
    _check_edges(graph, H, name)


def const_gn(g: int, n: int) -> int:
    return 2 * (6 * g - 6 + 2 * n) * factorial(4 * g - 4 + n) * 2 ** (4 * g - 3 + n)


def vol_multicurve(graph: StableGraph, weights: Sequence[int]) -> Fraction:
    """Contribution of a single multicurve: the graph polynomial with each
    monomial prod b_e^{m_e} replaced by prod m_e!/H_e^{m_e+1}."""
    _check_heights(graph, weights, "weights")
    return op_Y(graph_polynomial(graph), weights)


def frequency(mc: Multicurve) -> Fraction:
    """Asymptotic frequency c(gamma) of the topological type of a multicurve
    among simple closed hyperbolic multigeodesics."""
    mc.validate()
    g, n = mc.graph.genus, mc.graph.num_legs
    if not mc.graph.edges:
        raise ValueError(f"c(gamma) at (g, n) = ({g}, {n}) is undefined: the graph has no edge")
    return vol_multicurve(mc.graph, mc.weights) / const_gn(g, n)


def separating_frequency(g: int, g1: int) -> Fraction:
    """Closed form for the frequency of a simple closed curve separating a
    closed genus-g surface into pieces of genus g1 and g - g1."""
    if not 1 <= g1 <= g - 1:
        raise ValueError("need 1 <= g1 <= g-1")
    g2 = g - g1
    aut = 2 if g1 == g2 else 1
    denom = (
        aut
        * 2 ** (3 * g - 4)
        * 24 ** g
        * factorial(g1)
        * factorial(g2)
        * factorial(3 * g1 - 2)
        * factorial(3 * g2 - 2)
        * (6 * g - 6)
    )
    return Fraction(1, denom)


def b_gn(g: int, n: int) -> PiRational:
    """Mirzakhani's normalization constant: total volume divided by const."""
    return masur_veech_volume(g, n).total / const_gn(g, n)


def b0n_closed_form(n: int) -> PiRational:
    """Genus-zero closed form (pi/2)^(2(n-3)) / (n-3)!."""
    if n < 4:
        raise ValueError("need n >= 4")
    return PiRational(
        Fraction(1, factorial(n - 3) * 4 ** (n - 3)), 2 * (n - 3)
    )


def cylinder_distribution(g: int, n: int) -> Dict[int, Fraction]:
    """Probability that a random square-tiled surface has exactly k maximal
    horizontal cylinders, for each k."""
    report = masur_veech_volume(g, n)
    total = report.total
    out: Dict[int, Fraction] = {}
    for k, v in sorted(report.per_cylinder_count.items()):
        out[k] = (v / total).rational(0)
    return out


def prob_unit_heights_one_cyl(g: int, n: int) -> PiRational:
    """Probability that a one-cylinder surface has cylinder height 1; equals
    1/zeta(6g-6+2n) exactly."""
    return zeta_even(6 * g - 6 + 2 * n).inverse()


def _shift_poly(poly: Poly, num: Sequence[int], den: Sequence[int]) -> Poly:
    out: Poly = {}
    for expo, coeff in poly.items():
        shifted = tuple(m + a - b for m, a, b in zip(expo, num, den))
        if any(m < 0 for m in shifted):
            raise IndeterminateError("negative exponent after shift")
        out[shifted] = out.get(shifted, Fraction(0)) + coeff
    return out


def _op_Z_symbolic(poly: Poly) -> sympy.Expr:
    """Zeta evaluation allowing odd zeta values; sympy.oo when the divergent
    zeta(1) pattern appears in every monomial, error when only in some."""
    import sympy

    divergent = [any(m == 0 for m in expo) for expo in poly]
    if any(divergent):
        if all(divergent):
            return sympy.oo
        raise IndeterminateError("indeterminate: mixed convergent and divergent terms")
    total = sympy.Integer(0)
    for expo, coeff in poly.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for m in expo:
            term *= factorial(m) * sympy.zeta(m + 1)
        total += term
    return total


_NO_EDGE = "indeterminate: a graph with no edge has no square-tiled surface (0/0)"


def expectation_ratio(
    graph: StableGraph,
    num: Sequence[int],
    den: Sequence[int],
    H: Optional[Sequence] = None,
):
    """Expected value of prod b_e^{num_e} / prod b_e^{den_e} over square-tiled
    surfaces of type ``graph``, conditioned on heights H when given.

    With numeric H the result is an exact Fraction; with sympy-symbol entries
    in H it is a symbolic expression; without H it is a symbolic expression in
    even/odd zeta values, or sympy.oo in the divergent case.  Raises
    IndeterminateError on a graph with no edge, where the ratio is 0/0."""
    import sympy

    _check_edges(graph, num, "num")
    _check_edges(graph, den, "den")
    if H is not None:
        _check_heights(graph, H, "H", symbolic=sympy.Basic)
    if not graph.edges:
        raise IndeterminateError(_NO_EDGE)
    poly = graph_polynomial(graph)
    shifted = _shift_poly(poly, num, den)
    if H is not None:
        ratio = op_Y(shifted, H) / op_Y(poly, H)
        return ratio if isinstance(ratio, Fraction) else sympy.simplify(ratio)
    numerator = _op_Z_symbolic(shifted)
    if numerator is sympy.oo:
        return sympy.oo
    z = op_Z(poly)
    denominator = sympy.Rational(z.coeff.numerator, z.coeff.denominator) * sympy.pi ** z.pi_power
    return numerator / denominator


def prob_heights(
    graph: StableGraph,
    exact: Optional[Sequence[int]] = None,
    bound: Optional[int] = None,
) -> PiRational:
    """Probability that the cylinder heights of a random square-tiled surface
    of type ``graph`` equal ``exact``, or are all at most ``bound``.  Raises
    IndeterminateError on a graph with no edge, as ``expectation_ratio`` does."""
    if exact is not None:
        _check_heights(graph, exact, "exact")
    if not graph.edges:
        raise IndeterminateError(_NO_EDGE)
    poly = graph_polynomial(graph)
    z = op_Z(poly)
    if exact is not None:
        num = op_Y(poly, exact)
    elif bound is not None:
        num = Fraction(0)
        for H in product(range(1, bound + 1), repeat=graph.num_edges):
            num += op_Y(poly, H)
    else:
        return PiRational(1, 0)
    return PiRational(num, 0) / z


def ztilde_integral(graph: StableGraph, H: Sequence[int]) -> Fraction:
    """Exact integral of the density over the simplex: equals op_Y(H, P)/d!
    with d = 6g-6+2n, the homogeneity degree plus the number of edges
    (Dirichlet integral, monomial by monomial)."""
    d = 6 * graph.genus - 6 + 2 * graph.num_legs
    return vol_multicurve(graph, H) / factorial(d)
