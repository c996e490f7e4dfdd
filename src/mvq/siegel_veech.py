"""Area Siegel-Veech constants and the sum of Lyapunov exponents.

Two independent routes are implemented: a sum over the stable-graph catalog
(extracting degree-one terms in each edge variable) and a sum over boundary
volume products.  Both return the combination (pi^2/3) * c_area as an exact
rational number.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Dict, Tuple

from .correlators import _cuts
from .exact_arith import PiRational, factorial
from .stable_graphs import bridges, skeletons
from .volume_engine import _compositions, _incidence, _shared_prefactor, _vertex_product
from .volume_engine import masur_veech_volume, op_Z


def _stratum_volume(g: int, n: int) -> PiRational:
    """Vol Q_{g,n}, the volume both routes divide by.  Raises ValueError for
    unstable (g, n) and (0, 3), and for (1, 1), whose stratum Q(1, -1) is
    empty."""
    volume = masur_veech_volume(g, n).total
    if (g, n) == (1, 1):
        raise ValueError("requires g >= 2, or g = 1 with n >= 2")
    return volume


@lru_cache(maxsize=None)
def _leg_counts(genera: tuple, valences: tuple, n: int) -> Tuple[Tuple[tuple, int], ...]:
    """The leg counts l_v >= max(0, 3 - 2 g_v - valence_v) with sum n that
    make a skeleton a stable graph, each with its weight n!/prod l_v!."""
    need = [max(0, 3 - 2 * gv - nv) for gv, nv in zip(genera, valences)]
    counts = [tuple(a + b for a, b in zip(need, extra))
              for extra in _compositions(n - sum(need), len(need))]
    return tuple((legs, factorial(n) // prod(map(factorial, legs))) for legs in counts)


def c_area_graphsum(g: int, n: int) -> Fraction:
    """(pi^2/3) * c_area computed from the stable-graph catalog: the sum over
    graphs of op_Z of the terms of graph_polynomial(graph) linear in an edge,
    weighted 1/2 for a bridge and 1 otherwise, divided by the volume.  A
    graph's term reads only how many legs sit at each vertex, so the sum runs
    over the leg-free skeletons S and their leg counts l_v: the labeled
    graphs over S are the Aut(S)-orbits of the n!/prod l_v! leg maps, so the
    pair weighs n!/prod l_v! over |Aut S|."""
    volume = _stratum_volume(g, n)
    # each pair's term without the prefactor that all graphs share, as an
    # integer numerator summed under its denominator
    sums: Dict[int, int] = defaultdict(int)
    for entry in skeletons(g, n):
        genera, edges, _ = graph = entry.graph
        incident = _incidence(graph)
        # twice the weights, so that they are integers
        cut = bridges(graph)
        weights = [1 if e in cut else 2 for e in range(len(edges))]
        scale = entry.aut_order << (len(genera) - 1)
        for legs, weight in _leg_counts(genera, tuple(map(len, incident)), n):
            den, poly = _vertex_product(genera, legs, incident)
            z = op_Z(poly, weights).rational(volume.pi_power)
            sums[z.denominator * den * scale] += z.numerator * weight
    total = sum(Fraction(num, den) for den, num in sums.items())
    return total * _shared_prefactor(g, n) / volume.coeff / 2


def _vol_q(g: int, n: int) -> PiRational:
    # boundary pieces use the convention Vol Q_{0,3} = 4; the recursion gives
    # the convention Vol Q_{1,1} = 2 pi^2 / 3 by itself
    if (g, n) == (0, 3):
        return PiRational(4, 0)
    return masur_veech_volume(g, n).total


def _piece_factor(g: int, n: int) -> Fraction:
    """Per-piece weight (d_i - 1)! / ell_i! of a boundary component, with its
    regularized value 1/2 at the unstable piece (0, 3)."""
    if (g, n) == (0, 3):
        return Fraction(1, 2)
    return Fraction(factorial(6 * g - 7 + 2 * n), factorial(4 * g - 4 + n))


def c_area_boundary(g: int, n: int) -> Fraction:
    """(pi^2/3) * c_area computed from volumes of boundary pieces."""
    volume = _stratum_volume(g, n)
    d = 6 * g - 6 + 2 * n
    ell = 4 * g - 4 + n
    rhs = PiRational.zero()
    # a separating curve cuts off pieces (g_i, n_i = |S_i| + 1); the weight of
    # a cut is n! / ((n1 - 1)! (n2 - 1)!), doubled when the pieces differ
    for g1, S1, g2, S2, weight in _cuts(g, (0,) * n):
        n1, n2 = len(S1) + 1, len(S2) + 1
        coeff = (
            factorial(ell) * weight * _piece_factor(g1, n1) * _piece_factor(g2, n2)
            / factorial(d - 1)
        )
        rhs = rhs + coeff * (_vol_q(g1, n1) * _vol_q(g2, n2))
    rhs = rhs * Fraction(1, 8)
    if g >= 1:
        # the non-separating term: genus 0 has no non-separating curve
        rhs = rhs + (
            Fraction(factorial(ell), factorial(ell - 2))
            * Fraction(factorial(d - 3), factorial(d - 1))
        ) * _vol_q(g - 1, n + 2)
    ratio = rhs / volume
    return ratio.rational(-2) / 3


def lyapunov_sum_plus(g: int, n: int) -> Fraction:
    """Sum of the nonnegative Lyapunov exponents of the Hodge bundle over the
    principal stratum, as an affine function of the area Siegel-Veech
    constant."""
    ell = 4 * g - 4 + n
    return Fraction(1, 24) * (Fraction(5 * ell, 3) - 3 * n) + c_area_boundary(g, n)
