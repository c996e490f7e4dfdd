"""Volume computations via polynomial contributions of stable graphs.

Each stable graph contributes a polynomial in one variable per edge; summing a
zeta-evaluation of these polynomials over the full catalog yields the total
volume of the corresponding moduli space of quadratic differentials.  Totals
and per-cylinder parts come from a recursion on that sum with no graph in it.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import gcd, lcm, prod
from typing import Dict, List, Sequence, Tuple

from .correlators import _bracket, _cuts, _room, correlator
from .exact_arith import ExactnessError, PiRational, factorial, zeta_even
from .stable_graphs import CatalogEntry, StableGraph, aut_order, enumerate_graphs

# A polynomial in variables b_1..b_k: exponent tuple -> rational coefficient.
Poly = Dict[Tuple[int, ...], Fraction]


def _compositions(total: int, parts: int) -> List[Tuple[int, ...]]:
    """The tuples of `parts` integers >= 0 with sum `total`, in lexicographic
    order: the gaps between parts - 1 bars among total + parts - 1 places."""
    if not parts:
        return [()] if total == 0 else []
    return [tuple([b - a - 1 for a, b in zip((-1,) + bars, bars + (total + parts - 1,))])
            for bars in combinations(range(total + parts - 1), parts - 1)]


@lru_cache(maxsize=None)
def _vertex_factor(
    g: int, legs: int, ends: int
) -> Tuple[int, Tuple[Tuple[Tuple[int, ...], int], ...]]:
    """N_{g, legs+ends} with every leg variable set to zero, as integer
    numerators over one reduced denominator: (den, ((exponents of the ends,
    numerator), ...)).  The term of d is <tau_d>_g prod b_i^(2 d_i) divided by
    2^(5g-6+2n) prod d_i!, that is the bracket B(g, d) = prod (2 d_i + 1)!!
    <tau_d>_g over 2^(2g-3+n) prod (2 d_i + 1)!, and (2D+ends)!/prod (2 d_i + 1)!
    is an integer (a multinomial)."""
    n = legs + ends
    D = 3 * g - 3 + n
    top = factorial(2 * D + ends)
    brackets = {d: b for d in _compositions(D, ends) if (b := _bracket(g, (0,) * legs + d))}
    bden = lcm(*(b.denominator for b in brackets.values()))
    den = bden * 2 ** (2 * g - 3 + n) * top
    nums = {d: b.numerator * (bden // b.denominator) * top // prod(factorial(2 * x + 1) for x in d)
            for d, b in brackets.items()}
    common = gcd(den, *nums.values())
    return den // common, tuple((tuple(2 * x for x in d), num // common) for d, num in nums.items())


def kontsevich_poly(g: int, n: int) -> Poly:
    """Top-degree part of the Weil-Petersson volume polynomial: a homogeneous
    symmetric polynomial of degree 6g-6+2n in the n boundary lengths."""
    if n < 1 or 2 * g - 2 + n <= 0:
        raise ValueError("unstable (g, n)")
    den, terms = _vertex_factor(g, 0, n)
    return {expo: Fraction(num, den) for expo, num in terms}


def _incidence(graph: StableGraph) -> List[Tuple[int, ...]]:
    """The incident edge indices per vertex, loops listed twice."""
    incident: List[List[int]] = [[] for _ in graph.genera]
    for idx, (i, j) in enumerate(graph.edges):
        incident[i].append(idx)
        incident[j].append(idx)
    return [tuple(edges) for edges in incident]


def _vertex_product(
    genera: Sequence[int], legs: Sequence[int], incident: Sequence[Tuple[int, ...]]
) -> Tuple[int, Tuple[int, int, Dict[int, int]]]:
    """prod_e b_e * prod_v N_{g_v, legs_v + ends_v}, the ends of vertex v at
    the edges incident[v], as integer numerators over one denominator: (den,
    (top, E, terms)), each exponent vector (none above top, 1 + the degree of
    prod_v N) packed in one int key, top.bit_length() bits per edge, so
    monomials multiply by adding keys."""
    E = sum(map(len, incident)) // 2
    top = 6 * (sum(genera) - len(genera)) + 2 * sum(legs) + 4 * E + 1
    width = top.bit_length()
    den = 1
    poly = {sum(1 << (width * e) for e in range(E)): 1}  # the product over edges of b_e
    for gv, lv, ends in zip(genera, legs, incident):
        vden, factor = _placed_factor(gv, lv, ends, width)
        product: Dict[int, int] = defaultdict(int)
        for k1, c1 in poly.items():
            for k2, c2 in factor:
                product[k1 + k2] += c1 * c2
        poly, den = product, den * vden
    return den, (top, E, poly)


def _graph_numerators(graph: StableGraph) -> Tuple[int, Tuple[int, int, Dict[int, int]]]:
    """raw_graph_polynomial(graph) packed as _vertex_product packs it."""
    legs = [graph.legs.count(v) for v in range(graph.num_vertices)]
    return _vertex_product(graph.genera, legs, _incidence(graph))


@lru_cache(maxsize=None)
def _placed_factor(
    g: int, legs: int, incident: Tuple[int, ...], width: int
) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """_vertex_factor(g, legs, len(incident)) with the exponent of end i
    shifted into the packed slot of edge incident[i]: (den, ((key, numerator),
    ...)).  The two ends of a loop share a slot, so their terms may merge."""
    vden, terms = _vertex_factor(g, legs, len(incident))
    factor: Dict[int, int] = defaultdict(int)
    for expo, num in terms:
        factor[sum(e << (width * i) for i, e in zip(incident, expo))] += num
    return vden, tuple(factor.items())


def raw_graph_polynomial(graph: StableGraph) -> Poly:
    """prod_e b_e * prod_v N_{g_v, n_v}: the counting polynomial of a stable
    graph without any combinatorial prefactor, one variable per edge.  Vertex
    factors are evaluated with leg variables set to zero and loop edges
    appearing twice."""
    den, (top, E, poly) = _graph_numerators(graph)
    width, mask = top.bit_length(), (1 << top.bit_length()) - 1
    return {tuple([key >> (width * e) & mask for e in range(E)]): Fraction(num, den)
            for key, num in poly.items()}


def _shared_prefactor(g: int, n: int) -> Fraction:
    """The part of _prefactor that every graph of (g, n) shares."""
    return Fraction(
        2 ** (6 * g - 5 + 2 * n) * factorial(4 * g - 4 + n), factorial(6 * g - 7 + 2 * n)
    )


def _prefactor(graph: StableGraph, aut: int | None) -> Fraction:
    """The factor by which graph_polynomial scales raw_graph_polynomial."""
    aut = aut_order(graph) if aut is None else aut
    return _shared_prefactor(graph.genus, graph.num_legs) / (2 ** (graph.num_vertices - 1) * aut)


def graph_polynomial(graph: StableGraph, aut: int | None = None) -> Poly:
    """Contribution polynomial of a stable graph: the raw counting polynomial
    scaled by the combinatorial prefactor, the vertex-count power of 1/2 and
    the automorphism order."""
    pref = _prefactor(graph, aut)
    return {expo: coeff * pref for expo, coeff in raw_graph_polynomial(graph).items()}


@lru_cache(maxsize=None)
def _zeta_factor(m: int) -> Fraction:
    """m! zeta(m + 1) / pi^(m + 1), a rational for odd m >= 1."""
    if m % 2 != 1:
        raise ExactnessError(f"even exponent {m} in zeta evaluation")
    return zeta_even(m + 1).coeff * factorial(m)


@lru_cache(maxsize=None)
def _zeta_numerators(top: int) -> Tuple[int, Tuple[int, ...]]:
    """_zeta_factor(m) for odd m <= top as integers over one lcm (0 at even m)."""
    den = lcm(*(_zeta_factor(m).denominator for m in range(1, top + 1, 2)))
    return den, tuple(int(_zeta_factor(m) * den) if m % 2 else 0 for m in range(top + 1))


def op_Z(poly: Poly | tuple, weights: Sequence[int] | None = None) -> PiRational:
    """Replace each monomial prod b_e^{m_e} by prod m_e! zeta(m_e + 1); if
    weights are given, also weight it by the sum of weights[e] over the edges e
    in which it is linear.  Coefficients may be integers or rationals; poly is
    packed as _graph_numerators packs it, or keyed by exponent tuples.

    Every exponent must be odd so that only even zeta values appear, and
    every monomial must have the same sum(m_e + 1), the power of pi that
    factors out of the whole sum.  The zeta factors are integers over one lcm."""
    if isinstance(poly, dict):
        top = max(chain.from_iterable(poly), default=0)
        poly = top, max(map(len, poly), default=0), {
            sum(m << (top.bit_length() * e) for e, m in enumerate(expo)): coeff
            for expo, coeff in poly.items()}
    top, E, terms = poly
    if weights is not None and len(weights) != E:
        raise ValueError(f"{len(weights)} weights for {E} variables")
    zden, znum = _zeta_numerators(top)
    width, mask = top.bit_length(), (1 << top.bit_length()) - 1
    slots, base = ((0,) * E, 1) if weights is None else (weights, 0)  # unweighted: z = 1
    total, degree = 0, None  # degree: sum(m_e), the same for every monomial
    for key, coeff in terms.items():
        zeta, z, deg, rest = 1, base, 0, key
        for w in slots:
            m, rest = rest & mask, rest >> width
            zeta *= znum[m]
            deg += m
            if m == 1:
                z += w
        if not z:
            continue
        if degree not in (None, deg):
            raise ExactnessError(f"polynomial mixes pi powers {degree + E} and {deg + E}")
        degree = deg
        if not zeta:  # znum is 0 exactly at the even exponents
            m = next(m for e in range(E) for m in [key >> (width * e) & mask] if m % 2 == 0)
            raise ExactnessError(f"even exponent {m} in zeta evaluation")
        total += coeff * z * zeta
    return PiRational(Fraction(total, zden**E), 0 if degree is None else degree + E)


def op_Y(poly: Poly, H: Sequence):
    """Replace each monomial prod b_e^{m_e} by prod m_e! / H_e^{m_e + 1}: an
    exact Fraction for integer heights, a sympy expression for sympy ones."""
    total = Fraction(0)
    for expo, coeff in poly.items():
        term = coeff
        for m, h in zip(expo, H):
            term = term * factorial(m) / h ** (m + 1)
        total += term
    return total


def vol_graph(graph: StableGraph, aut: int | None = None) -> PiRational:
    """Volume contribution of a single stable graph (zero if edgeless)."""
    if graph.num_edges == 0:
        return PiRational.zero()
    den, poly = _graph_numerators(graph)
    return op_Z(poly) * (_prefactor(graph, aut) / den)


# ---------------------------------------------------------------------------
# Graph-free volumes.  Over the catalog, the Z-evaluated graph polynomials
# form a Feynman sum: <tau_d>_{g_v} at each vertex, P(a, b) at each edge and
# 1/|Aut| per graph.  Values are vectors over the number of edges, as integer
# numerators over one denominator, so that the convolutions run on integers.
Vector = Tuple[int, Tuple[int, ...]]


@lru_cache(maxsize=None)
def _propagator(a: int, b: int) -> Fraction:
    """P(a, b) = 2 (2a+2b+1)! zeta(2a+2b+2) / (pi^(2a+2b+2) a! b!)."""
    return 2 * _zeta_factor(2 * a + 2 * b + 1) / (factorial(a) * factorial(b))


def _vector(sums: Dict[int, List[int]], divisors: Sequence[int]) -> Vector:
    """sum over d of sums[d] / d, with entry k divided by divisors[k], over
    one reduced denominator.  Each row is scaled once, its zeros skipped."""
    den, nums = lcm(*sums), [0] * len(divisors)
    for d, row in sums.items():
        scale = den // d
        for k, w in enumerate(row):
            if w:
                nums[k] += w * scale
    q = lcm(*divisors)
    nums = [x * (q // d) for x, d in zip(nums, divisors)]
    common = gcd(den * q, *nums)
    return den * q // common, tuple(x // common for x in nums)


@lru_cache(maxsize=None)
def _wick(g: int, S: Tuple[int, ...]) -> Vector:
    """W(g, S)[k]: the Feynman sum over connected stable graphs of genus g
    with k edges and external descendants S (sorted).  Marking an oriented
    edge and cutting it gives 2k W(g, S)[k] = sum_{a,b} P(a,b) (W(g-1,
    S+{a,b})[k-1] + sum over S1+S2 = S, g1+g2 = g and i+j = k-1 of
    W(g1, S1+{a})[i] W(g2, S2+{b})[j])."""
    top = _room(g, S)
    if top < 0 or 2 * g - 2 + len(S) <= 0:
        return 1, ()
    c = correlator(g, S) if S else Fraction(0)  # k = 0: the graph with no edge
    sums: Dict[int, List[int]] = {c.denominator: [c.numerator] + [0] * top}  # den -> row
    for b in range(top if g >= 1 else 0):  # the marked edge does not separate
        den, vec = _contracted(g - 1, tuple(sorted(S + (b,))), b)
        row = sums.get(den) or sums.setdefault(den, [0] * (top + 1))
        for k, w in enumerate(vec, 1):
            row[k] += w
    # the split sum runs over the cuts whose two sides can each hold a graph
    # with an end of the marked edge; such a side is also stable, so no
    # recursion into an unstable one starts
    for g1, S1, g2, S2, pair in _cuts(g, S):
        for b in range(_room(g2, S2) + 2):
            den_r, right = _wick(g2, tuple(sorted(S2 + (b,))))
            den_l, left = _contracted(g1, S1, b)
            row = sums.get(den_l * den_r) or sums.setdefault(den_l * den_r, [0] * (top + 1))
            for i, v in enumerate(left, 1):
                if v:
                    v *= pair
                    for k, w in enumerate(right, i):
                        row[k] += v * w
    return _vector(sums, [max(2 * k, 1) for k in range(top + 1)])


@lru_cache(maxsize=None)
def _contracted(g: int, S: Tuple[int, ...], b: int) -> Vector:
    """sum_a P(a, b) W(g, S+{a})[i] for each i: the propagator of a cut edge
    summed over one of its ends once per (g, S, b), not once per split."""
    size = _room(g, S) + 2
    sums: Dict[int, List[int]] = {}
    for a in range(size):
        p = _propagator(a, b)
        den, vec = _wick(g, tuple(sorted(S + (a,))))
        row = sums.get(p.denominator * den) or sums.setdefault(p.denominator * den, [0] * size)
        for k, w in enumerate(vec):
            row[k] += p.numerator * w
    return _vector(sums, [1] * size)


class VolumeReport:
    """Vol Q_{g,n} and its k-cylinder parts, from the edge recursion.  The
    per-graph breakdown walks the stable-graph catalog when first read."""

    def __init__(self, g: int, n: int, per_cylinder_count: Dict[int, PiRational]):
        self.g, self.n, self.per_cylinder_count = g, n, per_cylinder_count
        self.total = sum(per_cylinder_count.values(), PiRational.zero())

    @cached_property
    def per_graph(self) -> Tuple[Tuple[CatalogEntry, PiRational], ...]:
        catalog = enumerate_graphs(self.g, self.n)
        return tuple(
            (e, vol_graph(e.graph, e.aut_order)) for e in catalog if e.graph.edges
        )


@lru_cache(maxsize=None)
def masur_veech_volume(g: int, n: int) -> VolumeReport:
    """Total volume of the principal stratum of the moduli space of genus-g
    quadratic differentials with n poles, with per-cylinder and per-graph
    breakdowns."""
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError(f"unstable (g, n) = ({g}, {n}): need 2g - 2 + n > 0")
    if (g, n) == (0, 3):
        raise ValueError("Vol Q_{0,3} is undefined: its only stable graph has no edge")
    den, vec = _wick(g, (0,) * n)
    pref = Fraction(2 ** (g + 1) * factorial(4 * g - 4 + n), factorial(6 * g - 7 + 2 * n))
    pref /= den
    return VolumeReport(g, n, {
        k: PiRational(pref * w, 6 * g - 6 + 2 * n) for k, w in enumerate(vec) if k and w
    })
