"""Volume computations via polynomial contributions of stable graphs.

Each stable graph contributes a polynomial in one variable per edge; summing a
zeta-evaluation of these polynomials over the full catalog yields the total
volume of the corresponding moduli space of quadratic differentials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .correlators import correlator
from .exact_arith import ExactnessError, PiRational, factorial, zeta_even
from .stable_graphs import CatalogEntry, StableGraph, aut_order, enumerate_graphs

# A polynomial in variables b_1..b_k: exponent tuple -> rational coefficient.
Poly = Dict[Tuple[int, ...], Fraction]


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _kontsevich_terms(g: int, n: int) -> Tuple[Tuple[Tuple[int, ...], Fraction], ...]:
    d_total = 3 * g - 3 + n
    denom_pow = Fraction(1, 2 ** (5 * g - 6 + 2 * n))
    terms = []
    for d in _compositions(d_total, n):
        c = correlator(g, d)
        if c == 0:
            continue
        coeff = Fraction(c) * denom_pow
        for di in d:
            coeff /= factorial(di)
        terms.append((tuple(2 * di for di in d), coeff))
    return tuple(terms)


def kontsevich_poly(g: int, n: int) -> Poly:
    """Top-degree part of the Weil-Petersson volume polynomial: a homogeneous
    symmetric polynomial of degree 6g-6+2n in the n boundary lengths."""
    if n < 1 or 2 * g - 2 + n <= 0:
        raise ValueError("unstable (g, n)")
    return {expo: coeff for expo, coeff in _kontsevich_terms(g, n)}


def raw_graph_polynomial(graph: StableGraph) -> Poly:
    """prod_e b_e * prod_v N_{g_v, n_v}: the counting polynomial of a stable
    graph without any combinatorial prefactor, one variable per edge.  Vertex
    factors are evaluated with leg variables set to zero and loop edges
    appearing twice."""
    V = graph.num_vertices
    E = graph.num_edges
    # incident edge indices per vertex (loops listed twice)
    incident: List[List[int]] = [[] for _ in range(V)]
    for idx, (i, j) in enumerate(graph.edges):
        incident[i].append(idx)
        incident[j].append(idx)

    legs_at = [0] * V
    for v in graph.legs:
        legs_at[v] += 1

    # per vertex: list of (edge exponent increments, coefficient), with all
    # leg slots forced to exponent zero
    vertex_terms: List[List[Tuple[Tuple[int, ...], Fraction]]] = []
    for v in range(V):
        nv = legs_at[v] + len(incident[v])
        terms = []
        for expo, coeff in _kontsevich_terms(graph.genera[v], nv):
            if any(e != 0 for e in expo[: legs_at[v]]):
                continue
            incr = [0] * E
            for slot, e in zip(incident[v], expo[legs_at[v] :]):
                incr[slot] += e
            terms.append((tuple(incr), coeff))
        vertex_terms.append(terms)

    poly: Poly = {}
    for combo in product(*vertex_terms):
        expo = [1] * E  # the product over edges of b_e
        coeff = Fraction(1)
        for incr, c in combo:
            coeff *= c
            for idx, e in enumerate(incr):
                expo[idx] += e
        key = tuple(expo)
        poly[key] = poly.get(key, Fraction(0)) + coeff
    return {k: v for k, v in poly.items() if v != 0}


def graph_polynomial(graph: StableGraph, aut: int | None = None) -> Poly:
    """Contribution polynomial of a stable graph: the raw counting polynomial
    scaled by the combinatorial prefactor, the vertex-count power of 1/2 and
    the automorphism order."""
    if aut is None:
        aut = aut_order(graph)
    g = graph.genus
    n = graph.num_legs
    pref = (
        Fraction(2 ** (6 * g - 5 + 2 * n))
        * factorial(4 * g - 4 + n)
        / factorial(6 * g - 7 + 2 * n)
        / 2 ** (graph.num_vertices - 1)
        / aut
    )
    return {expo: coeff * pref for expo, coeff in raw_graph_polynomial(graph).items()}


@lru_cache(maxsize=None)
def _zeta_factor(m: int) -> Fraction:
    """m! zeta(m + 1) / pi^(m + 1), a rational for odd m >= 1."""
    if m % 2 != 1:
        raise ExactnessError(f"even exponent {m} in zeta evaluation")
    return zeta_even(m + 1).coeff * factorial(m)


def op_Z(poly: Poly) -> PiRational:
    """Replace each monomial prod b_e^{m_e} by prod m_e! zeta(m_e + 1).

    Every exponent must be odd so that only even zeta values appear, and
    every monomial must have the same sum(m_e + 1), the power of pi that
    factors out of the whole sum."""
    total = Fraction(0)
    pi_power = None
    for expo, coeff in poly.items():
        term = coeff
        for m in expo:
            term *= _zeta_factor(m)
        total += term
        d = sum(expo) + len(expo)
        if pi_power is None:
            pi_power = d
        elif d != pi_power:
            raise ExactnessError(
                "polynomial mixes pi powers %d and %d" % (pi_power, d)
            )
    return PiRational(total, pi_power or 0)


def op_Y(poly: Poly, H: Sequence[int]) -> Fraction:
    """Replace each monomial prod b_e^{m_e} by prod m_e! / H_e^{m_e + 1}."""
    total = Fraction(0)
    for expo, coeff in poly.items():
        term = coeff
        for m, h in zip(expo, H):
            term *= Fraction(factorial(m), h ** (m + 1))
        total += term
    return total


class VolumeReport(NamedTuple):
    total: PiRational
    per_graph: Tuple[Tuple[CatalogEntry, PiRational], ...]
    per_cylinder_count: Dict[int, PiRational]


def vol_graph(graph: StableGraph, aut: int | None = None) -> PiRational:
    """Volume contribution of a single stable graph (zero if edgeless)."""
    if graph.num_edges == 0:
        return PiRational.zero()
    return op_Z(graph_polynomial(graph, aut))


@lru_cache(maxsize=None)
def masur_veech_volume(g: int, n: int) -> VolumeReport:
    """Total volume of the principal stratum of the moduli space of genus-g
    quadratic differentials with n poles, with per-graph and per-cylinder
    breakdowns."""
    per_graph: List[Tuple[CatalogEntry, PiRational]] = []
    per_k: Dict[int, PiRational] = {}
    total = PiRational.zero()
    for entry in enumerate_graphs(g, n):
        if entry.graph.num_edges == 0:
            continue
        v = vol_graph(entry.graph, entry.aut_order)
        per_graph.append((entry, v))
        k = entry.graph.num_edges
        per_k[k] = per_k.get(k, PiRational.zero()) + v
        total = total + v
    return VolumeReport(total, tuple(per_graph), per_k)


def genus0_volume(n: int) -> PiRational:
    """Closed form for the genus-zero volume with n poles."""
    if n < 4:
        raise ValueError("need n >= 4")
    return PiRational(Fraction(2) ** (5 - n), 2 * n - 6)
