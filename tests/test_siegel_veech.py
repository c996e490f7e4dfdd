"""Tests for area Siegel-Veech constants and Lyapunov exponent sums."""
import math
from fractions import Fraction
from itertools import product

import pytest

from mvq import siegel_veech, volume_engine
from mvq.exact_arith import PiRational, factorial, zeta_even
from mvq.siegel_veech import c_area_boundary, c_area_graphsum, lyapunov_sum_plus
from mvq.stable_graphs import StableGraph, bridges, enumerate_graphs
from mvq.volume_engine import (
    graph_polynomial,
    kontsevich_poly,
    masur_veech_volume,
    op_Z,
    raw_graph_polynomial,
    vol_graph,
)

# (g, n) -> (pi^2/3) * c_area, frozen golden values
SV_TABLE = {
    (0, 5): Fraction(5, 9),
    (0, 6): Fraction(11, 18),
    (0, 7): Fraction(2, 3),
    (1, 2): Fraction(7, 9),
    (1, 3): Fraction(47, 66),
    (1, 4): Fraction(44, 63),
    (2, 0): Fraction(19, 18),
    (2, 1): Fraction(230, 261),
}

LYAPUNOV_TABLE = {
    (0, 5): Fraction(0),
    (0, 6): Fraction(0),
    (0, 7): Fraction(0),
    (1, 2): Fraction(2, 3),
    (1, 3): Fraction(6, 11),
    (1, 4): Fraction(10, 21),
    (2, 0): Fraction(4, 3),
    (2, 1): Fraction(32, 29),
}


def linear_edge_Z(graph, weights, aut):
    """op_Z of graph_polynomial(graph, aut) with each monomial weighted by the
    sum of weights[e] over the edges e in which it is linear: the reference
    for one graph's term in c_area_graphsum."""
    den, poly = volume_engine._graph_numerators(graph)
    return op_Z(poly, weights) * (volume_engine._prefactor(graph, aut) / den)


def partial_gamma(graph, poly):
    """Degree-one extraction: sum over edges of the terms linear in b_e,
    weighted by 1/2 when the edge is a bridge and 1 otherwise.  The rational
    reference for the integer weights that c_area_graphsum passes to op_Z."""
    cut = bridges(graph)
    chi = [Fraction(1, 2) if e in cut else Fraction(1) for e in range(graph.num_edges)]
    out = {}
    for expo, coeff in poly.items():
        weight = sum(chi[e] for e, m in enumerate(expo) if m == 1)
        if weight:
            out[expo] = out.get(expo, Fraction(0)) + coeff * weight
    return out


class TestGraphSum:
    @pytest.mark.parametrize("gn,value", sorted(SV_TABLE.items()))
    def test_table_values(self, gn, value):
        assert c_area_graphsum(*gn) == value

    @pytest.mark.parametrize("route", [c_area_graphsum, c_area_boundary])
    def test_empty_stratum_raises(self, route):
        # Q(1, -1) is empty: the catalog at (1, 1) exists, a constant does not
        with pytest.raises(ValueError, match="requires g >= 2"):
            route(1, 1)


def _reference_piece_factor(g, n):
    if (g, n) == (0, 3):
        return Fraction(1, 2)
    ell = 4 * g - 4 + n
    if ell < 0 or 2 * g - 2 + n <= 0:
        return None
    return Fraction(factorial(6 * g - 7 + 2 * n), factorial(ell))


def _reference_boundary(g, n):
    """c_area_boundary by an ordered loop over the genus and the number of
    points of one boundary piece, skipping the pieces that do not occur."""
    volume = masur_veech_volume(g, n).total
    d = 6 * g - 6 + 2 * n
    ell = 4 * g - 4 + n
    rhs = PiRational.zero()
    for g1 in range(0, g + 1):
        g2 = g - g1
        for n1 in range(1, n + 2):
            n2 = n + 2 - n1
            q1 = _reference_piece_factor(g1, n1)
            q2 = _reference_piece_factor(g2, n2)
            if q1 is None or q2 is None:
                continue
            coeff = (
                factorial(ell)
                * q1
                * q2
                * Fraction(factorial(n), factorial(n1 - 1) * factorial(n2 - 1))
                / factorial(d - 1)
            )
            rhs = rhs + coeff * (siegel_veech._vol_q(g1, n1) * siegel_veech._vol_q(g2, n2))
    rhs = rhs * Fraction(1, 8)
    if g >= 1:
        rhs = rhs + (
            Fraction(factorial(ell), factorial(ell - 2))
            * Fraction(factorial(d - 3), factorial(d - 1))
        ) * siegel_veech._vol_q(g - 1, n + 2)
    return (rhs / volume).rational(-2) / 3


class TestBoundaryFormula:
    @pytest.mark.parametrize(
        "g,n", [(1, 2), (1, 3), (2, 0), (2, 1), (0, 4), (0, 5), (0, 6), (0, 7)]
    )
    def test_agrees_with_graph_sum(self, g, n):
        assert c_area_boundary(g, n) == c_area_graphsum(g, n)

    @pytest.mark.parametrize("g,n", [(1, 6), (0, 8)])
    def test_agrees_with_graph_sum_on_many_legs(self, g, n):
        # more legs than edges: most graphs come from few skeletons
        assert c_area_boundary(g, n) == c_area_graphsum(g, n)

    @pytest.mark.parametrize("g,n", [(2, 0), (3, 3), (2, 5), (5, 0), (0, 8)])
    def test_equals_ordered_piece_loop(self, g, n):
        assert c_area_boundary(g, n) == _reference_boundary(g, n)


class TestLyapunov:
    @pytest.mark.parametrize("gn,value", sorted(LYAPUNOV_TABLE.items()))
    def test_table_values(self, gn, value):
        assert lyapunov_sum_plus(*gn) == value

    def test_genus_zero_vanishes(self):
        for n in range(4, 21):
            assert lyapunov_sum_plus(0, n) == 0

    def test_walks_no_catalog(self, monkeypatch):
        def no_catalog(g, n):
            raise RuntimeError("catalog walked for (%d, %d)" % (g, n))

        monkeypatch.setattr(siegel_veech, "skeletons", no_catalog)
        assert lyapunov_sum_plus(3, 1) == Fraction(139594, 102775)
        with pytest.raises(ValueError):
            lyapunov_sum_plus(1, 1)


class TestDerivativeOperator:
    def test_nonlinear_edges_killed(self):
        # monomials with exponent > 1 in an edge contribute nothing to
        # that edge's boundary term
        loop = StableGraph((1,), ((0, 0),), ())
        poly = {(3,): Fraction(1)}
        assert partial_gamma(loop, poly) == {}

    def test_bridge_halving(self):
        # a bridge edge carries weight 1/2, a non-bridge edge weight 1
        dumbbell = StableGraph((1, 1), ((0, 1),), ())
        assert 0 in bridges(dumbbell)
        poly = {(1,): Fraction(1)}
        out_bridge = partial_gamma(dumbbell, poly)
        loop = StableGraph((1,), ((0, 0),), ())
        out_loop = partial_gamma(loop, poly)
        (coeff_bridge,) = out_bridge.values()
        (coeff_loop,) = out_loop.values()
        assert coeff_bridge == coeff_loop / 2

    def test_derivative_keeps_other_edges(self):
        theta = StableGraph((0, 0), ((0, 1), (0, 1), (0, 1)), ())
        poly = graph_polynomial(
            theta,
            next(
                e.aut_order for e in enumerate_graphs(2, 0) if e.graph == theta
            ),
        )
        out = partial_gamma(theta, poly)
        assert out  # the triple-edge graph has linear monomials in each edge


# the (g, n) of the acceptance suite's golden table, and (3, 2)
GOLDEN_GN = [(0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5),
             (2, 0), (2, 1), (2, 2), (3, 0), (4, 0), (3, 2)]


def _reference_raw_polynomial(graph):
    """raw_graph_polynomial as a loop over the combinations of one Kontsevich
    term per vertex, with rational coefficients throughout."""
    vertex_terms = []
    for v, gv in enumerate(graph.genera):
        slots = [e for e, ends in enumerate(graph.edges) for w in ends if w == v]
        legs = graph.legs.count(v)
        terms = []
        for expo, coeff in kontsevich_poly(gv, legs + len(slots)).items():
            if not any(expo[:legs]):
                incr = [0] * graph.num_edges
                for e, m in zip(slots, expo[legs:]):
                    incr[e] += m
                terms.append((incr, coeff))
        vertex_terms.append(terms)
    poly = {}
    for combo in product(*vertex_terms):
        expo = tuple(1 + sum(incr[e] for incr, _ in combo) for e in range(graph.num_edges))
        poly[expo] = poly.get(expo, 0) + math.prod(c for _, c in combo)
    return poly


def _reference_Z(poly):
    """op_Z with one rational zeta factor per exponent."""
    (power,) = {sum(expo) + len(expo) for expo in poly} or {0}
    total = sum(
        c * math.prod(factorial(m) * zeta_even(m + 1).coeff for m in expo)
        for expo, c in poly.items()
    )
    return PiRational(total, power)


def _labeled_graphsum(g, n):
    """c_area_graphsum as the loop over the labeled catalog, each graph
    weighted by its labeled |Aut|."""
    total = PiRational.zero()
    for entry in enumerate_graphs(g, n):
        graph = entry.graph
        weights = [1 if e in bridges(graph) else 2 for e in range(graph.num_edges)]
        total = total + linear_edge_Z(graph, weights, entry.aut_order)
    return (total / masur_veech_volume(g, n).total).rational(0) / 2


class TestUnlabeledGraphSum:
    @pytest.mark.parametrize("g,n", GOLDEN_GN + [(2, 4)])
    def test_equals_labeled_loop(self, g, n):
        assert c_area_graphsum(g, n) == _labeled_graphsum(g, n)


class TestIntegerPass:
    @pytest.mark.parametrize("g,n", GOLDEN_GN)
    def test_term_equals_rational_route(self, g, n):
        for entry in enumerate_graphs(g, n):
            graph, aut = entry.graph, entry.aut_order
            weights = [1 if e in bridges(graph) else 2 for e in range(graph.num_edges)]
            term = linear_edge_Z(graph, weights, aut) * Fraction(1, 2)
            if not graph.edges:
                assert term.is_zero()
                continue
            poly = graph_polynomial(graph, aut)
            assert vol_graph(graph, aut) == op_Z(poly)
            linear = partial_gamma(graph, poly)
            assert term == op_Z(linear) == _reference_Z(linear)
            assert raw_graph_polynomial(graph) == _reference_raw_polynomial(graph)

    def test_graph_sum_reads_no_per_graph_volume(self, monkeypatch):
        def no_volume(graph, aut=None):
            raise RuntimeError("per-graph volume built")

        monkeypatch.setattr(volume_engine, "vol_graph", no_volume)
        masur_veech_volume.cache_clear()
        assert c_area_graphsum(2, 1) == SV_TABLE[(2, 1)]
        assert lyapunov_sum_plus(1, 3) == LYAPUNOV_TABLE[(1, 3)]
        with pytest.raises(RuntimeError):
            masur_veech_volume(2, 1).per_graph
