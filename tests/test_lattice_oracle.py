"""Tests for the finite-N lattice-point oracle for square-tiled counts."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mvq.exact_arith import factorial
from mvq.lattice_oracle import (
    lattice_sum,
    normalized_lattice_sum,
    parity_constraints,
    square_tiled_count,
    volume_convergence_report,
)
from mvq.stable_graphs import StableGraph, enumerate_graphs


def brute_weighted_sum(m, N, parity=()):
    """Direct enumeration over (b, h) with sum b_i h_i <= N, weighting each
    admissible pair by prod b_i^{m_i}."""
    k = len(m)
    total = 0
    for b in itertools.product(range(1, N + 1), repeat=k):
        if sum(b) > N:
            continue
        if any(sum(b[i] for i in group) % 2 for group in parity):
            continue
        weight = 1
        for x, e in zip(b, m):
            weight *= x ** e
        # number of admissible height vectors for this b
        for h in itertools.product(range(1, N + 1), repeat=k):
            if sum(x * y for x, y in zip(b, h)) <= N:
                total += weight
    return total


class TestLatticeSum:
    @pytest.mark.parametrize(
        "m,N",
        [
            ((1,), 12),
            ((3,), 10),
            ((1, 1), 10),
            ((1, 3), 9),
            ((3, 1), 9),
            ((21, 19), 10),  # coefficients beyond int64
        ],
    )
    def test_matches_brute_force(self, m, N):
        assert lattice_sum(m, N) == brute_weighted_sum(m, N)

    @pytest.mark.parametrize(
        "m,N,parity",
        [
            ((1,), 12, ((0,),)),
            ((1, 3), 10, ((0, 1),)),
            ((1, 1), 10, ((0,), (1,))),
            ((21, 19), 10, ((0, 1),)),
            ((3, 1), 1, ((1,),)),  # the even-b array is all zeros
            ((1, 3), 10, ((0, 0),)),  # b_0 + b_0 is always even
        ],
    )
    def test_parity_constraints_match_brute_force(self, m, N, parity):
        assert lattice_sum(m, N, parity) == brute_weighted_sum(m, N, parity)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.lists(
            st.sampled_from([1, 3, 5]), min_size=1, max_size=2
        ).map(tuple),
        N=st.integers(min_value=2, max_value=12),
    )
    def test_matches_brute_force_property(self, m, N):
        assert lattice_sum(m, N) == brute_weighted_sum(m, N)

    def test_monotone_in_N(self):
        prev = 0
        for N in range(2, 30):
            cur = lattice_sum((1, 3), N)
            assert cur >= prev
            prev = cur

    def test_index_law(self):
        # doubling the bound multiplies the count by 2^d up to small error
        m = (5,)
        d = m[0] + 1
        N = 10 ** 4
        ratio = lattice_sum(m, 2 * N) / lattice_sum(m, N)
        assert abs(ratio / 2 ** d - 1) < 0.02

    def test_normalization(self):
        m = (3, 1)
        N = 500
        assert normalized_lattice_sum(m, N) == Fraction(
            lattice_sum(m, N), N ** (sum(m) + len(m))
        )


class TestParityConstraints:
    def test_loops_impose_nothing(self):
        loop = StableGraph((1,), ((0, 0),), ())
        assert parity_constraints(loop) == []

    def test_bridge_vertices_need_even_boundary(self):
        dumbbell = StableGraph((1, 1), ((0, 1),), ())
        groups = parity_constraints(dumbbell)
        assert groups == [[0], [0]] or groups == [[0]]

    def test_theta_graph(self):
        theta = StableGraph((0, 0), ((0, 1), (0, 1), (0, 1)), ())
        groups = parity_constraints(theta)
        for group in groups:
            assert sorted(group) == [0, 1, 2]


class TestSquareTiledCounts:
    def test_estimate_close_to_graph_volume(self):
        from mvq.volume_engine import vol_graph

        for entry in enumerate_graphs(1, 2):
            graph = entry.graph
            if not graph.edges:
                continue
            res = square_tiled_count(graph, 800)
            exact = float(vol_graph(graph, entry.aut_order))
            assert res.count > 0
            assert abs(res.estimate - exact) < 0.05 * exact

    def test_counts_are_integers_scaled(self):
        graph = StableGraph((0,), ((0, 0), (0, 0)), ())
        res = square_tiled_count(graph, 50)
        # |Aut|-weighted counts: 2d * count must be rational with small
        # denominator dividing the automorphism order
        assert res.count > 0


class TestConvergence:
    def test_one_two_report(self):
        rep = volume_convergence_report(1, 2, 400)
        assert rep.total_rel_error < 0.1
        for row in rep.rows:
            assert row.rel_error < 0.2

    def test_errors_shrink_with_N(self):
        errs = [
            volume_convergence_report(1, 2, N).total_rel_error
            for N in (100, 400, 1600)
        ]
        assert errs[2] < errs[0]
