"""Tests for the finite-N lattice-point oracle for square-tiled counts."""
import decimal
import itertools
import math
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from mvq import lattice_oracle
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


def _reference_cost_array(m, N, parity):
    W = [0] * (N + 1)
    start = 1 if parity is None else (2 if parity == 0 else 1)
    step = 1 if parity is None else 2
    for b in range(start, N + 1, step):
        pw = b ** m
        for c in range(b, N + 1, b):
            W[c] += pw
    return W


def _reference_combined_sum(arrays, N):
    *head, last = arrays
    size = math.prod(sum(arr) for arr in head).bit_length() // 8 + 1
    mask = (1 << (8 * size * (N + 1))) - 1
    conv = 1
    for arr in head:
        packed = b"".join(x.to_bytes(size, "little") for x in arr)
        conv = (conv * int.from_bytes(packed, "little")) & mask
    coeffs = conv.to_bytes(size * (N + 1), "little")
    prefix = list(accumulate(last))
    return sum(
        int.from_bytes(coeffs[c * size : (c + 1) * size], "little") * prefix[N - c]
        for c in range(N + 1)
    )


def reference_lattice_sum(m, N, parity=()):
    """The oracle's loop before cost arrays and combined sums were shared:
    one combined sum per parity pattern, with nothing kept between calls."""
    constraints = [tuple(c) for c in parity if c]
    constrained = frozenset().union(*constraints)
    choices = [(0, 1) if i in constrained else (None,) for i in range(len(m))]
    total = 0
    for ps in itertools.product(*choices):
        if any(sum(ps[i] for i in c) % 2 for c in constraints):
            continue
        arrays = [_reference_cost_array(e, N, p) for e, p in zip(m, ps)]
        total += _reference_combined_sum(arrays, N)
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


# exponents repeat, parity groups may repeat an index, and consecutive cases
# change N, which replaces the oracle's memo between calls
_cases = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.tuples(
        st.lists(st.sampled_from([0, 1, 3, 5]), min_size=k, max_size=k).map(tuple),
        st.integers(min_value=1, max_value=40),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=k - 1), max_size=3),
            max_size=3,
        ),
    )
)


class TestZeroPartialProduct:
    def test_zero_head_does_not_overflow_a_slot(self):
        # at N = 2 the product of two even-b arrays is zero up to N, and a
        # slot width taken from the sums of the two factors then overflowed
        m, parity = (6, 3, 7, 9, 8, 0), ((2,), (4, 2))
        assert lattice_sum(m, 2, parity) == reference_lattice_sum(m, 2, parity)


class TestSharedLatticeWork:
    @settings(max_examples=40, deadline=None)
    @given(cases=st.lists(_cases, min_size=1, max_size=6))
    def test_equals_reference_loop(self, cases):
        for m, N, parity in cases:
            assert lattice_sum(m, N, parity) == reference_lattice_sum(m, N, parity)

    def test_alternating_N_equals_reference_loop(self):
        # three parity patterns share one key, and index 3 is repeated
        m, parity = (1, 1, 1, 3), ((0, 1, 2), (3, 3))
        for N in (30, 7, 30, 31, 7, 1, 30):
            assert lattice_sum(m, N, parity) == reference_lattice_sum(m, N, parity)
            assert lattice_sum(m[:2], N) == reference_lattice_sum(m[:2], N)

    def test_report_rows_equal_reference_loop(self, monkeypatch):
        got = volume_convergence_report(3, 0, 30)
        monkeypatch.setattr(lattice_oracle, "lattice_sum", reference_lattice_sum)
        assert volume_convergence_report(3, 0, 30) == got

    def test_work_is_shared(self, monkeypatch):
        """At (3, 0) the 147 monomial sums need 6 divisor-power sums, 17
        distinct cost arrays and 35 products, one per sub-multiset of more
        than one pair that a key's halves reach; a second report at the same
        N makes none."""
        counts = {"products": 0, "calls": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        volume_convergence_report(3, 0, 1)  # the catalog and graph polynomials
        lattice_sum((1,), 1)  # empties the memo: the report below uses N = 40
        monkeypatch.setattr(lattice_oracle, "_product",
                            counted("products", lattice_oracle._product))
        monkeypatch.setattr(lattice_oracle, "lattice_sum",
                            counted("calls", lattice_oracle.lattice_sum))
        start = time.perf_counter()
        volume_convergence_report(3, 0, 20)
        assert time.perf_counter() - start < 1.0
        assert len(lattice_oracle._bases) == 6
        assert len(lattice_oracle._arrays) == 17
        assert counts["products"] == 35
        assert counts["calls"] == 147
        volume_convergence_report(3, 0, 20)
        assert counts["products"] == 35


class TestSieveAndProducts:
    def test_cost_arrays_equal_divisor_loops(self):
        # N changes between calls (1, 64, 2, 63, ...), and each call must see its own N
        for N in itertools.chain(*zip(range(1, 33), range(64, 32, -1))):
            for m in range(13):
                for parity in (-1, 0, 1):
                    want = _reference_cost_array(m, N, None if parity < 0 else parity)
                    assert lattice_oracle._cost_array(m, parity, N) == want, (m, parity, N)

    @pytest.mark.parametrize(
        "context",
        [
            decimal.Context(prec=50, traps=[decimal.Rounded, decimal.Inexact]),
            # libmpdec's whole precision, but the default exponent range: a
            # product of more than 10^6 digits does not fit
            decimal.Context(prec=decimal.MAX_PREC, traps=[decimal.Rounded, decimal.Inexact]),
        ],
    )
    def test_inexact_product_raises(self, monkeypatch, context):
        lattice_sum((1,), 1)  # empties the memo
        monkeypatch.setattr(lattice_oracle, "_CONTEXT", context)
        with pytest.raises((decimal.Rounded, decimal.Inexact)):
            lattice_sum((1, 1, 3), 10 ** 5, [[0, 1, 2]])

    def test_large_N_value(self):
        # operands of more than 10^6 digits
        got = lattice_sum((1, 1, 3), 10 ** 5, [[0, 1, 2]])
        assert got == 2179015143559138411718698177045010892

    def test_slots_wider_than_the_int_digit_limit(self):
        # a coefficient of the product of two cost arrays has over 4,300 digits
        m = (4000, 4000, 4000)
        assert lattice_sum(m, 4) == reference_lattice_sum(m, 4)


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
