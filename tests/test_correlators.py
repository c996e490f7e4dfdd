"""Tests for psi-class intersection-number correlators."""
import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mvq.correlators import (
    c_gk,
    cached_keys,
    correlator,
    epsilon_d,
    max_bracket,
    normalized_bracket,
    one_point_closed_form,
)
from mvq import correlators
from mvq.correlators import _cuts, _room


class TestKnownValues:
    def test_genus_zero(self):
        assert correlator(0, (0, 0, 0)) == 1
        assert correlator(0, (0, 0, 0, 1)) == 1
        assert correlator(0, (0, 0, 0, 0, 2)) == 1
        assert correlator(0, (0, 0, 0, 1, 1)) == 2
        # closed form (n-3)!/prod(d_i!) at Sigma d_i = n-3
        assert correlator(0, (0, 0, 0, 0, 1, 2)) == 3
        assert correlator(0, (0, 0, 0, 1, 1, 1)) == 6

    def test_genus_one(self):
        assert correlator(1, (1,)) == Fraction(1, 24)
        assert correlator(1, (0, 2)) == Fraction(1, 24)
        assert correlator(1, (0, 0, 3)) == Fraction(1, 24)
        assert correlator(1, (1, 1, 1)) == Fraction(1, 12)

    def test_genus_two(self):
        assert correlator(2, (4,)) == Fraction(1, 1152)
        assert correlator(2, (0, 5)) == Fraction(1, 1152)
        assert correlator(2, (1, 4)) == Fraction(1, 384)  # dilaton of <tau_4>
        assert correlator(2, (2, 3)) == Fraction(29, 5760)

    def test_one_point_closed_form(self):
        # <tau_{3g-2}>_g = 1/(24^g g!)
        for g in range(1, 26):
            expected = Fraction(1, 24 ** g * __import__("math").factorial(g))
            assert one_point_closed_form(g) == expected
            assert correlator(g, (3 * g - 2,)) == expected

    def test_dimension_mismatch_is_zero(self):
        assert correlator(1, (2,)) == 0
        assert correlator(0, (1, 1, 1)) == 0

    def test_symmetry(self):
        assert correlator(2, (1, 4)) == correlator(2, (4, 1))
        assert correlator(0, (0, 2, 0, 1, 0)) == correlator(0, (0, 0, 0, 1, 2))


def _corr(g, d):
    """Correlator extended by zero to unstable (g, n)."""
    if 2 * g - 2 + len(d) <= 0:
        return Fraction(0)
    return correlator(g, d)


def _string_equation_holds(g, d):
    """<tau_0 tau_{d}> = sum_i <.. tau_{d_i - 1} ..> when dimensions match."""
    lhs = _corr(g, (0,) + d)
    rhs = Fraction(0)
    for i in range(len(d)):
        if d[i] >= 1:
            rhs += _corr(g, d[:i] + (d[i] - 1,) + d[i + 1:])
    return lhs == rhs


def _dilaton_equation_holds(g, d):
    lhs = _corr(g, (1,) + d)
    rhs = (2 * g - 2 + len(d)) * _corr(g, d)
    return lhs == rhs


def _table_digest(max_g, max_n):
    """SHA-256 of the lines "g d value", d ascending, over every correlator
    on the dimension constraint (all nonzero) with g <= max_g and
    1 <= n <= max_n, and the number of lines."""
    lines = []
    for g in range(max_g + 1):
        for n in range(1, max_n + 1):
            if 2 * g - 2 + n <= 0:
                continue
            D = 3 * g - 3 + n
            for d in combinations_with_replacement(range(D + 1), n):
                if sum(d) == D:
                    lines.append("%d %s %s\n" % (g, ",".join(map(str, d)), correlator(g, d)))
    return hashlib.sha256("".join(lines).encode()).hexdigest(), len(lines)


class TestTable:
    def test_table_up_to_genus_six_and_five_points(self):
        # filled from a cold memo, which is restored afterwards
        saved = dict(correlators._cache)
        correlators._cache.clear()
        try:
            digest = _table_digest(6, 5)
            keys = len(cached_keys())
        finally:
            correlators._cache.update(saved)
        assert digest == (
            "ac519d2731dcf903bcc5959345712cff4b60b7ba43917f9a738db7597217485a",
            827,
        )
        # the brackets the recursion on the smallest index memoizes
        assert keys == 875


def _splits(S):
    """Yield (S1, S2, weight) for every way to split the sorted multiset S
    into two, S1 and S2 sorted like S and weight the number of subsets of the
    positions of S whose entries form S1."""
    runs = [(x, len(list(run))) for x, run in groupby(S)]
    for pick in product(*[range(c + 1) for _, c in runs]):
        weight = 1
        left = right = ()
        for (x, c), k in zip(runs, pick):
            weight *= comb(c, k)
            left += (x,) * k
            right += (x,) * (c - k)
        yield left, right, weight


def _reference_cuts(g, S):
    """The split loop over every g1, kept where both sides have room for an
    end of the cut edge, one side of each swapped pair, weighted twice when
    the sides differ."""
    cuts = []
    for S1, S2, weight in _splits(S):
        for g1 in range(g + 1):
            g2 = g - g1
            if (g1, S1) > (g2, S2) or min(_room(g1, S1), _room(g2, S2)) < -1:
                continue
            cuts.append((g1, S1, g2, S2, weight * (1 if (g1, S1) == (g2, S2) else 2)))
    return cuts


class TestSplits:
    def test_splits_match_index_subsets(self):
        # for each sorted S, the weight of (S1, S2) counts the subsets of
        # positions of S whose entries, sorted, are S1
        for size in range(7):
            for S in combinations_with_replacement(range(3), size):
                brute = Counter()
                for r in range(size + 1):
                    for idx in combinations(range(size), r):
                        brute[tuple(S[i] for i in idx)] += 1
                got = list(_splits(S))
                assert len({S1 for S1, _, _ in got}) == len(got)
                assert {S1: w for S1, _, w in got} == dict(brute)
                for S1, S2, _ in got:
                    assert S2 == tuple(sorted((Counter(S) - Counter(S1)).elements()))

    def test_splits_keep_descending_order(self):
        assert sorted(_splits((2, 1, 1))) == [
            ((), (2, 1, 1), 1),
            ((1,), (2, 1), 2),
            ((1, 1), (2,), 1),
            ((2,), (1, 1), 1),
            ((2, 1), (1,), 2),
            ((2, 1, 1), (), 1),
        ]


class TestCuts:
    def test_equals_reference_split_loop(self):
        """_cuts against the split loop with both room bounds, for every
        sorted S over {0..4} of size <= 6, ascending and descending, and
        every g <= 6."""
        count = 0
        for size in range(7):
            for S in combinations_with_replacement(range(5), size):
                for T in (S, S[::-1]):
                    for g in range(7):
                        want = _reference_cuts(g, T)
                        assert list(_cuts(g, T)) == want, (g, T)
                        count += len(want)
        assert count > 10000


class TestStringDilaton:
    @pytest.mark.parametrize(
        "g,d",
        [
            (0, (1, 1)),
            (0, (0, 0, 2)),
            (1, (2,)),
            (1, (1, 1)),
            (2, (5,)),
            (2, (2, 4)),
            (3, (8,)),
            (3, (3, 3, 3)),
        ],
    )
    def test_string_spot_checks(self, g, d):
        assert _string_equation_holds(g, d)

    @pytest.mark.parametrize(
        "g,d", [(0, (0, 0, 0)), (1, (1,)), (2, (4,)), (2, (1, 4)), (3, (7, 1))]
    )
    def test_dilaton_spot_checks(self, g, d):
        assert _dilaton_equation_holds(g, d)

    def test_full_cache_consistency(self):
        """Every cached correlator satisfies string and dilaton equations."""
        correlator(3, (0, 1, 7))  # populate a non-trivial cache region
        checked = 0
        for g, d in list(cached_keys()):
            if len(d) > 6 or sum(d) > 12:
                continue
            assert _string_equation_holds(g, d), (g, d)
            assert _dilaton_equation_holds(g, d), (g, d)
            checked += 1
        assert checked > 50


class TestNormalizedForms:
    def test_two_point_bracket_ratio_in_unit_interval(self):
        for g in range(1, 6):
            for k in range(3 * g):
                ratio = normalized_bracket(g, (k, 3 * g - 1 - k)) / max_bracket(g, 2)
                assert 0 < ratio <= 1

    def test_epsilon_d_vanishes_at_the_maximal_bracket(self):
        for g in (1, 2, 3):
            assert epsilon_d(g, (0, 3 * g - 1)) == 0
            assert epsilon_d(g, (0, 3 * g - 1)) == (
                normalized_bracket(g, (0, 3 * g - 1)) / max_bracket(g, 2) - 1
            )

    def test_c_gk_accepts_valid_partition_only(self):
        # k=1 needs a single part equal to 3g-1
        val = c_gk(2, 1, (3 * 2 - 1,))
        assert val > 0
        with pytest.raises(ValueError):
            c_gk(2, 1, (1,))

    def test_c_gk_tends_to_one(self):
        # the normalization makes the large-genus value approach 1
        assert abs(float(c_gk(8, 1, (3 * 8 - 1,))) - 1.0) < 0.05


@settings(max_examples=40, deadline=None)
@given(
    g=st.integers(min_value=0, max_value=3),
    extra=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
)
def test_string_equation_property(g, extra):
    d = tuple(extra)
    # the equation relates a stable (g, n+1) correlator to stable (g, n)
    # ones, so the base must itself be stable
    if 2 * g - 2 + len(d) <= 0:
        return
    assert _string_equation_holds(g, d)
