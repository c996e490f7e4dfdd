"""Tests for exact rational-times-power-of-pi arithmetic."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mvq.exact_arith import (
    ExactnessError,
    PiRational,
    binomial,
    double_factorial,
    factorial,
    zeta_even,
)

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
powers_st = st.integers(min_value=-6, max_value=6)


def pr(c, p):
    return PiRational(Fraction(c), p)


class TestZetaEven:
    def test_known_values(self):
        assert zeta_even(2) == pr(Fraction(1, 6), 2)
        assert zeta_even(4) == pr(Fraction(1, 90), 4)
        assert zeta_even(6) == pr(Fraction(1, 945), 6)
        assert zeta_even(8) == pr(Fraction(1, 9450), 8)
        assert zeta_even(10) == pr(Fraction(1, 93555), 10)

    def test_float_agrees_with_mpmath(self):
        import mpmath

        for k in (2, 4, 6, 8, 12, 20):
            assert float(zeta_even(k)) == pytest.approx(
                float(mpmath.zeta(k)), rel=1e-12
            )

    def test_rejects_odd_argument(self):
        with pytest.raises((ValueError, AssertionError)):
            zeta_even(3)


class TestCombinatorics:
    def test_double_factorial(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(7) == 105
        assert double_factorial(8) == 384

    def test_factorial_binomial(self):
        assert factorial(0) == 1
        assert factorial(6) == 720
        assert binomial(10, 3) == 120
        assert binomial(5, 0) == 1
        assert binomial(5, 7) == 0

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
    def test_binomial_symmetry(self, n, k):
        assert binomial(n, k) == binomial(n, n - k if n >= k else -1)
        if 0 < k <= n:
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestPiRationalField:
    @given(fractions_st, fractions_st, fractions_st, powers_st)
    def test_same_power_addition_group(self, a, b, c, p):
        x, y, z = pr(a, p), pr(b, p), pr(c, p)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x - x).is_zero()
        assert x - y == x + pr(-b, p)

    @given(fractions_st, powers_st, fractions_st, powers_st)
    def test_multiplication(self, a, p, b, q):
        x, y = pr(a, p), pr(b, q)
        prod = x * y
        assert prod.coeff == a * b
        if a * b != 0:
            assert prod.pi_power == p + q
        assert x * y == y * x

    @given(fractions_st, powers_st, fractions_st, fractions_st, powers_st)
    def test_distributivity_same_power(self, a, p, b, c, q):
        x = pr(a, p)
        assert x * (pr(b, q) + pr(c, q)) == x * pr(b, q) + x * pr(c, q)

    @given(fractions_st, powers_st)
    def test_inverse(self, a, p):
        x = pr(a, p)
        if a == 0:
            with pytest.raises((ZeroDivisionError, ValueError)):
                x.inverse()
        else:
            assert (x * x.inverse()) == pr(1, 0)
            assert x.inverse().pi_power == -p

    def test_zero_is_canonical(self):
        assert pr(0, 4) == pr(0, -2) == PiRational.zero()
        assert PiRational.zero().is_zero()
        assert (pr(1, 2) * pr(0, 3)).is_zero()

    def test_mixed_power_addition_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            pr(1, 2) + pr(1, 4)

    @given(fractions_st, powers_st)
    def test_float_evaluation(self, a, p):
        import math

        x = pr(a, p)
        assert float(x) == pytest.approx(float(a) * math.pi ** p)

    @given(fractions_st, powers_st)
    def test_rational_checks_pi_power(self, a, p):
        x = pr(a, p)
        assert x.rational(p) == a
        if a != 0:
            with pytest.raises(ExactnessError) as info:
                x.rational(p + 2)
            assert isinstance(info.value, ValueError)
            assert isinstance(info.value, AssertionError)

    @given(fractions_st, powers_st)
    def test_json_round_trip(self, a, p):
        x = pr(a, p)
        assert PiRational.from_json(x.to_json()) == x
