"""Tests for exact rational-times-power-of-pi arithmetic."""
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from mvq.exact_arith import (
    ExactnessError,
    PiRational,
    _PI_60,
    bernoulli,
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


# the defining recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 that the
# tangent-number loop replaced
@lru_cache(maxsize=None)
def _reference_bernoulli(n):
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    return -sum(math.comb(n + 1, k) * _reference_bernoulli(k) for k in range(n)) / (n + 1)


class TestBernoulli:
    def test_matches_defining_recurrence(self):
        for n in range(121):
            assert bernoulli(n) == _reference_bernoulli(n), n

    def test_conventions(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(12) == Fraction(-691, 2730)
        assert all(bernoulli(n) == 0 for n in (3, 5, 99, 641))
        with pytest.raises(ValueError):
            bernoulli(-2)

    def test_von_staudt_clausen_at_640(self):
        # the denominator of B_n is the product of the primes p with (p - 1) | n
        n = 640
        primes = [p for p in range(2, n + 2) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        assert bernoulli(n).denominator == math.prod(p for p in primes if n % (p - 1) == 0)
        assert bernoulli(n) < 0  # the sign of B_n is (-1)^(n/2 + 1)


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
        # inside the float range, exactly the plain product
        x = pr(a, p)
        assert float(x) == float(a) * math.pi ** p

    def test_float_of_a_large_pi_power(self):
        # pi^640 alone overflows a float; zeta(640) = 1 + 2^-640 + ...
        assert float(zeta_even(640)) == 1.0
        assert float(zeta_even(640) / 320) == 1 / 320
        assert float(pr(Fraction(1, 10 ** 400), 700)) == pytest.approx(
            math.exp(700 * math.log(math.pi) - 400 * math.log(10)), rel=1e-12, abs=0
        )

    def test_float_beyond_the_float_range(self):
        assert float(pr(1, 700)) == math.inf
        assert float(pr(-3, 700)) == -math.inf
        assert float(pr(10 ** 400, 0)) == math.inf
        assert float(pr(Fraction(1, 10 ** 400), 2)) == 0.0
        # coefficients that are subnormal or 0.0 as floats, times a finite pi^600
        for e in (320, 400):
            assert float(pr(Fraction(1, 10 ** e), 600)) == pytest.approx(
                math.exp(600 * math.log(math.pi) - e * math.log(10)), rel=1e-12, abs=0
            )

    def test_sixty_digits_of_pi(self):
        import mpmath

        with mpmath.workdps(80):
            assert abs(_PI_60.numerator / mpmath.mpf(_PI_60.denominator) - mpmath.pi) < 1e-60

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
