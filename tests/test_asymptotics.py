"""Tests for large-genus asymptotics: two-point sequences, one-loop and
separating contributions, harmonic sums, series expansions, and the Poisson
model for cylinder counts."""
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from mvq.asymptotics import (
    _deltas,
    agk_by_recursion,
    agk_from_correlators,
    expansion_residual,
    harmonic_H,
    harmonic_H_float,
    harmonic_Z,
    harmonic_Z_float,
    poisson_lambda,
    poisson_model,
    rpq,
    sep_nonsep_asymptotic,
    sep_nonsep_ratio,
    series_checks,
    series_coeffs,
    sum_binomial_products,
    vol_delta,
    vol_gamma1_asymptotic,
    vol_gamma1_bounds,
    vol_gamma1_exact,
    vol_gamma_k,
)
from mvq.correlators import correlator, max_bracket
from mvq.exact_arith import PiRational, zeta_even


class TestTwoPointSequence:
    @pytest.mark.parametrize("g", [*range(1, 8), 20, 25])
    def test_recursion_matches_correlators(self, g):
        assert agk_by_recursion(g) == agk_from_correlators(g)

    def test_symmetry(self):
        for g in (2, 4, 6):
            vals = agk_by_recursion(g).values
            assert vals == tuple(reversed(vals))

    def test_normalization(self):
        for g in (1, 3, 5):
            assert agk_by_recursion(g).values[0] == 1

    def test_two_point_correlator_against_cache(self):
        # <tau_k tau_{3g-1-k}>_g = a_{g,k} [tau_0 tau_{3g-1}]_g over the factor
        # 2^{3g-1} prod (2 d_i + 1)!/d_i! from <tau_d>_g to [tau_d]
        for g in (1, 2, 3):
            for k in range(3 * g):
                d = (k, 3 * g - 1 - k)
                factor = 2 ** (3 * g - 1) * math.prod(
                    math.factorial(2 * x + 1) // math.factorial(x) for x in d
                )
                two_point = agk_by_recursion(g).values[k] * max_bracket(g, 2) / factor
                assert two_point == correlator(g, d)

    @pytest.mark.parametrize("g", (5, 10, 20))
    def test_factored_difference_sums(self, g):
        # the three partial numerators add up to the full one
        for j in range(g // 2):
            R, P1, P2, P3, Q = rpq(g, j)
            assert Q != 0
            assert (P1 + P2 + P3) / Q == (
                Fraction(
                    (6 * g - 6 * j - 1) * (6 * g - 6 * j - 3) * (g - 2 * j)
                    - 2 * (6 * g - 6 * j - 3) * (6 * j + 1) * (g - j)
                    + 2 * (6 * j + 1) * (6 * j + 3) * (g - j),
                    g * (6 * g - 6 * j - 1) * (6 * g - 6 * j - 3),
                )
            )


class TestOneLoopContribution:
    def test_matches_direct_graph_volume(self):
        for g in (2, 3, 4):
            assert vol_gamma1_exact(g) == vol_gamma_k(g, 1)

    def test_table_genus_two_three(self):
        assert vol_gamma1_exact(2) == PiRational(Fraction(16, 945), 6)
        assert vol_gamma1_exact(3) == PiRational(
            Fraction(204536, 273648375), 12
        )

    @pytest.mark.parametrize("g", range(2, 31))
    def test_sandwich_bounds(self, g):
        lower, value, upper = vol_gamma1_bounds(g)
        assert lower <= value <= upper

    def test_asymptotic_form_converges(self):
        g = 60
        ratio = float(vol_gamma1_exact(g)) / vol_gamma1_asymptotic(g)
        assert abs(ratio - 1) < 0.01


class TestSeparatingContribution:
    def test_vol_delta_symmetry(self):
        assert vol_delta(1, 3) == vol_delta(3, 1)

    def test_ratios(self):
        assert sep_nonsep_ratio(2)[0] == Fraction(1, 48)
        assert sep_nonsep_ratio(3)[0] == Fraction(5, 1776)
        assert sep_nonsep_ratio(4)[0] == Fraction(605, 790992)
        assert sep_nonsep_ratio(5)[0] == Fraction(4697, 27201408)

    def test_ratio_approaches_asymptotic_form(self):
        exact, asym = sep_nonsep_ratio(40)
        assert abs(float(exact) / asym - 1) < 0.02

    def test_asymptotic_form_past_the_float_range(self):
        # the float 4^g overflows from g = 512 on, and the quotient underflows
        # a few genera later
        for g in (512, 560, 5000):
            asym = sep_nonsep_asymptotic(g)
            log = math.log(asym.numerator) - math.log(asym.denominator)
            want = 0.5 * math.log(2 / (3 * math.pi * g)) - g * math.log(4)
            assert log == pytest.approx(want, rel=1e-14), g
        for g in (2, 40, 500):  # in range it is the float quotient itself
            assert float(sep_nonsep_asymptotic(g)) == math.sqrt(2 / (3 * math.pi * g)) / 4 ** g

    def test_binomial_sum_asymptotics(self):
        g = 200
        s = sum_binomial_products(g)
        assert abs(s * math.sqrt(6 * math.pi * g) / 2 ** (4 * g - 4) - 1) < 0.02


class TestHarmonicSums:
    def test_exact_small_cases(self):
        # sums over compositions j_1+...+j_k = m of prod 1/j_i
        assert harmonic_H(1, 3) == Fraction(1, 3)
        assert harmonic_H(2, 3) == Fraction(1, 2) + Fraction(1, 2)
        assert harmonic_H(2, 4) == 2 * Fraction(1, 3) + Fraction(1, 4)
        # the zeta-weighted analogue at k=1 is zeta(2m)/m
        assert harmonic_Z(1, 1) == zeta_even(2)

    @pytest.mark.parametrize("k,m", [(1, 50), (2, 30), (3, 20)])
    def test_float_agrees_with_exact(self, k, m):
        assert harmonic_H_float(k, m) == pytest.approx(
            float(harmonic_H(k, m)), rel=1e-9
        )
        assert harmonic_Z_float(k, m) == pytest.approx(
            float(harmonic_Z(k, m)), rel=1e-6
        )

    def test_residual_bound(self):
        m = 2000
        eps_h, eps_z = expansion_residual(1, m)
        assert abs(eps_h) < 10 / m
        assert abs(eps_z) < 10 / m


    def test_shared_recursion_matches_separate_recursions(self):
        for k in range(5):
            for m in range(31):
                assert harmonic_H(k, m) == _reference_H(k, m), (k, m)
                assert harmonic_Z(k, m) == _reference_Z(k, m), (k, m)


# the separate recursions that the one composition sum replaced
@lru_cache(maxsize=None)
def _reference_H(k, m):
    if k < 1 or m < k:
        return Fraction(0) if m != 0 or k != 0 else Fraction(1)
    if k == 1:
        return Fraction(1, m)
    return sum(_reference_H(k - 1, m - j) / j for j in range(1, m - k + 2))


@lru_cache(maxsize=None)
def _reference_Z(k, m):
    if k < 1 or m < k:
        return PiRational.zero() if m != 0 or k != 0 else PiRational(1, 0)
    if k == 1:
        return zeta_even(2 * m) / m
    total = PiRational.zero()
    for j in range(1, m - k + 2):
        total = total + (zeta_even(2 * j) / j) * _reference_Z(k - 1, m - j)
    return total


class TestHarmonicLoops:
    # H_k(m) and Z_k(m) as floats, from the numpy convolution that the Stirling
    # loop replaced
    CONVOLUTION_FLOATS = {
        (1, 50): (0.02, 0.02),
        (2, 30): (0.26411025317247055, 0.3120555331442154),
        (3, 20): (1.6489190146435417, 2.497305779984205),
        (1, 500): (0.002, 0.002),
        (2, 2000): (0.008177868103610283, 0.008871390505566339),
        (3, 4000): (0.057789334637291495, 0.06737559262119987),
    }

    def test_floats_match_the_convolution(self):
        for (k, m), (h, z) in self.CONVOLUTION_FLOATS.items():
            assert harmonic_H_float(k, m) == pytest.approx(h, rel=1e-12, abs=0), (k, m)
            assert harmonic_Z_float(k, m) == pytest.approx(z, rel=1e-12, abs=0), (k, m)

    def test_deltas_match_mpmath(self):
        # delta_j = (zeta(2j) - 1)/j, rounded once, against 50-digit mpmath;
        # the float pi^(2j) made delta_27 and delta_28 negative
        import mpmath

        with mpmath.workdps(50):
            want = [float((mpmath.zeta(2 * j) - 1) / j) for j in range(1, 29)]
        assert list(_deltas()) == want

    def test_expansion_residual_leaves_numpy_unloaded(self):
        code = (
            "import sys\nfrom mvq.asymptotics import expansion_residual\n"
            "expansion_residual(3, 4000)\nprint('numpy' in sys.modules)"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestSeriesExpansions:
    def test_sum_identities(self):
        checks = series_checks(60)
        for name, (got, want) in checks.items():
            assert got == pytest.approx(want, abs=1e-9), name

    def test_first_coefficients(self):
        sc = series_coeffs(3)
        assert sc.A[0] == pytest.approx(1.0)
        assert sc.B[0] == pytest.approx(1.0)

    def test_residuals_decrease(self):
        for k in (1, 2, 3):
            res = [abs(expansion_residual(k, m)[0]) for m in (500, 1000, 2000, 4000)]
            assert res == sorted(res, reverse=True)
            res_z = [abs(expansion_residual(k, m)[1]) for m in (500, 1000, 2000, 4000)]
            assert res_z == sorted(res_z, reverse=True)


class TestPoissonModel:
    def test_lambda_genus_26(self):
        lam = poisson_lambda(26)
        assert 2.486 <= lam <= 2.488

    def test_model_mass_and_distance(self):
        for g in (2, 3, 4):
            model = poisson_model(g)
            mass = sum(model.pmf(k) for k in range(1, 120))
            assert mass == pytest.approx(1.0, abs=1e-9)
            assert 0 <= model.tv_distance <= 1


def test_cold_import_loads_neither_numpy_nor_mpmath():
    # only series_coeffs needs mpmath, and it imports it when called
    code = "import sys, mvq.cli\nprint(sorted({'numpy', 'mpmath'} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
