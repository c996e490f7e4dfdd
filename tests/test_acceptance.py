"""Acceptance suite: the eleven golden criteria for the full pipeline.

Each test class corresponds to one acceptance criterion; all comparisons are
exact unless the criterion itself states a numeric tolerance.
"""
import math
import time
from fractions import Fraction

import pytest
import sympy

from mvq.asymptotics import (
    agk_by_recursion,
    agk_from_correlators,
    expansion_residual,
    harmonic_H_float,
    poisson_lambda,
    series_checks,
    sum_binomial_products,
    vol_gamma1_bounds,
    vol_gamma_k,
)
from mvq.correlators import cached_keys, correlator
from mvq.exact_arith import PiRational, factorial, zeta_even
from mvq.lattice_oracle import lattice_sum, volume_convergence_report
from mvq.multicurve_stats import (
    Multicurve,
    b0n_closed_form,
    b_gn,
    cylinder_distribution,
    expectation_ratio,
    frequency,
    prob_heights,
)
from mvq.siegel_veech import (
    c_area_boundary,
    c_area_graphsum,
    lyapunov_sum_plus,
)
from mvq.stable_graphs import StableGraph, enumerate_graphs
from mvq.volume_engine import graph_polynomial, masur_veech_volume

F = Fraction


def pr(c, p):
    return PiRational(F(c), p)


# ---------------------------------------------------------------------------
# frozen golden table: (g, n) -> (volume coeff, pi power,
#                                 (pi^2/3) c_area, Lyapunov sum)

GOLDEN_TABLE = {
    (0, 5): (F(1), 4, F(5, 9), F(0)),
    (0, 6): (F(1, 2), 6, F(11, 18), F(0)),
    (0, 7): (F(1, 4), 8, F(2, 3), F(0)),
    (1, 2): (F(1, 3), 4, F(7, 9), F(2, 3)),
    (1, 3): (F(11, 60), 6, F(47, 66), F(6, 11)),
    (1, 4): (F(1, 10), 8, F(44, 63), F(10, 21)),
    (1, 5): (F(163, 3024), 10, F(2075, 2934), F(70, 163)),
    (2, 0): (F(1, 15), 6, F(19, 18), F(4, 3)),
    (2, 1): (F(29, 840), 8, F(230, 261), F(32, 29)),
    (2, 2): (F(337, 18144), 10, F(8131, 10110), F(1636, 1685)),
    (3, 0): (F(115, 33264), 12, F(24199, 25875), F(4286, 2875)),
    (4, 0): (F(2106241, 11548293120), 18, F(283794163, 315936150),
             F(91179048, 52656025)),
}

PHI = StableGraph((0, 1), ((0, 0), (0, 1)), ())
TWO_LOOPS = StableGraph((0,), ((0, 0), (0, 0)), ())


class TestCriterion01Volumes:
    def test_all_twelve_volumes_within_runtime_budget(self):
        start = time.monotonic()
        for (g, n), (coeff, power, _, _) in GOLDEN_TABLE.items():
            assert masur_veech_volume(g, n).total == pr(coeff, power), (g, n)
        assert time.monotonic() - start < 120


class TestCriterion02PerGraph:
    def test_two_zero_six_graphs(self):
        rep = masur_veech_volume(2, 0)
        vols = sorted(v.coeff for _, v in rep.per_graph)
        assert vols == sorted(
            F(q) for q in ("16/945", "1/2835", "8/225", "1/675", "1/135",
                           "2/405")
        )
        assert all(v.pi_power == 6 for _, v in rep.per_graph)

    def test_one_two_four_graphs(self):
        rep = masur_veech_volume(1, 2)
        vols = sorted(v.coeff for _, v in rep.per_graph)
        assert vols == sorted(F(q) for q in ("8/45", "1/135", "2/27", "2/27"))
        assert all(v.pi_power == 4 for _, v in rep.per_graph)

    @pytest.mark.parametrize("g,n", sorted(GOLDEN_TABLE) + [(3, 3), (4, 1)])
    def test_catalog_sum_equals_recursion(self, g, n):
        # the catalog route stays as an independent check of the edge recursion
        rep = masur_veech_volume(g, n)
        per_k = {}
        for entry, v in rep.per_graph:
            k = entry.graph.num_edges
            per_k[k] = per_k.get(k, PiRational.zero()) + v
        assert per_k == rep.per_cylinder_count
        assert sum(per_k.values(), PiRational.zero()) == rep.total


class TestCriterion03SiegelVeech:
    @pytest.mark.parametrize("gn", sorted(GOLDEN_TABLE))
    def test_table_values(self, gn):
        assert c_area_graphsum(*gn) == GOLDEN_TABLE[gn][2]

    @pytest.mark.parametrize(
        "g,n",
        [(1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3),
         (3, 0), (3, 1), (3, 2), (3, 3),
         (0, 4), (0, 5), (0, 6), (0, 7)],
    )
    def test_boundary_formula_equals_graph_sum(self, g, n):
        assert c_area_boundary(g, n) == c_area_graphsum(g, n)


class TestCriterion04Lyapunov:
    @pytest.mark.parametrize("gn", sorted(GOLDEN_TABLE))
    def test_table_values(self, gn):
        assert lyapunov_sum_plus(*gn) == GOLDEN_TABLE[gn][3]

    def test_genus_zero_rows_vanish(self):
        for n in range(4, 9):
            assert lyapunov_sum_plus(0, n) == 0


class TestCriterion05CylinderDistributions:
    def test_two_zero(self):
        assert cylinder_distribution(2, 0) == {
            1: F(7, 27), 2: F(15, 27), 3: F(5, 27)
        }

    def test_genus_three(self):
        assert cylinder_distribution(3, 0) == {
            1: F(757336, 3493125),
            2: F(4220972, 10479375),
            3: F(591367, 2095875),
            4: F(167692, 2095875),
            5: F(28, 1725),
            6: F(56, 27945),
        }

    def test_genus_three_graph_counts_per_cylinder(self):
        counts = {}
        for entry in enumerate_graphs(3, 0):
            k = len(entry.graph.edges)
            if k:
                counts[k] = counts.get(k, 0) + 1
        assert counts == {1: 2, 2: 5, 3: 9, 4: 12, 5: 8, 6: 5}

    def test_one_two_split(self):
        assert cylinder_distribution(1, 2) == {1: F(5, 9), 2: F(4, 9)}


class TestCriterion06Frequencies:
    def test_six_punctured_sphere_ratio(self):
        totals = {3: F(0), 2: F(0)}
        for entry in enumerate_graphs(0, 6):
            graph = entry.graph
            if len(graph.edges) != 1 or len(graph.genera) != 2:
                continue
            split = sum(1 for v in graph.legs if v == 0)
            f = frequency(Multicurve(graph, (1,)))
            totals[min(split, 6 - split)] += f
        assert totals[3] / totals[2] == F(4, 3)

    def test_separating_over_nonseparating(self):
        from mvq.asymptotics import sep_nonsep_ratio

        expected = {
            2: F(1, 48),
            3: F(5, 1776),
            4: F(605, 790992),
            5: F(4697, 27201408),
            11: F(166833285883, 5360555755385245488),
        }
        for g, val in expected.items():
            assert sep_nonsep_ratio(g)[0] == val, g

    def test_sphere_average_closed_form(self):
        for n in range(4, 9):
            assert b_gn(0, n) == b0n_closed_form(n)


class TestCriterion07Statistics:
    def test_conditional_expectation_symbolic(self):
        H1, H2 = sympy.symbols("H1 H2", positive=True)
        val = expectation_ratio(PHI, (1, 0), (0, 1), H=(H1, H2))
        assert sympy.simplify(val - sympy.Rational(2, 3) * H2 / H1) == 0

    def test_unconditioned_expectation(self):
        # exact identity E = (2/3) zeta(3)^2 / (zeta(2) zeta(4)), whose
        # float value is 0.5410698...; the per-height conditional law
        # (2/3) H2/H1 averaged against the height weights gives the same
        val = expectation_ratio(PHI, (1, 0), (0, 1))
        expected = (
            sympy.Rational(2, 3) * sympy.zeta(3) ** 2
            / (sympy.zeta(2) * sympy.zeta(4))
        )
        assert sympy.simplify(val - expected) == 0
        assert float(sympy.N(val)) == pytest.approx(0.54106983, abs=1e-4)
        assert expectation_ratio(PHI, (0, 1), (1, 0)) == sympy.oo

    def test_unit_height_probability(self):
        val = prob_heights(PHI, exact=(1, 1))
        assert val == pr(540, -6)
        assert float(val) == pytest.approx(0.561687, abs=1e-6)

    def test_bounded_height_probability(self):
        val = prob_heights(TWO_LOOPS, bound=2)
        # (85/64) / (zeta(2) zeta(4)) = (85/64) * 540 / pi^6
        assert val == pr(F(85, 64) * 540, -6)
        assert float(val) == pytest.approx(0.745991, abs=1e-6)


# frozen golden one-vertex k-loop volume coefficients, contribution to the
# principal stratum volume as rational multiples of pi^{6g-6}
GAMMA_K_TABLE = {
    (2, 1): F(16, 945),
    (2, 2): F(8, 225),
    (3, 1): F(204536, 273648375),
    (3, 2): F(2206912, 1620840375),
    (3, 3): F(2704, 3189375),
    (4, 1): F(80320477, 2362381544250),
    (4, 2): F(16548755563, 251883751494375),
    (4, 3): F(18410248, 368225463375),
    (4, 4): F(16128416, 987779417625),
    (5, 1): F(10303583454872, 6451867979907013125),
    (5, 2): F(19854998108336976488, 6136611136849420367765625),
    (5, 3): F(2276745597432209408, 827792583677569525640625),
    (5, 4): F(1412757290717388688, 1158909617148597335896875),
}


class TestCriterion08Asymptotics:
    @pytest.mark.parametrize("g", range(1, 11))
    def test_recursion_equals_correlators(self, g):
        assert agk_by_recursion(g) == agk_from_correlators(g)

    @pytest.mark.parametrize("g", range(2, 61))
    def test_interior_bounds(self, g):
        vals = agk_by_recursion(g).values
        assert vals[0] == 1 and vals[3 * g - 1] == 1
        assert vals[1] == 1 - F(2, 6 * g - 1)
        lower = 1 - F(2, 6 * g - 1)
        for k in range(2, 3 * g - 2):
            assert lower < vals[k] < 1, (g, k)

    @pytest.mark.parametrize("gk", sorted(GAMMA_K_TABLE))
    def test_loop_graph_volume_table(self, gk):
        g, k = gk
        assert vol_gamma_k(g, k) == pr(GAMMA_K_TABLE[gk], 6 * g - 6)

    @pytest.mark.parametrize("g", range(2, 31))
    def test_one_loop_sandwich(self, g):
        lower, value, upper = vol_gamma1_bounds(g)
        assert lower <= value <= upper

    def test_series_sums(self):
        checks = series_checks(60)
        for name, (got, want) in checks.items():
            assert got == pytest.approx(want, abs=1e-9), name

    def test_poisson_intensity_genus_26(self):
        assert 2.486 <= poisson_lambda(26) <= 2.488


class TestCriterion09LargeGenusProxies:
    def test_expansion_residuals_decrease(self):
        for k in (1, 2, 3):
            for idx in (0, 1):
                res = [
                    abs(expansion_residual(k, m)[idx])
                    for m in (500, 1000, 2000, 4000)
                ]
                assert res == sorted(res, reverse=True), (k, idx)

    def test_binomial_sum_normalization_at_large_genus(self):
        g = 200
        s = sum_binomial_products(g)
        assert abs(s * math.sqrt(6 * math.pi * g) / 2 ** (4 * g - 4) - 1) < 0.02

    def test_harmonic_residual_bound(self):
        m = 2000
        for k in (1, 2):
            eps_h, eps_z = expansion_residual(k, m)
            assert abs(eps_h) < 10 / m
            assert abs(eps_z) < 10 / m


class TestCriterion10Oracle:
    def test_convergence_and_index_law_within_runtime_budget(self):
        start = time.monotonic()
        rep = volume_convergence_report(2, 0, 2000)
        assert rep.total_rel_error < 0.03
        assert rep.total_exact == pr(F(1, 15), 6)

        m = (5,)
        N = 10 ** 4
        ratio = lattice_sum(m, 2 * N) / lattice_sum(m, N)
        assert abs(ratio / 2 ** (m[0] + 1) - 1) < 0.02
        assert time.monotonic() - start < 300


class TestCriterion11StructuralSuites:
    def test_string_dilaton_on_cache(self):
        def corr(g, d):
            if 2 * g - 2 + len(d) <= 0:
                return F(0)
            return correlator(g, d)

        checked = 0
        for g, d in list(cached_keys()):
            if len(d) > 6 or sum(d) > 14:
                continue
            lhs = corr(g, (0,) + d)
            rhs = sum(
                (corr(g, d[:i] + (d[i] - 1,) + d[i + 1:])
                 for i in range(len(d)) if d[i] >= 1),
                F(0),
            )
            assert lhs == rhs, (g, d)
            assert corr(g, (1,) + d) == (2 * g - 2 + len(d)) * corr(g, d)
            checked += 1
        assert checked > 100

    def test_catalog_counts(self):
        assert len(enumerate_graphs(2, 0)) == 7
        assert len(enumerate_graphs(1, 2)) == 5
        assert len(enumerate_graphs(3, 0)) == 42

    def test_all_exponents_odd_up_to_genus_four(self):
        for g, n in ((1, 1), (1, 2), (2, 0), (2, 1), (3, 0), (4, 0)):
            for entry in enumerate_graphs(g, n):
                if not entry.graph.edges:
                    continue
                poly = graph_polynomial(entry.graph, entry.aut_order)
                for mono in poly:
                    assert all(m % 2 == 1 for m in mono), (entry.graph, mono)
