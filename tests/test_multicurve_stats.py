"""Tests for multicurve frequencies, cylinder statistics and height laws."""
from fractions import Fraction

import pytest
import sympy

from mvq.exact_arith import PiRational, zeta_even
from mvq.multicurve_stats import (
    Multicurve,
    b_gn,
    const_gn,
    cylinder_distribution,
    expectation_ratio,
    frequency,
    prob_heights,
    vol_multicurve,
)
from mvq.stable_graphs import StableGraph, enumerate_graphs
from mvq.volume_engine import op_Y, graph_polynomial
from paper_refs import (
    b0n_closed_form,
    prob_unit_heights_one_cyl,
    separating_frequency,
    ztilde_integral,
)

PHI = StableGraph((0, 1), ((0, 0), (0, 1)), ())
TWO_LOOPS = StableGraph((0,), ((0, 0), (0, 0)), ())


class TestCylinderDistribution:
    def test_two_zero(self):
        assert cylinder_distribution(2, 0) == {
            1: Fraction(7, 27),
            2: Fraction(15, 27),
            3: Fraction(5, 27),
        }

    def test_one_two(self):
        assert cylinder_distribution(1, 2) == {
            1: Fraction(5, 9),
            2: Fraction(4, 9),
        }

    def test_normalization(self):
        for g, n in ((0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (2, 1)):
            dist = cylinder_distribution(g, n)
            assert sum(dist.values()) == 1
            assert all(p > 0 for p in dist.values())


class TestFrequencies:
    def test_six_punctured_sphere_ratio(self):
        # one-edge multicurves on the sphere with six marked points:
        # a 3+3 split of the marked points is 4/3 more frequent than a 2+4
        # split, after summing over labelings
        total_33 = Fraction(0)
        total_24 = Fraction(0)
        for entry in enumerate_graphs(0, 6):
            graph = entry.graph
            if len(graph.edges) != 1 or len(graph.genera) != 2:
                continue
            split = sum(1 for v in graph.legs if v == 0)
            f = frequency(Multicurve(graph, (1,)))
            if split == 3:
                total_33 += f
            elif split in (2, 4):
                total_24 += f
        assert total_33 / total_24 == Fraction(4, 3)

    def test_separating_ratios(self):
        assert separating_frequency(2, 1) > 0
        # frequency of one-handle splittings relative to non-separating curves
        from mvq.asymptotics import sep_nonsep_ratio

        assert sep_nonsep_ratio(2)[0] == Fraction(1, 48)
        assert sep_nonsep_ratio(3)[0] == Fraction(5, 1776)

    def test_frequency_scaling(self):
        for entry in enumerate_graphs(2, 0):
            graph = entry.graph
            if not graph.edges:
                continue
            k = len(graph.edges)
            base = frequency(Multicurve(graph, tuple([1] * k)))
            for a in (2, 3):
                scaled = frequency(Multicurve(graph, tuple([a] * k)))
                assert scaled == base / Fraction(a) ** (6 * 2 - 6)

    def test_vol_multicurve_truncation_approaches_graph_volume(self):
        import itertools

        from mvq.volume_engine import vol_graph

        T = 15
        for entry in enumerate_graphs(2, 0):
            graph = entry.graph
            if not graph.edges:
                continue
            k = len(graph.edges)
            partials = []
            for t in (T // 3, T):
                total = Fraction(0)
                for hs in itertools.product(range(1, t + 1), repeat=k):
                    total += vol_multicurve(graph, hs)
                partials.append(total)
            exact = float(vol_graph(graph, entry.aut_order))
            assert float(partials[0]) < float(partials[1]) < exact
            # the slowest tail is the zeta(2) one: relative gap below k/T
            gap = exact - float(partials[1])
            assert gap < 1.1 * k / T * exact


class TestAverages:
    def test_b0n_closed_form(self):
        for n in range(4, 9):
            assert b0n_closed_form(n) == b_gn(0, n)

    def test_b_gn_is_volume_over_constant(self):
        from mvq.volume_engine import masur_veech_volume

        vol = masur_veech_volume(2, 0).total
        assert b_gn(2, 0) * const_gn(2, 0) == vol

    def test_const_gn(self):
        # 2 * (6g-6+2n) * (4g-4+n)! * 2^{4g-3+n}
        assert const_gn(2, 0) == 2 * 6 * 24 * 2 ** 5


class TestHeightLaws:
    def test_unit_height_single_cylinder(self):
        assert prob_unit_heights_one_cyl(2, 0) == zeta_even(6).inverse()
        assert prob_unit_heights_one_cyl(1, 2) == zeta_even(4).inverse()
        assert prob_unit_heights_one_cyl(0, 4) == zeta_even(2).inverse()

    def test_unit_heights_two_cylinder_graph(self):
        val = prob_heights(PHI, exact=(1, 1))
        assert val == PiRational(Fraction(540), -6)
        assert float(val) == pytest.approx(0.561687, abs=1e-6)

    def test_bounded_heights(self):
        val = prob_heights(TWO_LOOPS, bound=2)
        assert val == PiRational(Fraction(11475, 16), -6)
        assert float(val) == pytest.approx(0.745991, abs=1e-6)

    def test_unconstrained_is_one(self):
        for graph in (PHI, TWO_LOOPS):
            assert float(prob_heights(graph)) == pytest.approx(1.0)

    def test_graph_without_edges_is_indeterminate(self):
        for graph in (StableGraph((2,), (), ()), StableGraph((0,), (), (0, 0, 0))):
            for kwargs in ({}, {"exact": ()}, {"bound": 2}):
                with pytest.raises(ValueError, match="indeterminate"):
                    prob_heights(graph, **kwargs)


class TestEdgeVectors:
    """Every per-edge vector has one entry per edge of the graph."""

    def test_prob_heights(self):
        assert prob_heights(TWO_LOOPS, exact=(2, 2)) == PiRational(Fraction(135, 16), -6)
        for exact in ((2,), (2, 2, 5)):
            with pytest.raises(ValueError, match="one entry per edge"):
                prob_heights(TWO_LOOPS, exact=exact)

    def test_ztilde_integral(self):
        assert ztilde_integral(TWO_LOOPS, (2, 2)) == Fraction(1, 2400)
        with pytest.raises(ValueError, match="one entry per edge"):
            ztilde_integral(TWO_LOOPS, (2,))

    def test_vol_multicurve(self):
        assert vol_multicurve(TWO_LOOPS, (3, 3)) == Fraction(32, 1215)
        with pytest.raises(ValueError, match="one entry per edge"):
            vol_multicurve(TWO_LOOPS, (3,))

    def test_expectation_ratio(self):
        assert expectation_ratio(TWO_LOOPS, (1, 0), (0, 0), (1, 2)) == Fraction(18, 5)
        for num, den, H in (((1,), (0, 0), (1, 2)), ((1, 0), (0,), (1, 2)),
                            ((1, 0), (0, 0), (1,))):
            with pytest.raises(ValueError, match="one entry per edge"):
                expectation_ratio(TWO_LOOPS, num, den, H)


# heights for the two edges of TWO_LOOPS that are not one positive int per
# edge; unchecked, (-1, 1) gave the value of (1, 1), 0 a bare
# ZeroDivisionError and 1.5 a float
BAD_HEIGHTS = [(0, 1), (-1, 1), (1.5, 1), (True, 1), (1,), (1, 1, 1)]

HEIGHT_TAKERS = {
    "validate": lambda H: Multicurve(TWO_LOOPS, H).validate(),
    "vol_multicurve": lambda H: vol_multicurve(TWO_LOOPS, H),
    "prob_heights": lambda H: prob_heights(TWO_LOOPS, exact=H),
    "ztilde_integral": lambda H: ztilde_integral(TWO_LOOPS, H),
    "expectation_ratio": lambda H: expectation_ratio(TWO_LOOPS, (1, 0), (0, 1), H),
}


class TestHeightChecks:
    @pytest.mark.parametrize("name", sorted(HEIGHT_TAKERS))
    def test_bad_heights_rejected(self, name):
        for H in BAD_HEIGHTS:
            with pytest.raises(ValueError) as info:
                HEIGHT_TAKERS[name](H)
            # bad input, not an indeterminate ratio
            assert type(info.value) is ValueError, (H, info.value)


class TestExpectations:
    def test_conditional_on_heights_symbolic(self):
        H1, H2 = sympy.symbols("H1 H2", positive=True)
        val = expectation_ratio(PHI, (1, 0), (0, 1), H=(H1, H2))
        assert sympy.simplify(val - sympy.Rational(2, 3) * H2 / H1) == 0

    def test_conditional_equal_heights(self):
        assert expectation_ratio(TWO_LOOPS, (1, 0), (0, 1), H=(1, 1)) == Fraction(7, 3)
        assert expectation_ratio(TWO_LOOPS, (1, 0), (0, 1), H=(2, 2)) == Fraction(7, 3)

    def test_unconditioned_value(self):
        val = expectation_ratio(PHI, (1, 0), (0, 1))
        expected = (
            sympy.Rational(2, 3)
            * sympy.zeta(3) ** 2
            / (sympy.zeta(2) * sympy.zeta(4))
        )
        assert sympy.simplify(val - expected) == 0
        assert float(sympy.N(val)) == pytest.approx(0.5410698299, abs=1e-9)

    def test_unconditioned_divergence(self):
        assert expectation_ratio(PHI, (0, 1), (1, 0)) == sympy.oo

    def test_mixed_divergence_rejected(self):
        with pytest.raises(ValueError):
            expectation_ratio(TWO_LOOPS, (1, 0), (0, 1))


class TestDirichletIntegral:
    def test_integral_matches_y_operator(self):
        # the simplex integral of the density equals the Y image divided by
        # the dimension factorial
        for entry in enumerate_graphs(2, 0):
            graph = entry.graph
            if not graph.edges:
                continue
            k = len(graph.edges)
            import itertools

            for hs in itertools.product((1, 2, 3), repeat=k):
                val = ztilde_integral(graph, hs)
                poly = graph_polynomial(graph, entry.aut_order)
                d = 6 * 2 - 6
                assert val == op_Y(poly, hs) / __import__("math").factorial(d)
