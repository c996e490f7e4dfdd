"""Tests for the moduli-space volume engine."""
import hashlib
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

import pytest

from mvq import correlators, volume_engine
from mvq.asymptotics import vol_delta, vol_gamma1_exact
from mvq.correlators import correlator
from mvq.exact_arith import PiRational, double_factorial, factorial, zeta_even
from mvq.multicurve_stats import b_gn, cylinder_distribution
from mvq.siegel_veech import c_area_boundary
from mvq.stable_graphs import StableGraph, bridges, enumerate_graphs
from mvq.volume_engine import (
    graph_polynomial,
    masur_veech_volume,
    op_Y,
    op_Z,
    vol_graph,
)
from paper_refs import kontsevich_poly
from test_correlators import _splits


def pr(c, p):
    return PiRational(Fraction(c), p)


class TestKontsevichPolynomial:
    def test_one_one(self):
        # N_{1,1}(b) = (b^2 + 4)/48; only the top-degree part is stored
        poly = kontsevich_poly(1, 1)
        assert poly[(2,)] == Fraction(1, 48)

    def test_zero_three(self):
        assert kontsevich_poly(0, 3)[(0, 0, 0)] == 1

    def test_symmetry(self):
        poly = kontsevich_poly(0, 4)
        assert poly[(2, 0, 0, 0)] == poly[(0, 0, 0, 2)]

    def test_total_degree(self):
        for g, n in ((0, 4), (1, 1), (1, 2), (2, 1)):
            poly = kontsevich_poly(g, n)
            assert all(sum(m) == 6 * g - 6 + 2 * n for m in poly)


def _reference_kontsevich_terms(g, n):
    """Every term of N_{g,n} as a Fraction: <tau_d>_g / (2^(5g-6+2n) prod d_i!)
    at the exponents 2d."""
    terms = {}
    for d in volume_engine._compositions(3 * g - 3 + n, n):
        coeff = Fraction(correlator(g, d), 2 ** (5 * g - 6 + 2 * n))
        for di in d:
            coeff /= factorial(di)
        if coeff:
            terms[tuple(2 * di for di in d)] = coeff
    return terms


class TestVertexFactor:
    def test_equals_leg_free_reference_terms(self):
        """_vertex_factor(g, legs, ends) against the terms of a rational
        reference loop whose leg exponents are zero, on every stable
        (g, legs + ends) of dimension 3g - 3 + legs + ends <= 6."""
        cases = [(g, n) for g in range(4) for n in range(10)
                 if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 6]
        assert len(cases) == 18
        for g, n in cases:
            reference = _reference_kontsevich_terms(g, n)
            for legs in range(n + 1):
                want = {e[legs:]: c for e, c in reference.items() if not any(e[:legs])}
                den, terms = volume_engine._vertex_factor(g, legs, n - legs)
                assert den == lcm(*(c.denominator for c in want.values()))
                assert {e: Fraction(num, den) for e, num in terms} == want
                assert len(terms) == len(want)


class TestOperators:
    def test_z_operator_on_single_variable(self):
        # b^m maps to m! * zeta(m+1) for odd m
        poly = {(3,): Fraction(1)}
        assert op_Z(poly) == Fraction(6) * zeta_even(4)

    def test_z_operator_rejects_even_exponents(self):
        # an even exponent, monomials whose powers of pi differ, and monomials
        # in different numbers of variables
        for poly in (
            {(2,): Fraction(1)},
            {(1,): Fraction(1), (3,): Fraction(1)},
            {(3,): Fraction(1), (1, 1): Fraction(1)},
        ):
            with pytest.raises(AssertionError):
                op_Z(poly)

    def test_z_operator_guard_survives_optimize_flag(self):
        # the guards raise explicitly, so python -O cannot strip them
        code = (
            "from mvq.exact_arith import ExactnessError\n"
            "from mvq.volume_engine import op_Z\n"
            "try:\n"
            "    op_Z({(2,): 1})\n"
            "except ExactnessError:\n"
            "    print('raised')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"

    def test_packed_and_tuple_input_agree(self):
        """op_Z of a graph's packed numerators equals op_Z of the same terms
        with exponent tuples, unweighted and with two weight vectors, on every
        graph of (3, 2)."""
        graphs = [entry.graph for entry in enumerate_graphs(3, 2) if entry.graph.edges]
        assert len(graphs) == 1354
        for graph in graphs:
            _, packed = volume_engine._graph_numerators(graph)
            top, E, terms = packed
            width, mask = top.bit_length(), (1 << top.bit_length()) - 1
            tuples = {tuple(k >> (width * e) & mask for e in range(E)): c for k, c in terms.items()}
            assert len(tuples) == len(terms)
            cut = bridges(graph)
            for weights in (None, [1 if e in cut else 2 for e in range(E)], list(range(1, E + 1))):
                assert op_Z(packed, weights) == op_Z(tuples, weights), (graph, weights)

    def test_z_operator_rejects_weights_of_wrong_length(self):
        for weights in ([1], [1, 1, 1]):
            with pytest.raises(ValueError):
                op_Z({(1, 1): 1}, weights)

    def test_y_operator(self):
        # b^3 with height H maps to 3!/H^4
        assert op_Y({(3,): Fraction(1)}, (2,)) == Fraction(6, 16)
        assert op_Y({(1, 3): Fraction(2)}, (1, 2)) == 2 * Fraction(1) * Fraction(6, 16)

    def test_z_is_sum_of_y_over_heights(self):
        # Z equals the sum of Y over all positive integer heights
        poly = {(3, 3): Fraction(5, 7)}
        zval = op_Z(poly)
        partial = Fraction(0)
        for h1 in range(1, 100):
            for h2 in range(1, 100):
                partial += op_Y(poly, (h1, h2))
        assert abs(float(zval) - float(partial)) < 1e-5 * float(zval)


class TestVolumes:
    def test_two_zero_total(self):
        assert masur_veech_volume(2, 0).total == pr(Fraction(1, 15), 6)

    def test_per_graph_breakdown_two_zero(self):
        rep = masur_veech_volume(2, 0)
        vols = sorted(v.coeff for _, v in rep.per_graph)
        assert vols == sorted(
            Fraction(q)
            for q in ("16/945", "1/2835", "8/225", "1/675", "1/135", "2/405")
        )
        assert sum((v for _, v in rep.per_graph), PiRational.zero()) == rep.total

    def test_per_graph_breakdown_one_two(self):
        rep = masur_veech_volume(1, 2)
        vols = sorted(v.coeff for _, v in rep.per_graph)
        assert vols == sorted(
            Fraction(q) for q in ("8/45", "1/135", "2/27", "2/27")
        )
        assert rep.total == pr(Fraction(1, 3), 4)

    def test_per_cylinder_counts(self):
        rep = masur_veech_volume(2, 0)
        assert set(rep.per_cylinder_count) == {1, 2, 3}
        assert (
            sum(rep.per_cylinder_count.values(), PiRational.zero()) == rep.total
        )

    def test_pi_power_matches_dimension(self):
        for g, n in ((0, 5), (1, 2), (1, 3), (2, 0), (2, 1)):
            total = masur_veech_volume(g, n).total
            assert total.pi_power == 6 * g - 6 + 2 * n

    def test_genus0_closed_form_matches_engine(self):
        # Vol Q_{0,n} = 2^(5-n) pi^(2n-6)
        for n in [*range(4, 8), 12, 16, 20]:
            assert pr(Fraction(2) ** (5 - n), 2 * n - 6) == masur_veech_volume(0, n).total

    def test_beyond_catalog_reach(self):
        # (5, 0) and (4, 2) were also found by summing their catalogs; the
        # (6, 0) catalog takes minutes to build
        assert masur_veech_volume(5, 0).total == pr(
            Fraction(7607231, 790778419200), 24
        )
        assert masur_veech_volume(4, 2).total == pr(
            Fraction(160909109, 3038089420800), 22
        )
        assert masur_veech_volume(6, 0).total == pr(
            Fraction(51582017261473, 101735601235107840000), 30
        )

    def test_totals_need_no_catalog(self, monkeypatch):
        def no_catalog(g, n):
            raise RuntimeError("catalog walked for (%d, %d)" % (g, n))

        monkeypatch.setattr(volume_engine, "enumerate_graphs", no_catalog)
        masur_veech_volume.cache_clear()
        assert set(masur_veech_volume(4, 1).per_cylinder_count) == set(range(1, 11))
        assert cylinder_distribution(3, 1)[1] > 0
        assert b_gn(2, 3).pi_power == 12
        assert c_area_boundary(2, 4) > 0
        with pytest.raises(RuntimeError):
            masur_veech_volume(2, 0).per_graph

    def test_unstable_and_zero_three_rejected(self):
        for g, n in ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (-1, 4), (2, -1)):
            with pytest.raises(ValueError):
                masur_veech_volume(g, n)

    def test_vol_graph_feeds_report(self):
        rep = masur_veech_volume(2, 0)
        for entry, vol in rep.per_graph:
            if not entry.graph.edges:
                continue
            assert vol_graph(entry.graph, entry.aut_order) == vol


# Vol Q_{7,0}: its k-cylinder parts, k = 1..18, times pi^-36
VOL_7_0_PARTS = (
    "198424403972469245441859082123/53293604146560155968755948783000000000",
    "194806400942912071773763716135497/23982121865952070185940176952350000000000",
    "1326523572657141642095022425129/168295592041768913585545101420000000000",
    "88389521200607961329646746357/19418722158665643875255204010000000000",
    "40560386416168411800581670533/22845555480783110441476710600000000000",
    "46531690452271998859109076757/91382221923132441765906842400000000000",
    "110228574278570656075765753/949425682318259135230200960000000000",
    "43171610598612852275674429/1898851364636518270460401920000000000",
    "1980780946220545317443081/486884965291414941143692800000000000",
    "401257518222473249188837/584261958349697929372431360000000000",
    "47936929558578574903/433589579480295309367296000000000",
    "3946387007834617/233471312027851320428544000000",
    "1496307548809201/619413684971850441953280000000",
    "34041872836801/108397394870073827341824000000",
    "44135240651/1238827369943700883906560000",
    "5619829/1701685947724863851520000",
    "49321/222012073466613061632000",
    "787/96783388276851631555200",
)

# Vol Q_{4,1}: its k-cylinder parts, k = 1..10, times pi^-20
VOL_4_1_PARTS = (
    "2297356927/121739847075000",
    "171635432069/4857419898292500",
    "129903250301/4710225355920000",
    "48252478459/4037336019360000",
    "272963579863/80746720387200000",
    "1036222583/1318313802240000",
    "1135333/7209528606000",
    "71587/2714175475200",
    "3839/1153524576960",
    "13/54283509504",
)

# The edge recursion with the split loop it had before the genus range was
# cut to the sides that can hold a graph: every g1 whose two sides are
# stable, and with its earlier row updates and lcm sum.  Its states are
# W(g, S) itself, with the correlators and the propagator P(a, b), not in the
# scale of the psi-brackets.  Each memo is a plain dict so that a test can
# list what it reached.
_REF_WICK = {}
_REF_CONTRACTED = {}


def _add(sums, den, scale, vec, k0):
    """sums[den][k0 + k] += scale * vec[k] for each k."""
    row = sums[den]
    for k, w in enumerate(vec, k0):
        row[k] += scale * w


def _vector(sums, divisors):
    """sum over d of sums[d] / d, with entry k divided by divisors[k], over
    one reduced denominator, entry by entry."""
    den = lcm(*sums) * lcm(*divisors)
    nums = [sum(row[k] * (den // d // q) for d, row in sums.items())
            for k, q in enumerate(divisors)]
    common = gcd(den, *nums)
    return den // common, tuple(x // common for x in nums)


def _reference_wick(g, S):
    if (g, S) in _REF_WICK:
        return _REF_WICK[g, S]
    top = volume_engine._room(g, S)
    if top < 0 or 2 * g - 2 + len(S) <= 0:
        _REF_WICK[g, S] = 1, ()
        return 1, ()
    sums = defaultdict(lambda: [0] * (top + 1))
    if S:
        c = correlator(g, S)
        sums[c.denominator][0] = c.numerator
    for b in range(top if g >= 1 else 0):
        den, vec = _reference_contracted(g - 1, tuple(sorted(S + (b,))), b)
        _add(sums, den, 1, vec, 1)
    for S1, S2, weight in _splits(S):
        for g1 in range(g + 1):
            g2 = g - g1
            if (g1, S1) > (g2, S2) or min(2 * g1 + len(S1), 2 * g2 + len(S2)) < 2:
                continue
            pair = weight * (1 if (g1, S1) == (g2, S2) else 2)
            for b in range(volume_engine._room(g2, S2) + 2):
                den_r, right = _reference_wick(g2, tuple(sorted(S2 + (b,))))
                den_l, left = _reference_contracted(g1, S1, b)
                for i, v in enumerate(left, 1):
                    if v:
                        _add(sums, den_l * den_r, pair * v, right, i)
    val = _vector(sums, [max(2 * k, 1) for k in range(top + 1)])
    _REF_WICK[g, S] = val
    return val


def _reference_contracted(g, S, b):
    if (g, S, b) not in _REF_CONTRACTED:
        size = volume_engine._room(g, S) + 2
        sums = defaultdict(lambda: [0] * size)
        for a in range(size):
            p = 2 * volume_engine._zeta_factor(2 * a + 2 * b + 1) / (factorial(a) * factorial(b))
            den, vec = _reference_wick(g, tuple(sorted(S + (a,))))
            _add(sums, p.denominator * den, p.numerator, vec, 0)
        _REF_CONTRACTED[g, S, b] = _vector(sums, [1] * size)
    return _REF_CONTRACTED[g, S, b]


class TestEdgeRecursion:
    def test_equals_reference_split_loop(self):
        """_wick against the split loop over every g1 with stable sides, on
        every (g, S) that the reference reaches from five (g, n)."""
        for g, n in ((5, 0), (4, 1), (3, 2), (2, 4), (1, 6)):
            _reference_wick(g, (0,) * n)
        assert len(_REF_WICK) > 700
        for (g, S), (den, nums) in _REF_WICK.items():
            # the reference state times prod (2s+1)!!, reduced: _wick's scale
            nums = [x * prod(double_factorial(2 * s + 1) for s in S) for x in nums]
            common = gcd(den, *nums)
            want = den // common, tuple(x // common for x in nums)
            assert volume_engine._wick(g, S) == want, (g, S)

    def test_no_contracted_vector_is_empty(self, monkeypatch):
        """A split is summed only when its left side can hold a graph, so no
        cut edge is contracted against a side with no room at all."""
        inner = volume_engine._contracted
        seen = {}

        def recording(g, S, b):
            seen[g, S, b] = vec = inner(g, S, b)
            return vec

        monkeypatch.setattr(volume_engine, "_contracted", recording)
        volume_engine._wick.cache_clear()
        inner.cache_clear()
        masur_veech_volume.cache_clear()
        masur_veech_volume(4, 1)
        assert len(seen) > 500
        assert [key for key, (_, vec) in seen.items() if not vec] == []

    def test_reads_brackets_not_correlators(self, monkeypatch):
        """The state with no edge is the psi-bracket itself, so the edge
        recursion never divides a bracket by prod (2d+1)!! into a correlator."""
        def no_correlator(g, d):
            raise RuntimeError("correlator read")

        # swap the code, so that the function raises under every name it is bound to
        monkeypatch.setattr(correlators.correlator, "__code__", no_correlator.__code__)
        for memo in (masur_veech_volume, volume_engine._wick, volume_engine._contracted):
            memo.cache_clear()
        assert masur_veech_volume(4, 1).per_cylinder_count == {
            k: pr(Fraction(q), 20) for k, q in enumerate(VOL_4_1_PARTS, 1)
        }
        with pytest.raises(RuntimeError):
            correlators.correlator(1, (1,))

    def test_seven_zero_per_cylinder_parts(self):
        rep = masur_veech_volume(7, 0)
        assert rep.per_cylinder_count == {
            k: pr(Fraction(q), 36) for k, q in enumerate(VOL_7_0_PARTS, 1)
        }
        assert rep.total == pr(Fraction(2988444945587149, 111891468210577735680000), 36)


    def test_per_cylinder_parts_are_pinned(self):
        """One SHA-256 over the exact k-cylinder parts of every stratum of
        dimension 6g - 6 + 2n <= 32 but (0, 3), so that no rewrite of the
        recursion's inner loops changes a digit unnoticed."""
        strata = [(g, n) for g in range(7) for n in range(20)
                  if 2 * g - 2 + n > 0 and 6 * g - 6 + 2 * n <= 32 and (g, n) != (0, 3)]
        assert len(strata) == 72
        lines = "".join("%d %d %d %s %d\n" % (g, n, k, v.coeff, v.pi_power)
                        for g, n in strata
                        for k, v in sorted(masur_veech_volume(g, n).per_cylinder_count.items()))
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "40f81ba117a57780d878d02259456396cd73e3d4d99ffd778198118922b7de45")

    @pytest.mark.parametrize("g", range(2, 8))
    def test_one_cylinder_part_is_one_loop_plus_separating_edges(self, g):
        """At n = 0 the one-edge graphs are the loop at a genus g - 1 vertex
        and the separating edges between genera g1 and g - g1."""
        want = vol_gamma1_exact(g)
        for g1 in range(1, g // 2 + 1):
            want = want + vol_delta(g1, g - g1)
        assert masur_veech_volume(g, 0).per_cylinder_count[1] == want


class TestPolynomialStructure:
    def test_all_exponents_odd(self):
        # every monomial of every graph polynomial has all-odd exponents
        for g, n in ((2, 0), (1, 2), (3, 0), (2, 2)):
            for entry in enumerate_graphs(g, n):
                if not entry.graph.edges:
                    continue
                poly = graph_polynomial(entry.graph, entry.aut_order)
                for mono in poly:
                    assert all(m % 2 == 1 for m in mono), (entry.graph, mono)

    def test_loop_graph_polynomial(self):
        # single genus-1 vertex with a loop in genus 2
        loop = StableGraph((1,), ((0, 0),), ())
        entry = next(
            e for e in enumerate_graphs(2, 0) if e.graph == loop
        )
        vol = op_Z(graph_polynomial(loop, entry.aut_order))
        assert vol == pr(Fraction(16, 945), 6)
