"""Tests for the moduli-space volume engine."""
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from mvq import volume_engine
from mvq.correlators import correlator
from mvq.exact_arith import PiRational, factorial, zeta_even
from mvq.multicurve_stats import b_gn, cylinder_distribution
from mvq.siegel_veech import c_area_boundary
from mvq.stable_graphs import StableGraph, enumerate_graphs
from mvq.volume_engine import (
    graph_polynomial,
    kontsevich_poly,
    masur_veech_volume,
    op_Y,
    op_Z,
    vol_graph,
)


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
        for n in range(4, 8):
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
