"""End-to-end tests of the command-line interface."""
import json
import os
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath
import pytest
import sympy

from mvq import lattice_oracle
from mvq.cli import main
from mvq.multicurve_stats import cylinder_distribution


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVolume:
    def test_total(self, capsys):
        code, out, _ = run(capsys, "volume", "2", "0")
        assert code == 0
        assert "1/15" in out and "6" in out

    def test_per_graph_rows(self, capsys):
        code, out, _ = run(capsys, "volume", "2", "0", "--per-graph")
        assert code == 0
        for q in ("16/945", "1/2835", "8/225", "1/675", "1/135", "2/405"):
            assert q in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "--json", "volume", "1", "2", "--per-graph")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"]["coeff"] == "1/3" or doc["total"]["coeff"] == [1, 3]

    def test_invalid_input_exits_one(self, capsys):
        code, _, err = run(capsys, "volume", "0", "2")
        assert code == 1
        assert err


class TestSiegelVeech:
    def test_both_methods_match(self, capsys):
        code, out, _ = run(capsys, "sv", "2", "0", "--method", "both")
        assert code == 0
        assert "19/18" in out
        assert "MATCH" in out

    def test_out_of_hypothesis_exits_two(self, capsys):
        code, _, err = run(capsys, "sv", "1", "1", "--method", "boundary")
        assert code == 2
        assert err


class TestStatistics:
    def test_pk(self, capsys):
        code, out, _ = run(capsys, "pk", "2", "0")
        assert code == 0
        assert "7/27" in out and "5/27" in out

    def test_lyapunov(self, capsys):
        code, out, _ = run(capsys, "lyapunov", "2", "0")
        assert code == 0
        assert "4/3" in out

    def test_freq(self, capsys, tmp_path):
        doc = {
            "vertices": [{"genus": 0}, {"genus": 1}],
            "edges": [[0, 0], [0, 1]],
            "legs": [],
            "weights": [1, 1],
        }
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "freq", "--multicurve", str(path))
        assert code == 0
        assert "/" in out  # a positive exact rational

    def test_expect_divergent(self, capsys, tmp_path):
        doc = {
            "vertices": [{"genus": 0}, {"genus": 1}],
            "edges": [[0, 0], [0, 1]],
            "legs": [],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "expect", "--graph", str(path), "--num", "1,0", "--den", "0,1"
        )
        assert code == 0
        assert "0.54107" in out
        code, out, _ = run(
            capsys, "expect", "--graph", str(path), "--num", "0,1", "--den", "1,0"
        )
        assert code == 0
        assert "oo" in out or "inf" in out

    def test_expect_with_heights(self, capsys, tmp_path):
        doc = {
            "vertices": [{"genus": 0}],
            "edges": [[0, 0], [0, 0]],
            "legs": [],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            "expect",
            "--graph",
            str(path),
            "--num",
            "1,0",
            "--den",
            "0,1",
            "--heights",
            "1,1",
        )
        assert code == 0
        assert "7/3" in out

    def test_expect_past_the_float_range(self, capsys, tmp_path):
        # E[b_1^400] on the theta graph is about 10^871, with heights (a
        # Fraction) or without (a multiple of pi^400): the text reads its
        # digits from the value, and strict JSON gives null
        doc = {"vertices": [{"genus": 0}, {"genus": 0}], "edges": [[0, 1]] * 3, "legs": []}
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(doc))
        for heights in ((), ("--heights", "1,1,1")):
            argv = ("expect", "--graph", str(path), "--num", "400,0,0", "--den", "0,0,0", *heights)
            code, text, _ = run(capsys, *argv)
            assert code == 0
            code, out, _ = run(capsys, "--json", *argv)
            assert code == 0
            doc = json.loads(out, parse_constant=pytest.fail)
            assert doc["float"] is None
            with mpmath.workdps(30):
                value = mpmath.mpmathify(sympy.sympify(doc["value"]).evalf(30))
                assert text.rstrip().endswith(" = " + mpmath.nstr(value, 6))
            assert 870 < mpmath.log10(value) < 872


class TestAsymptotics:
    def test_agk(self, capsys):
        code, out, _ = run(capsys, "agk", "2")
        assert code == 0
        assert "1" in out

    def test_harmonic(self, capsys):
        code, out, _ = run(capsys, "--json", "harmonic", "H", "2", "10")
        assert code == 0
        json.loads(out)

    @staticmethod
    def harmonic(capsys, kind, k, m):
        """Run `harmonic kind k m` in text and JSON form, each in under 2 s;
        return the text line and the JSON payload."""
        outputs = []
        for form in ((), ("--json",)):
            start = time.perf_counter()
            code, out, _ = run(capsys, *form, "harmonic", kind, str(k), str(m))
            assert code == 0 and time.perf_counter() - start < 2, (form, kind, k, m)
            outputs.append(out)
        assert outputs[0].startswith(f"{kind}_{k}({m}) = ")
        return outputs[0].rstrip(), json.loads(outputs[1])

    # at m = k + 3 the parts above 1 are {4}, {3, 2} or {2, 2, 2}
    @staticmethod
    def h_plus_3(k):
        return Fraction(k, 4) + Fraction(k * (k - 1), 6) + Fraction(k * (k - 1) * (k - 2), 48)

    @staticmethod
    def z_plus_3(k):
        """Z_k(k+3)/pi^(2k+6), from c_j = zeta(2j)/(pi^(2j) j) for j = 1..4."""
        c1, c2, c3, c4 = Fraction(1, 6), Fraction(1, 180), Fraction(1, 2835), Fraction(1, 37800)
        return (
            k * c1 ** (k - 1) * c4
            + k * (k - 1) * c1 ** (k - 2) * c2 * c3
            + k * (k - 1) * (k - 2) // 6 * c1 ** (k - 3) * c2 ** 3
        )

    def test_harmonic_at_large_k(self, capsys):
        k = 500
        _, doc = self.harmonic(capsys, "H", k, k + 3)
        assert self.h_plus_3(k) == Fraction(15781625, 6)
        assert doc == {"value": "15781625/6", "float": 15781625 / 6}
        coeff = self.z_plus_3(k)
        _, doc = self.harmonic(capsys, "Z", k, k + 3)
        assert doc["value"] == {"coeff": str(coeff), "pi_power": 2 * k + 6}
        with mpmath.workdps(30):
            want = float(mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.pi ** (2 * k + 6))
        assert doc["float"] == pytest.approx(want, rel=1e-12)

    def test_harmonic_past_the_float_range_of_pi_powers(self, capsys):
        # Z_1(320) = zeta(640)/320, with zeta(640) = 1 + 2^-640 + 3^-640 + ...
        text, doc = self.harmonic(capsys, "Z", 1, 320)
        assert text.endswith("≈ 0.003125")
        assert doc["float"] == 1 / 320 and doc["value"]["pi_power"] == 640
        coeff = Fraction(doc["value"]["coeff"])
        with mpmath.workdps(300):
            excess = mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.pi ** 640 * 320 - 1
            assert abs(excess * 2 ** 640 - 1) < 1e-100

    def test_harmonic_at_k_2000_is_quick(self, capsys):
        _, doc = self.harmonic(capsys, "H", 2000, 2003)
        assert doc == {"value": str(self.h_plus_3(2000)), "float": float(self.h_plus_3(2000))}
        # Z_2000(2003) is about 10^440, past the float range
        text, doc = self.harmonic(capsys, "Z", 2000, 2003)
        assert doc == {"value": {"coeff": str(self.z_plus_3(2000)), "pi_power": 4006}, "float": None}
        assert text.endswith("≈ 9.44697e+439")

    def test_sep_ratio(self, capsys):
        code, out, _ = run(capsys, "sep-ratio", "3")
        assert code == 0
        assert "5/1776" in out

    def test_poisson(self, capsys):
        code, out, _ = run(capsys, "poisson", "26", "--kmax", "6")
        assert code == 0
        assert "2.48" in out


class TestOracle:
    def test_lattice(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "lattice", "--m", "1,3", "--N", "50"
        )
        assert code == 0
        assert "0.0151882" in out  # normalized value alongside the raw count

    def test_count(self, capsys):
        code, out, _ = run(capsys, "oracle", "count", "1", "2", "--N", "200")
        assert code == 0

    def test_lattice_sum_past_the_int_digit_limit(self, capsys):
        # the normalized sum's denominator 4^12003 has over 4,300 digits, past
        # what str() of an int takes by default
        m = "4000,4000,4000"
        code, out, _ = run(capsys, "--json", "oracle", "lattice", "--m", m, "--N", "4")
        assert code == 0
        payload = json.loads(out)
        want = lattice_oracle.lattice_sum((4000,) * 3, 4)
        assert int(Decimal(payload["sum"])) == want
        num, den = (int(Decimal(x)) for x in payload["normalized"].split("/"))
        assert den == 4 ** 12003 // gcd(want, 4 ** 12003)
        assert Fraction(num, den) == lattice_oracle.normalized_lattice_sum((4000,) * 3, 4)


    def test_normalized_sum_past_the_float_range(self, capsys):
        # the normalized sum is near 10^-6022, where float() gives 0.0: JSON
        # has no float for it, and the text reads its digits from the exact sum
        m = "4000,4000,4000"
        code, out, _ = run(capsys, "--json", "oracle", "lattice", "--m", m, "--N", "4")
        assert code == 0
        assert json.loads(out)["normalized_float"] is None
        code, out, _ = run(capsys, "oracle", "lattice", "--m", m, "--N", "4")
        assert code == 0
        norm = lattice_oracle.normalized_lattice_sum((4000,) * 3, 4)
        with localcontext() as ctx:
            ctx.prec = 30
            want = Decimal(norm.numerator) / Decimal(norm.denominator)
        assert f"normalized = {want:.6g}\n" in out
        assert "e-6022" in out


class TestBoundary:
    """Bad input exits 1 with a one-line message instead of a traceback or a
    silently wrong number."""

    def assert_rejected(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_oracle_count_rejects_nonpositive_N(self, capsys):
        for N in ("0", "-3"):
            self.assert_rejected(capsys, "oracle", "count", "1", "2", "--N", N)

    def test_oracle_lattice_rejects_nonpositive_N(self, capsys):
        for N in ("0", "-3"):
            self.assert_rejected(capsys, "oracle", "lattice", "--m", "1", "--N", N)

    def test_digits_below_one_is_rejected(self, capsys):
        for digits in ("0", "-3"):
            err = self.assert_rejected(capsys, "--digits", digits, "poisson", "3")
            assert "--digits" in err

    def test_oracle_lattice_rejects_bad_exponents_and_parity(self, capsys):
        for args in (
            ("--m=-1",),
            ("--m", "1,-3"),
            ("--m", ""),
            ("--m", "1", "--parity", "5"),
            ("--m", "1", "--parity=-1"),
        ):
            self.assert_rejected(capsys, "oracle", "lattice", *args, "--N", "10")

    # (0, 3) has only the edgeless graph, so its volume is 0 and every ratio
    # over it divides by zero
    def test_volume_rejects_unstable_and_zero_three(self, capsys):
        for gn in (("0", "2"), ("1", "0"), ("0", "3")):
            self.assert_rejected(capsys, "volume", *gn)

    def test_sv_rejects_zero_three(self, capsys):
        self.assert_rejected(capsys, "sv", "0", "3", "--method", "both")

    # the boundary route says what the graph-sum route says
    @pytest.mark.parametrize("gn", [("0", "2"), ("1", "0"), ("0", "3")])
    def test_sv_boundary_rejects_unstable_and_zero_three(self, capsys, gn):
        err = self.assert_rejected(capsys, "sv", *gn, "--method", "boundary")
        assert err == self.assert_rejected(capsys, "sv", *gn)

    def test_lyapunov_rejects_zero_three(self, capsys):
        self.assert_rejected(capsys, "lyapunov", "0", "3")

    def test_oracle_count_rejects_zero_three(self, capsys):
        self.assert_rejected(capsys, "oracle", "count", "0", "3", "--N", "10")

    def test_pk_rejects_zero_three(self, capsys):
        self.assert_rejected(capsys, "pk", "0", "3")

    # Q(1, -1) is empty: nothing at (1, 1) has a volume or a statistic, even
    # though the boundary route uses 2 pi^2 / 3 as the volume of a (1, 1) piece
    def assert_empty_stratum(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Q(1, -1)" in err and "empty" in err

    def test_volume_rejects_empty_stratum(self, capsys):
        self.assert_empty_stratum(capsys, "volume", "1", "1")

    def test_pk_rejects_empty_stratum(self, capsys):
        self.assert_empty_stratum(capsys, "pk", "1", "1")

    def test_sv_rejects_empty_stratum(self, capsys):
        for method in ("graphsum", "both"):
            self.assert_empty_stratum(capsys, "sv", "1", "1", "--method", method)

    def test_lyapunov_rejects_empty_stratum(self, capsys):
        self.assert_empty_stratum(capsys, "lyapunov", "1", "1")

    def test_oracle_count_rejects_empty_stratum(self, capsys):
        self.assert_empty_stratum(capsys, "oracle", "count", "1", "1", "--N", "10")

    def test_empty_stratum_keeps_catalog_and_boundary_pieces(self, capsys):
        code, out, _ = run(capsys, "graphs", "1", "1")
        assert code == 0 and "(1, 1): 2" in out
        code, out, _ = run(capsys, "sv", "1", "2", "--method", "both")
        assert code == 0 and "MATCH" in out.splitlines()

    def test_harmonic_rejects_negative_arguments(self, capsys):
        for kind in ("H", "Z"):
            for k, m in (("-1", "2"), ("2", "-1")):
                self.assert_rejected(capsys, "harmonic", kind, k, m)

    def test_coeffs_rejects_negative_order(self, capsys):
        self.assert_rejected(capsys, "coeffs", "-1")

    def test_poisson_rejects_genus_below_two(self, capsys):
        for g in ("0", "1"):
            assert "g >= 2" in self.assert_rejected(capsys, "poisson", g)

    def test_poisson_rejects_nonpositive_kmax(self, capsys):
        for kmax in ("0", "-2"):
            self.assert_rejected(capsys, "poisson", "3", "--kmax", kmax)

    def test_expect_rejects_vectors_of_wrong_length(self, capsys, tmp_path):
        doc = {"vertices": [{"genus": 1}], "edges": [[0, 0]], "legs": []}
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        graph = ("expect", "--graph", str(path))
        self.assert_rejected(capsys, *graph, "--num", "1", "--den", "0,1,4")
        self.assert_rejected(capsys, *graph, "--num", "1,0", "--den", "0")
        self.assert_rejected(
            capsys, *graph, "--num", "1", "--den", "0", "--heights", "1,2"
        )
        for heights in ("--heights", "0"), ("--heights=-1",):
            self.assert_rejected(capsys, *graph, "--num", "1", "--den", "0", *heights)

    def test_expect_on_graph_without_edges_is_indeterminate(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": [{"genus": 2}], "edges": [], "legs": []}))
        for json_flag in ((), ("--json",)):
            code, out, err = run(
                capsys, *json_flag, "expect", "--graph", str(path), "--num", "", "--den", ""
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    def test_expect_checks_lengths_before_the_missing_edge(self, capsys, tmp_path):
        # a wrong-length vector is bad input even where the ratio is 0/0
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": [{"genus": 2}], "edges": [], "legs": []}))
        graph = ("expect", "--graph", str(path))
        self.assert_rejected(capsys, *graph, "--num", "1", "--den", "")
        self.assert_rejected(capsys, *graph, "--num", "", "--den", "", "--heights", "1")

    @pytest.mark.parametrize("num,den", [("1,0", "0,1"), ("0,0", "9,9")])
    def test_expect_indeterminate_series_exit_two(self, capsys, tmp_path, num, den):
        # a sum of convergent and divergent series, and a negative exponent
        # after the shift
        path = tmp_path / "graph.json"
        doc = {"vertices": [{"genus": 0}], "edges": [[0, 0], [0, 0]], "legs": []}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "expect", "--graph", str(path), "--num", num, "--den", den)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_freq_rejects_malformed_graph_files(self, capsys, tmp_path):
        path = tmp_path / "mc.json"
        g0, g1 = {"genus": 0}, {"genus": 1}
        for doc in (
            {"vertices": [g1], "edges": [[0, 0]]},  # no "legs"
            {"vertices": [g1], "edges": [[0, 3]], "legs": []},  # no vertex 3
            {"vertices": [g1, g1], "edges": [], "legs": []},  # disconnected
            {"vertices": [g0], "edges": [[0, 0]], "legs": []},  # unstable vertex
            {"vertices": [g1], "edges": [], "legs": [{"vertex": 0, "label": 2}]},
            {"vertices": [{"genus": -1}], "edges": [[0, 0]], "legs": []},
            *(
                {"vertices": [g1], "edges": [[0, 0]], "legs": [], "weights": w}
                for w in (["a"], [1.5], 2, [True], [0])
            ),
        ):
            path.write_text(json.dumps(doc))
            self.assert_rejected(capsys, "freq", "--multicurve", str(path))

    # a directory is no graph file: one error line, not an IsADirectoryError
    def test_freq_rejects_directory(self, capsys, tmp_path):
        self.assert_rejected(capsys, "freq", "--multicurve", str(tmp_path))

    def test_expect_rejects_directory(self, capsys, tmp_path):
        self.assert_rejected(capsys, "expect", "--graph", str(tmp_path), "--num", "1", "--den", "1")

    def test_freq_rejects_zero_three(self, capsys, tmp_path):
        # the one-vertex (0, 3) graph is stable but has no edge, so there is
        # no multicurve and the frequency's normalization is 0
        path = tmp_path / "mc.json"
        legs = [{"vertex": 0, "label": l} for l in (1, 2, 3)]
        path.write_text(json.dumps({"vertices": [{"genus": 0}], "edges": [], "legs": legs}))
        for json_flag in ((), ("--json",)):
            err = self.assert_rejected(capsys, *json_flag, "freq", "--multicurve", str(path))
            assert "(0, 3)" in err

    # an edgeless graph of a stable (g, n) other than (0, 3) carries no
    # multicurve either
    @pytest.mark.parametrize("genus,legs,gn", [(2, 0, "(2, 0)"), (0, 4, "(0, 4)")])
    def test_freq_rejects_graph_without_edges(self, capsys, tmp_path, genus, legs, gn):
        path = tmp_path / "mc.json"
        doc = {"vertices": [{"genus": genus}], "edges": [],
               "legs": [{"vertex": 0, "label": l} for l in range(1, legs + 1)]}
        path.write_text(json.dumps(doc))
        for json_flag in ((), ("--json",)):
            err = self.assert_rejected(capsys, *json_flag, "freq", "--multicurve", str(path))
            assert gn in err


class TestGraphsAndChecks:
    def test_graphs_listing(self, capsys):
        code, out, _ = run(capsys, "graphs", "2", "0")
        assert code == 0
        assert out.count("\n") >= 7

    def test_check_all(self, capsys):
        code, out, _ = run(capsys, "check-all")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


def test_layers_load_where_they_are_used():
    """``import mvq`` loads no layer; ``import mvq.cli`` loads the layers that
    bench/tracer.py wraps, and the statistics layers only with their commands."""
    code = (
        "import json, sys\n"
        "def loaded():\n    return sorted(m for m in sys.modules if m.startswith('mvq.'))\n"
        "import mvq\nbare = loaded()\nimport mvq.cli\nprint(json.dumps([bare, loaded()]))\n"
        "mvq.cli.main(['--json', 'pk', '2', '0'])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    modules, payload = out.stdout.splitlines()
    bare, with_cli = json.loads(modules)
    assert bare == []
    traced = ("correlators", "stable_graphs", "volume_engine", "siegel_veech", "lattice_oracle")
    assert {f"mvq.{m}" for m in ("exact_arith",) + traced} <= set(with_cli)
    assert not {"mvq.asymptotics", "mvq.multicurve_stats"} & set(with_cli)
    assert json.loads(payload) == {str(k): str(v) for k, v in cylinder_distribution(2, 0).items()}
