"""Tests of the benchmark itself: self-time arithmetic, the exact-output gate
and the repeatability of per-layer counts.  They use small requests that take
well under a second each."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from harness import COUNT_METRICS, ENTRY, Checkout, measure
from tracer import Span, self_times
from workloads import WORKLOADS, Request, Workload, golden_volume, check_output, load_expected

ROOT = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent, request=0):
    return Span(name, start, end, parent, request)


def test_self_time_of_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),  # 0
        _span("a", 1.0, 4.0, 0),  # 1
        _span("b", 5.0, 9.0, 0),  # 2
        _span("b.child", 6.0, 8.0, 2),  # 3
        _span("a.child", 2.0, 2.5, 1),  # 4
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 2.0, 2.0, 0.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span("parent", 0.0, 10.0, -1),
        _span("x", 2.0, 5.0, 0),
        _span("y", 4.0, 7.0, 0),  # overlaps x: union of x and y is 2..7
        _span("z", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_keeps_requests_apart():
    # both requests use local indices; request 1's child must not be charged
    # to request 0's root
    spans = [
        _span("main", 0.0, 4.0, -1, request=0),
        _span("main", 0.0, 6.0, -1, request=1),
        _span("op", 1.0, 2.0, 0, request=1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 5.0, 1.0])


def _corrupt(payload):
    coeff = payload["total"]["coeff"]
    num, den = coeff.split("/")
    return dict(payload, total=dict(payload["total"], coeff=f"{int(num) + 1}/{den}"))


def test_corrupted_expected_payload_is_a_failure_of_the_gate():
    req = WORKLOADS["catalog"].requests[0]
    want = load_expected(req)
    stdout = json.dumps(want)
    assert check_output(req, want, stdout) == []
    assert check_output(req, _corrupt(want), stdout)
    # a wrong answer that matches a corrupted recording still misses the golden value
    assert check_output(req, _corrupt(want), json.dumps(_corrupt(want)))


def test_float_fields_compare_within_tolerance_only():
    req = WORKLOADS["oracle"].requests[1]
    want = load_expected(req)
    near = dict(want, total_rel_error=want["total_rel_error"] * (1 + 1e-14))
    far = dict(want, total_rel_error=want["total_rel_error"] * 1.001)
    assert check_output(req, want, json.dumps(near)) == []
    assert check_output(req, want, json.dumps(far))


@pytest.fixture(scope="module")
def checkout():
    return Checkout(ROOT)


def _recorded(checkout, tmp_path, argv, name):
    """Record the current payload of ``mvq --json argv`` as an expected file."""
    out = checkout.spawn(["-c", ENTRY, "--json", *argv], 120)
    assert out.returncode == 0, out.stderr
    path = tmp_path / name
    path.write_text(out.stdout)
    return str(path)


def test_corrupted_expected_payload_raises_fail_rate(checkout, tmp_path):
    good = _recorded(checkout, tmp_path, ("volume", "2", "0"), "good.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_corrupt(json.loads(Path(good).read_text()))))
    check = (golden_volume("total", (2, 0)),)
    workload = Workload(
        "tiny",
        (
            Request(("volume", "2", "0"), good, check),
            Request(("volume", "2", "0", "--per-cylinder"), str(bad)),
        ),
    )
    res = measure(checkout, workload, 0, 0, False, time.perf_counter() + 120)
    assert res["attempted"] == 2
    assert res["failed"] == 1
    assert res["fail_rate"] == 0.5
    assert res["summary"]["success_rate"]["median"] == 0.5


def test_per_layer_counts_repeat_across_traced_runs(checkout, tmp_path):
    requests = []
    for i, argv in enumerate(
        (("sv", "2", "1", "--method", "both"), ("oracle", "count", "2", "0", "--N", "40"))
    ):
        requests.append(Request(argv, _recorded(checkout, tmp_path, argv, f"{i}.json")))
    workload = Workload("tiny", tuple(requests))
    runs = [
        measure(checkout, workload, seed, 0, True, time.perf_counter() + 120)
        for seed in (1, 2)
    ]
    for res in runs:
        assert res["failed"] == 0, res["failures"]
    counts = [{c: res["summary"][c]["median"] for c in COUNT_METRICS} for res in runs]
    assert counts[0] == counts[1]
    for name in (
        "stable_graphs.catalog_graphs",
        "stable_graphs.canonicalize_calls",
        "correlators.cache_keys",
        "volume_engine.poly_terms",
        "volume_engine.op_Z_calls",
        "siegel_veech.boundary_volumes",
        "lattice_oracle.lattice_sum_calls",
    ):
        assert counts[0][name] > 0, name
    layers = runs[0]["summary"]
    assert layers["volume_engine.op_Z_s"]["median"] > 0
    assert layers["trace.unattributed_s"]["median"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
