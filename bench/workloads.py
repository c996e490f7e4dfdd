"""The benchmark's workloads and the exact-output gate for their requests.

Every request is one cold ``mvq --json`` invocation with fixed ``(g, n, N)``
from the paper's tables; ``BENCHMARK.json`` says why each workload is there.
Its payload must equal the one recorded at the seed commit (``expected/``);
floats may differ by ``FLOAT_TOL`` at most.  Some requests are also checked
against the golden values of the acceptance suite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# relative tolerance on float fields (rel_error, total_rel_error): they are
# computed from exact fractions, so only a change of float formatting or of
# the order of the final float operations may move them
FLOAT_TOL = 1e-12

# golden volumes of the acceptance suite: (g, n) -> {"coeff", "pi_power"}
GOLDEN_VOLUME = {
    (2, 0): {"coeff": "1/15", "pi_power": 6},
    (3, 0): {"coeff": "115/33264", "pi_power": 12},
    (4, 0): {"coeff": "2106241/11548293120", "pi_power": 18},
}

Check = Callable[[Dict[str, Any]], List[str]]


class Request(NamedTuple):
    argv: Tuple[str, ...]  # arguments of ``mvq``
    expected: str  # recorded payload: a file under ``expected/``, or an absolute path
    checks: Tuple[Check, ...] = ()


class Workload(NamedTuple):
    name: str
    requests: Tuple[Request, ...]


def golden_volume(key: str, gn: Tuple[int, int]) -> Check:
    def check(payload: Dict[str, Any]) -> List[str]:
        got = payload.get(key)
        want = GOLDEN_VOLUME[gn]
        return [] if got == want else [f"{key} {got} != golden Vol{gn} {want}"]

    return check


def _sv_match(payload: Dict[str, Any]) -> List[str]:
    return [] if payload.get("match") is True else ["graph-sum and boundary routes disagree"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "catalog",
            (
                Request(("volume", "4", "0"), "volume_4_0.json", (golden_volume("total", (4, 0)),)),
                Request(
                    ("volume", "4", "1", "--per-cylinder"),
                    "volume_4_1_per_cylinder.json",
                ),
            ),
        ),
        Workload(
            "siegel_veech",
            (
                Request(("sv", "3", "2", "--method", "both"), "sv_3_2_both.json", (_sv_match,)),
                Request(("sv", "2", "4", "--method", "both"), "sv_2_4_both.json", (_sv_match,)),
            ),
        ),
        Workload(
            "oracle",
            (
                Request(
                    ("oracle", "count", "3", "0", "--N", "400"),
                    "oracle_count_3_0_N400.json",
                    (golden_volume("total_exact", (3, 0)),),
                ),
                Request(
                    ("oracle", "count", "2", "0", "--N", "4000"),
                    "oracle_count_2_0_N4000.json",
                    (golden_volume("total_exact", (2, 0)),),
                ),
            ),
        ),
    )
}


def load_expected(request: Request) -> Any:
    return json.loads((EXPECTED_DIR / request.expected).read_text(encoding="utf-8"))


def diff_payload(want: Any, got: Any, path: str = "$") -> List[str]:
    """Differences between two payloads: exact equality everywhere except
    floats, which may differ by the relative tolerance ``FLOAT_TOL``."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(want, got, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(want) is not type(got):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in sorted(want) for d in diff_payload(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [
            d
            for i, (a, b) in enumerate(zip(want, got))
            for d in diff_payload(a, b, f"{path}[{i}]")
        ]
    return [] if want == got else [f"{path}: {got!r} != {want!r}"]


def check_output(request: Request, want: Any, stdout: str) -> List[str]:
    """Problems with one request's standard output; empty when it is correct."""
    try:
        got = json.loads(stdout)
    except ValueError:
        return ["output is not one JSON payload"]
    problems = diff_payload(want, got)
    for check in request.checks:
        problems += check(got)
    return problems
