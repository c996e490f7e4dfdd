"""Alternating parent/change pairs of ``bench/run.py`` for one workload.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload siegel_veech \
        --pairs 10 --seed 31 --seconds 30

PARENT and CHANGE are two source checkouts, each with its own ``bench/`` and
``src/mvq``.  Any ``__pycache__`` under either ``src/`` tree is deleted first,
and ``bench/run.py`` runs with ``PYTHONDONTWRITEBYTECODE=1``, so that every
request compiles the modules it imports, as in a fresh checkout.  Pair i
runs seed SEED + i on both sides, the parent first when i is even and the
change first when it is odd.  Every end-to-end metric that the parent's
``BENCHMARK.json`` declares is printed per pair, then its medians, the
parent's quartiles and the number of pairs that the change wins.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its final JSON line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(vals: List[float]):
    return statistics.quantiles(vals, n=4)[::2] if len(vals) > 1 else (vals[0], vals[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in sides.values():
        for cache in (tree / "src").rglob("__pycache__"):
            shutil.rmtree(cache)
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]

    values: Dict[str, Dict[str, List[float]]] = {side: {m["name"]: [] for m in metrics}
                                                 for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(sides[side], args.workload, seed, args.seconds) for side in order}
        cells = []
        for m in metrics:
            pair = [runs[side]["metrics"][m["name"]]["value"] for side in sides]
            for side, v in zip(sides, pair):
                values[side][m["name"]].append(v)
            cells.append("%s %.4g/%.4g" % (m["name"], *pair))
        ok = all(r["correct"] and not r["failed"] for r in runs.values())
        print("pair %d seed %d %s-first: %s correct=%s"
              % (i + 1, seed, order[0], "  ".join(cells), ok), flush=True)

    print("%-14s %10s %10s %10s %10s %8s %6s" % (
        "metric", "parent", "change", "parent q1", "parent q3", "delta", "wins"))
    for m in metrics:
        old, new = values["parent"][m["name"]], values["change"][m["name"]]
        lower = m["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        med_old, med_new = statistics.median(old), statistics.median(new)
        q1, q3 = quartiles(old)
        rel = "%+.1f%%" % (100 * (med_new - med_old) / med_old) if med_old else "n/a"
        print("%-14s %10.4g %10.4g %10.4g %10.4g %8s %3d/%d" % (
            m["name"], med_old, med_new, q1, q3, rel, wins, args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
