"""Benchmark of cold ``mvq`` CLI requests; see ``bench/README.md``.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout holding ``src/mvq``.  Human
readable lines go first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  The full record of the run, with its metadata, samples and
failures, is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

from harness import RUN_BUDGET_S, Checkout, measure, run_metadata
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run_workload(checkout: Checkout, spec: dict, name: str, args) -> dict:
    started = time.perf_counter()
    meta = run_metadata(checkout, name, args.seed, args.seconds, args.trace)
    res = measure(
        checkout, WORKLOADS[name], args.seed, args.seconds, args.trace, started + RUN_BUDGET_S
    )
    meta["loadavg_after"] = list(os.getloadavg())
    meta["elapsed_s"] = time.perf_counter() - started
    res["meta"] = meta

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {name}: {why[name]}")
    print("meta " + json.dumps(meta, sort_keys=True))
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        stats = res["summary"].get(m["name"])
        value = stats["median"] if stats else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if stats:
            spread = f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})"
        else:
            spread = "(not measured)"
        print(f"  {m['name']:45s} {value:14.6g} {m['unit']:6s}  {spread}")
    print(
        f"  requests attempted={res['attempted']} failed={res['failed']} "
        f"fail_rate={res['fail_rate']:.4g} rounds={len(res['rounds'])}"
    )
    for failure in res["failures"]:
        print(f"  FAILED {failure['argv']}: {'; '.join(failure['problems'])}")
    if not res["counts_repeat"]:
        print("  WARNING: per-layer counts differ between rounds")

    out_dir = checkout.work / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{name}-seed{args.seed}-trace{int(args.trace)}.json"
    out_file.write_text(json.dumps(res, indent=1, sort_keys=True, default=str), encoding="utf-8")
    return {
        "correct": res["failed"] == 0 and res["counts_repeat"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    try:
        checkout = Checkout(ROOT)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # on SIGTERM, exit through the cleanup that kills and reaps the running
    # request
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(checkout, spec, name, args) for name in names}
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
