"""Closed-loop runner for cold ``mvq`` CLI requests.

One client sends one request at a time; each request is a fresh interpreter
that imports ``mvq`` from the checkout's ``src`` and answers one command, as
the ``mvq`` entry point does.  A round sends every request of a workload
once, in an order drawn from the seed.  Rounds repeat while one more round
still fits in ``--seconds``; the first round always runs, whole.

With ``trace`` off the run reports the end-to-end metrics.  With ``trace`` on
every request of a round runs twice, untraced and then under ``tracer.py``,
and the run reports the per-layer metrics of the traced runs plus the
tracing overhead.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

import tracer
from workloads import Request, Workload, check_output, load_expected

BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"
ENTRY = "import sys; from mvq.cli import main; sys.exit(main())"

SETUP_SPAWNS = 7  # fresh ``import mvq.cli`` processes per run for setup_s
RUN_BUDGET_S = 170.0  # a run never starts work it cannot finish by then
REQUEST_TIMEOUT_S = 150.0

# per-layer metric -> span whose self time it sums
LAYER_TIMES = {
    "stable_graphs.enumerate_s": "stable_graphs.enumerate_graphs",
    "stable_graphs.aut_order_s": "stable_graphs.aut_order",
    "correlators.correlator_s": "correlators.correlator",
    "volume_engine.graph_polynomial_s": "volume_engine.graph_polynomial",
    "volume_engine.raw_graph_polynomial_s": "volume_engine.raw_graph_polynomial",
    "volume_engine.op_Z_s": "volume_engine.op_Z",
    "volume_engine.masur_veech_volume_s": "volume_engine.masur_veech_volume",
    "siegel_veech.c_area_graphsum_s": "siegel_veech.c_area_graphsum",
    "siegel_veech.partial_gamma_s": "siegel_veech.partial_gamma",
    "siegel_veech.c_area_boundary_s": "siegel_veech.c_area_boundary",
    "lattice_oracle.lattice_sum_s": "lattice_oracle.lattice_sum",
    "lattice_oracle.square_tiled_count_s": "lattice_oracle.square_tiled_count",
    "lattice_oracle.volume_convergence_report_s": "lattice_oracle.volume_convergence_report",
    "cli.main_s": tracer.MAIN,
}
# per-layer metric -> span whose calls it counts
LAYER_CALLS = {
    "stable_graphs.enumerate_calls": "stable_graphs.enumerate_graphs",
    "correlators.correlator_calls": "correlators.correlator",
    "volume_engine.op_Z_calls": "volume_engine.op_Z",
    "lattice_oracle.lattice_sum_calls": "lattice_oracle.lattice_sum",
}
# counts that must repeat exactly from round to round and run to run
COUNT_METRICS = (
    *LAYER_CALLS,
    "stable_graphs.catalog_graphs",
    "stable_graphs.canonicalize_calls",
    "correlators.cache_keys",
    "volume_engine.poly_terms",
    "siegel_veech.boundary_volumes",
)

class Outcome(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str


class RequestResult(NamedTuple):
    request: Request
    outcome: Outcome
    problems: List[str]
    spans_file: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.problems


class Checkout:
    """A source tree holding ``src/mvq`` and this benchmark."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        if not (self.src / "mvq" / "cli.py").is_file():
            raise FileNotFoundError(f"no mvq sources under {self.src}")
        self.work = root / ".bench_work"
        self.work.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def spawn(self, argv: Sequence[str], timeout: float) -> Outcome:
        """Run one child to completion or until ``timeout`` and reap it with
        ``wait4``, which gives that child's own peak RSS and CPU time."""
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(
            dir=self.work
        ) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                timed_out = not poller.poll(max(timeout, 0.0) * 1000)
                if timed_out:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Outcome(
                wall,
                usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                proc.returncode,
                timed_out,
                out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
            )

    def run_request(
        self,
        request: Request,
        want: Any,
        timeout: float,
        spans_file: Optional[Path] = None,
        request_id: int = 0,
    ) -> RequestResult:
        """Send one request, untraced or, given ``spans_file``, traced, and
        check its output against ``want``."""
        argv = ("--json", *request.argv)
        if spans_file is None:
            cmd = ["-c", ENTRY, *argv]
        else:
            cmd = [str(TRACER), str(spans_file), str(request_id), "--", *argv]
        if timeout <= 0:
            unsent = Outcome(0.0, 0.0, 0.0, -1, True, "", "")
            return RequestResult(request, unsent, ["not started: run budget spent"])
        out = self.spawn(cmd, timeout)
        if out.timed_out:
            problems = [f"timed out after {timeout:.0f} s"]
        elif out.returncode != 0:
            problems = [f"exit code {out.returncode}: {out.stderr.strip()[-300:]}"]
        else:
            problems = check_output(request, want, out.stdout)
        return RequestResult(request, out, problems, spans_file)


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    vals = list(values)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def layer_metrics(results: Sequence[RequestResult]) -> Dict[str, float]:
    """Per-layer metrics of one traced round, from its requests' span files."""
    spans: List[tracer.Span] = []
    counters: Dict[str, int] = {}
    for res in results:
        req_spans, req_counters = tracer.read_spans(str(res.spans_file))
        spans += req_spans
        for k, v in req_counters.items():
            counters[k] = counters.get(k, 0) + v
    selfs = tracer.self_times(spans)
    self_by_name: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for s, t in zip(spans, selfs):
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1

    m: Dict[str, float] = {k: self_by_name.get(v, 0.0) for k, v in LAYER_TIMES.items()}
    m.update({k: calls.get(v, 0) for k, v in LAYER_CALLS.items()})
    # enumerate_graphs is cached: count each (g, n) catalog once per request
    catalogs = {
        (s.request, s.args): s.size
        for s in spans
        if s.name == "stable_graphs.enumerate_graphs"
    }
    m["stable_graphs.catalog_graphs"] = sum(catalogs.values())
    m["stable_graphs.canonicalize_calls"] = counters.get("stable_graphs.canonicalize", 0)
    m["correlators.cache_keys"] = counters.get("cache_keys", 0)
    m["volume_engine.poly_terms"] = sum(
        s.size for s in spans if s.name == "volume_engine.raw_graph_polynomial"
    )
    m["siegel_veech.boundary_volumes"] = len(_boundary_volumes(spans))
    main_total = sum(s.end - s.start for s in spans if s.name == tracer.MAIN)
    traced_wall = sum(r.outcome.wall_s for r in results)
    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = traced_wall - main_total
    return m


def _boundary_volumes(spans: Sequence[tracer.Span]) -> set:
    """Distinct (g, n) volumes requested below a c_area_boundary span."""
    first: Dict[int, int] = {}
    for i, s in enumerate(spans):
        first.setdefault(s.request, i)
    found = set()
    for s in spans:
        if s.name not in tracer.VOLUME_SPANS:
            continue
        parent = s.parent
        while parent >= 0:
            p = spans[first[s.request] + parent]
            if p.name == "siegel_veech.c_area_boundary":
                gn = s.args if len(s.args) == 2 else (0, *s.args)
                found.add((s.request, gn))
                break
            parent = p.parent
    return found


def run_metadata(
    checkout: Checkout, workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted(checkout.src.rglob("*.py")):
        digest.update(str(path.relative_to(checkout.src)).encode() + b"\0" + path.read_bytes())
    backend = "gmpy2" if importlib.util.find_spec("gmpy2") else "fractions.Fraction"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "rational_backend": backend,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _git_commit(checkout.root),
        "src_sha256": digest.hexdigest(),
        "loadavg_before": list(os.getloadavg()),
    }


def _git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(
    checkout: Checkout,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    deadline: float,
) -> Dict[str, Any]:
    """One run of ``workload``; returns metrics, samples and request counts."""
    rng = random.Random(seed)
    wanted = {r: load_expected(r) for r in workload.requests}

    def remaining() -> float:
        return deadline - time.perf_counter()

    # compile and cache the sources once, untimed, as an installed package has
    checkout.spawn(["-c", "import mvq.cli"], min(REQUEST_TIMEOUT_S, remaining()))
    setup = []
    if not trace:
        for _ in range(SETUP_SPAWNS):
            out = checkout.spawn(["-c", "import mvq.cli"], min(REQUEST_TIMEOUT_S, remaining()))
            if out.returncode == 0:
                setup.append(out.wall_s)

    results: List[RequestResult] = []
    rounds: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        order = rng.sample(workload.requests, len(workload.requests))
        plain: List[RequestResult] = []
        traced: List[RequestResult] = []
        for i, req in enumerate(order):
            timeout = min(REQUEST_TIMEOUT_S, remaining())
            plain.append(checkout.run_request(req, wanted[req], timeout))
            if trace:
                spans_file = checkout.work / f"spans-{os.getpid()}-{len(rounds)}-{i}.bin"
                timeout = min(REQUEST_TIMEOUT_S, remaining())
                traced.append(checkout.run_request(req, wanted[req], timeout, spans_file, i))
        results += plain + traced
        rnd: Dict[str, Any] = {
            "requests": [
                {
                    "argv": " ".join(r.request.argv),
                    "traced": r.spans_file is not None,
                    "wall_s": r.outcome.wall_s,
                    "rss_mb": r.outcome.rss_mb,
                }
                for r in plain + traced
            ],
            "wall_s": sum(r.outcome.wall_s for r in plain),
            "cpu_s": sum(r.outcome.cpu_s for r in plain),
        }
        if trace and all(r.ok for r in traced):
            rnd["layers"] = layer_metrics(traced)
            rnd["layers"]["cli.cpu_s"] = rnd["cpu_s"]
            rnd["layers"]["trace.overhead_s"] = rnd["layers"]["trace.wall_s"] - rnd["wall_s"]
        for r in traced:
            r.spans_file.unlink(missing_ok=True)
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        if elapsed + per_round > seconds or per_round * 1.2 > remaining():
            break

    failed = [r for r in results if not r.ok]
    summary: Dict[str, Dict[str, Any]] = {}
    if trace:
        layer_rounds = [r["layers"] for r in rounds if "layers" in r]
        for name in layer_rounds[0] if layer_rounds else ():
            summary[name] = quartiles([lr[name] for lr in layer_rounds])
        counts_repeat = all(
            lr[c] == layer_rounds[0][c] for lr in layer_rounds for c in COUNT_METRICS
        )
    else:
        summary["wall_s"] = quartiles([r["wall_s"] for r in rounds])
        if setup:
            summary["setup_s"] = quartiles(setup)
        summary["peak_rss_mb"] = quartiles([max(r.outcome.rss_mb for r in results)])
        summary["success_rate"] = quartiles([1 - len(failed) / len(results)])
        counts_repeat = True
    return {
        "summary": summary,
        "rounds": rounds,
        "setup_s": setup,
        "attempted": len(results),
        "failed": len(failed),
        "fail_rate": len(failed) / len(results),
        "failures": [
            {"argv": " ".join(r.request.argv), "problems": r.problems[:5]} for r in failed
        ],
        "counts_repeat": counts_repeat,
    }
