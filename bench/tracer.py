"""Span recording for one traced ``mvq`` request, and the self-time arithmetic.

Run as a script, this file executes one CLI request the way the ``mvq``
entry point does, after wrapping the public functions of each layer at every
module attribute that refers to them (``siegel_veech`` imports ``op_Z`` by
name, so its own ``op_Z`` attribute is wrapped too)::

    python3 bench/tracer.py SPANS_FILE REQUEST_ID -- --json volume 2 0

The package itself is not changed.  Spans are kept in compact arrays while
the request runs and written to ``SPANS_FILE`` when it ends: one JSON header
line, then the raw columns (see ``COLUMNS``).  ``read_spans`` loads them and
``self_times`` turns them into per-name self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

# layer module -> public functions that get a span
TARGETS: Dict[str, Tuple[str, ...]] = {
    "stable_graphs": ("enumerate_graphs", "aut_order"),
    "correlators": ("correlator",),
    "volume_engine": (
        "masur_veech_volume",
        "genus0_volume",
        "graph_polynomial",
        "raw_graph_polynomial",
        "op_Z",
    ),
    "siegel_veech": ("c_area_graphsum", "c_area_boundary", "partial_gamma"),
    "lattice_oracle": (
        "volume_convergence_report",
        "square_tiled_count",
        "lattice_sum",
    ),
}
# spans that also keep their integer arguments, to count distinct catalogs
# and volumes
ARG_TARGETS = {
    "stable_graphs.enumerate_graphs",
    "volume_engine.masur_veech_volume",
    "volume_engine.genus0_volume",
}
VOLUME_SPANS = ("volume_engine.masur_veech_volume", "volume_engine.genus0_volume")
# spans that also keep the size of their result (graphs or polynomial terms)
SIZE_TARGETS = {"stable_graphs.enumerate_graphs", "volume_engine.raw_graph_polynomial"}
# private helpers that are only counted, never timed: candidates canonicalized
COUNT_TARGETS = {"stable_graphs": ("_canonicalize",)}

MAIN = "cli.main"
# column name -> array typecode, in file order
COLUMNS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"), ("size", "q"))


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    request: int
    size: int = -1  # result size for SIZE_TARGETS, -1 otherwise
    args: Tuple[int, ...] = ()


class Tracer:
    """Records nested spans of the wrapped calls of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.args: Dict[int, List[int]] = {}
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        keep_args = name in ARG_TARGETS
        keep_size = name in SIZE_TARGETS
        cols = self.cols
        c_name, c_parent, c_start = cols["name"], cols["parent"], cols["start"]
        c_end, c_size = cols["end"], cols["size"]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(c_name)
            c_name.append(name_id)
            c_parent.append(stack[-1] if stack else -1)
            c_start.append(0.0)
            c_end.append(0.0)
            c_size.append(-1)
            if keep_args:
                self.args[idx] = [int(a) for a in args]
            stack.append(idx)
            c_start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                c_end[idx] = clock()
                stack.pop()
            if keep_size:
                c_size[idx] = len(result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        self.counters.setdefault(name, 0)
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Replace every module attribute of ``package`` that refers to a
        target function by its wrapper."""
        prefix = package.__name__ + "."
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (m is package or key.startswith(prefix))
        ]
        replace: Dict[int, Callable] = {}
        for plan, make in ((TARGETS, self.wrap), (COUNT_TARGETS, self.counter)):
            for mod_name, funcs in plan.items():
                mod = sys.modules[prefix + mod_name]
                for fname in funcs:
                    orig = getattr(mod, fname, None)
                    if orig is not None:
                        replace[id(orig)] = make(f"{mod_name}.{fname.lstrip('_')}", orig)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapper = replace.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def dump(self, path: str, request: int, extra: Dict[str, int]) -> None:
        header = {
            "request": request,
            "names": self.names,
            "count": len(self.cols["name"]),
            "args": {str(k): v for k, v in self.args.items()},
            "counters": dict(self.counters, **extra),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in COLUMNS:
                self.cols[col].tofile(fh)


def read_spans(path: str) -> Tuple[List[Span], Dict[str, int]]:
    """Load a spans file written by ``Tracer.dump``: the spans and counters."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        cols = {}
        for col, code in COLUMNS:
            cols[col] = array(code)
            cols[col].fromfile(fh, count)
    names, args, request = header["names"], header["args"], header["request"]
    spans = [
        Span(
            names[cols["name"][i]],
            cols["start"][i],
            cols["end"][i],
            cols["parent"][i],
            request,
            cols["size"][i],
            tuple(args.get(str(i), ())),
        )
        for i in range(count)
    ]
    return spans, header["counters"]


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part of it that its child spans cover.

    A span's ``parent`` is the position of the enclosing span among the spans
    of the same request, in the order given, so the spans of several requests
    can be passed together."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault((s.request, s.parent), []).append((s.start, s.end))
    index: Dict[int, int] = {}
    out = []
    for s in spans:
        pos = index.get(s.request, 0)
        index[s.request] = pos + 1
        kids = children.get((s.request, pos), ())
        out.append(s.end - s.start - _covered(kids, s.start, s.end))
    return out


def _run(spans_path: str, request: int, argv: List[str]) -> int:
    import mvq
    import mvq.cli
    from mvq.correlators import cached_keys

    tracer = Tracer()
    tracer.install(mvq)
    main = tracer.wrap(MAIN, mvq.cli.main)
    try:
        rc = main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, request, {"cache_keys": len(cached_keys())})
    return rc


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracer.py SPANS_FILE REQUEST_ID -- MVQ_ARGS...")
    sys.exit(_run(sys.argv[1], int(sys.argv[2]), sys.argv[4:]))
