"""Command-line front end.

Every subcommand prints deterministic UTF-8 text; ``--json`` switches to a
stable JSON schema.  Exit status: 0 on success, 1 for invalid input, 2 for
requests outside a formula's hypotheses (an empty stratum, or an
``IndeterminateError``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional

# bench/tracer.py's Tracer.install looks these layers up in sys.modules right
# after ``import mvq.cli``; asymptotics and multicurve_stats load on first use
from . import correlators, lattice_oracle, siegel_veech, stable_graphs, volume_engine  # noqa: F401
from .exact_arith import _PI_60, IndeterminateError, PiRational
from .stable_graphs import StableGraph, enumerate_graphs


def _fmt_float(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


def _approx(x, digits: int) -> tuple:
    """float(x) and its text with ``digits`` significant digits, for a Fraction
    or a PiRational x.  A nonzero x past the float range has no float (None,
    null in JSON), and its text is the same scientific notation read from x
    itself, a PiRational's with pi to 60 digits."""
    try:
        approx = float(x)  # 0.0 on underflow, a PiRational's +-inf on overflow
        if approx and math.isfinite(approx) or x == 0:  # a zero PiRational has pi^0
            return approx, _fmt_float(approx, digits)
    except OverflowError:
        pass
    if isinstance(x, PiRational):
        x = x.coeff * _PI_60 ** x.pi_power
    # from a bit-length estimate, step the exponent e until |x| / 10^e rounds
    # to a mantissa of exactly ``digits`` digits
    e = int((x.numerator.bit_length() - x.denominator.bit_length()) * math.log10(2)) - digits + 1
    while not 10 ** (digits - 1) <= (mant := round(abs(x) / Fraction(10) ** e)) < 10**digits:
        e += 1 if mant >= 10**digits else -1
    text = f"{str(mant)[0]}.{str(mant)[1:]}".rstrip("0").rstrip(".")
    return None, f"{'-' * (x < 0)}{text}e{e + digits - 1:+03d}"


def _emit(args, text_lines: List[str], payload: Dict[str, Any]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_ints(s: str) -> List[int]:
    return [int(x) for x in s.split(",") if x != ""]


def _load_graph(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_graphs(args) -> int:
    catalog = enumerate_graphs(args.g, args.n)
    lines = [f"stable graphs for (g, n) = ({args.g}, {args.n}): {len(catalog)}"]
    rows = []
    for entry in catalog:
        gr = entry.graph
        rows.append(
            {
                "graph": gr.to_json(),
                "aut_order": entry.aut_order,
                "edges": gr.num_edges,
            }
        )
        lines.append(
            f"  genera={list(gr.genera)} edges={list(gr.edges)} "
            f"legs={list(gr.legs)} |Aut|={entry.aut_order}"
        )
    _emit(args, lines, {"count": len(catalog), "graphs": rows})
    return 0


def cmd_volume(args) -> int:
    report = volume_engine.masur_veech_volume(args.g, args.n)
    lines = [f"Vol Q_{{{args.g},{args.n}}} = {report.total}"]
    payload: Dict[str, Any] = {"total": report.total.to_json()}
    if args.per_graph:
        rows = []
        for entry, v in report.per_graph:
            lines.append(
                f"  genera={list(entry.graph.genera)} "
                f"edges={list(entry.graph.edges)} -> {v}"
            )
            rows.append({"graph": entry.graph.to_json(), "volume": v.to_json()})
        payload["per_graph"] = rows
    if args.per_cylinder:
        payload["per_cylinder"] = {
            str(k): v.to_json()
            for k, v in sorted(report.per_cylinder_count.items())
        }
        for k, v in sorted(report.per_cylinder_count.items()):
            lines.append(f"  {k} cylinders: {v}")
    _emit(args, lines, payload)
    return 0


def cmd_sv(args) -> int:
    method = args.method
    lines = []
    payload: Dict[str, Any] = {}
    got: Dict[str, Fraction] = {}
    if method in ("graphsum", "both"):
        got["graphsum"] = siegel_veech.c_area_graphsum(args.g, args.n)
    if method in ("boundary", "both"):
        got["boundary"] = siegel_veech.c_area_boundary(args.g, args.n)
    for name, val in got.items():
        lines.append(f"(pi^2/3) c_area [{name}] = {val}")
        payload[name] = str(val)
    if method == "both":
        match = got["graphsum"] == got["boundary"]
        lines.append("MATCH" if match else "MISMATCH")
        payload["match"] = match
    _emit(args, lines, payload)
    return 0


def cmd_lyapunov(args) -> int:
    val = siegel_veech.lyapunov_sum_plus(args.g, args.n)
    _emit(
        args,
        [f"Lambda^+ = {val}"],
        {"lyapunov_sum_plus": str(val)},
    )
    return 0


def cmd_freq(args) -> int:
    from . import multicurve_stats
    obj = _load_graph(args.multicurve)
    graph = StableGraph.from_json(obj)
    weights = obj.get("weights", [1] * graph.num_edges)
    mc = multicurve_stats.Multicurve(graph, weights)
    val = multicurve_stats.frequency(mc)
    _emit(args, [f"c(gamma) = {val}"], {"frequency": str(val)})
    return 0


def cmd_pk(args) -> int:
    from . import multicurve_stats
    dist = multicurve_stats.cylinder_distribution(args.g, args.n)
    lines = [f"p_{k} = {v}" for k, v in sorted(dist.items())]
    _emit(args, lines, {str(k): str(v) for k, v in sorted(dist.items())})
    return 0


def cmd_expect(args) -> int:
    from . import multicurve_stats
    obj = _load_graph(args.graph)
    graph = StableGraph.from_json(obj)
    num = _parse_ints(args.num)
    den = _parse_ints(args.den)
    H = _parse_ints(args.heights) if args.heights else None
    val = multicurve_stats.expectation_ratio(graph, num, den, H)
    import sympy

    if val is sympy.oo:
        _emit(args, ["E = +inf"], {"value": "inf"})
        return 0
    # a symbolic value is read to 20 digits, exactly as a binary fraction
    approx, text = _approx(val if isinstance(val, Fraction)
                           else Fraction(str(sympy.Rational(val.evalf(20)))), args.digits)
    _emit(args, [f"E = {val} = {text}"], {"value": str(val), "float": approx})
    return 0


def cmd_agk(args) -> int:
    from . import asymptotics
    seq = asymptotics.agk_by_recursion(args.g)
    lines = [f"a_{{{args.g},{k}}} = {v}" for k, v in enumerate(seq.values)]
    _emit(args, lines, {"g": args.g, "values": [str(v) for v in seq.values]})
    return 0


def cmd_harmonic(args) -> int:
    from . import asymptotics
    if args.kind == "H":
        val = asymptotics.harmonic_H(args.k, args.m)
        exact = str(val)
    else:
        val = asymptotics.harmonic_Z(args.k, args.m)
        exact = val.to_json()
    approx, text = _approx(val, args.digits)
    _emit(args, [f"{args.kind}_{args.k}({args.m}) = {val} ≈ {text}"],
          {"value": exact, "float": approx})
    return 0


def cmd_coeffs(args) -> int:
    from . import asymptotics
    sc = asymptotics.series_coeffs(args.max_j)
    lines = []
    for j in range(args.max_j + 1):
        lines.append(
            f"j={j} c={_fmt_float(sc.c[j], args.digits)} "
            f"A={_fmt_float(sc.A[j], args.digits)} "
            f"B={_fmt_float(sc.B[j], args.digits)}"
        )
    _emit(args, lines, {"c": list(sc.c), "A": list(sc.A), "B": list(sc.B)})
    return 0


def cmd_poisson(args) -> int:
    from . import asymptotics
    if args.kmax < 1:
        raise ValueError(f"--kmax must be at least 1, got {args.kmax}")
    model = asymptotics.poisson_model(args.g)
    lines = [f"lambda({args.g}) = {_fmt_float(model.lam, args.digits)}"]
    pmf = {k: model.pmf(k) for k in range(1, args.kmax + 1)}
    for k, p in pmf.items():
        lines.append(f"  P(k={k}) = {_fmt_float(p, args.digits)}")
    payload: Dict[str, Any] = {
        "lambda": model.lam,
        "pmf": {str(k): p for k, p in pmf.items()},
    }
    if not math.isnan(model.tv_distance):
        lines.append(f"TV distance to exact = {_fmt_float(model.tv_distance, args.digits)}")
        payload["tv_distance"] = model.tv_distance
    _emit(args, lines, payload)
    return 0


def cmd_sep_ratio(args) -> int:
    from . import asymptotics
    exact, asym = asymptotics.sep_nonsep_ratio(args.g)
    approx, text = _approx(asym, args.digits)
    _emit(
        args,
        [f"separating/non-separating exact = {exact}", f"asymptotic = {text}"],
        {"exact": str(exact), "asymptotic": approx},
    )
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "lattice":
        m = _parse_ints(args.m)
        parity = (
            [_parse_ints(c) for c in args.parity.split(";")] if args.parity else []
        )
        val = lattice_oracle.exact_str(lattice_oracle.lattice_sum(m, args.N, parity))
        norm = lattice_oracle.normalized_lattice_sum(m, args.N, parity)
        approx, text = _approx(norm, args.digits)
        _emit(
            args,
            [f"sum = {val}", f"normalized = {text}"],
            {"sum": val, "normalized": lattice_oracle.exact_str(norm),
             "normalized_float": approx},
        )
        return 0
    report = lattice_oracle.volume_convergence_report(args.g, args.n, args.N)
    lines = []
    rows = []
    for row in report.rows:
        lines.append(
            f"  genera={list(row.graph.genera)} edges={list(row.graph.edges)} "
            f"estimate={_approx(row.estimate, args.digits)[1]} "
            f"exact={row.exact} rel_error={_fmt_float(row.rel_error, 3)}"
        )
        rows.append(
            {
                "graph": row.graph.to_json(),
                "estimate": str(row.estimate),
                "exact": row.exact.to_json(),
                "rel_error": row.rel_error,
            }
        )
    lines.append(
        f"total estimate={_approx(report.total_estimate, args.digits)[1]} "
        f"exact={report.total_exact} rel_error={_fmt_float(report.total_rel_error, 3)}"
    )
    _emit(
        args,
        lines,
        {
            "rows": rows,
            "total_estimate": str(report.total_estimate),
            "total_exact": report.total_exact.to_json(),
            "total_rel_error": report.total_rel_error,
        },
    )
    return 0


def cmd_check_all(args) -> int:
    from . import asymptotics, multicurve_stats
    checks: List[tuple] = []

    def check(name, got, want):
        checks.append((name, got == want, str(got), str(want)))

    check(
        "Vol(2,0)",
        volume_engine.masur_veech_volume(2, 0).total,
        PiRational(Fraction(1, 15), 6),
    )
    check(
        "Vol(1,2)",
        volume_engine.masur_veech_volume(1, 2).total,
        PiRational(Fraction(1, 3), 4),
    )
    check(
        "Vol(3,0)",
        volume_engine.masur_veech_volume(3, 0).total,
        PiRational(Fraction(115, 33264), 12),
    )
    check("sv(2,0)", siegel_veech.c_area_graphsum(2, 0), Fraction(19, 18))
    check("sv(1,2)", siegel_veech.c_area_graphsum(1, 2), Fraction(7, 9))
    check("lyapunov(2,0)", siegel_veech.lyapunov_sum_plus(2, 0), Fraction(4, 3))
    check(
        "pk(2,0)",
        multicurve_stats.cylinder_distribution(2, 0),
        {1: Fraction(7, 27), 2: Fraction(15, 27), 3: Fraction(5, 27)},
    )
    check("sep-ratio(2)", asymptotics.sep_nonsep_ratio(2)[0], Fraction(1, 48))
    check(
        "agk",
        asymptotics.agk_by_recursion(3).values,
        asymptotics.agk_from_correlators(3).values,
    )
    ok = all(c[1] for c in checks)
    lines = [
        f"{'PASS' if good else 'FAIL'} {name}: {got}"
        + ("" if good else f" (expected {want})")
        for name, good, got, want in checks
    ]
    lines.append("ALL PASS" if ok else "FAILURES PRESENT")
    _emit(
        args,
        lines,
        {
            "checks": [
                {"name": n, "pass": p, "got": g, "want": w} for n, p, g, w in checks
            ],
            "ok": ok,
        },
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvq",
        description="Exact volumes, Siegel-Veech constants and statistics of "
        "square-tiled surfaces and multicurves.",
    )
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument(
        "--digits", type=int, default=6, help="significant digits for floats"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def gn(p):
        p.add_argument("g", type=int)
        p.add_argument("n", type=int)

    p = sub.add_parser("graphs", help="list the stable-graph catalog")
    gn(p)
    p.set_defaults(func=cmd_graphs)

    p = sub.add_parser("volume", help="Masur-Veech volume")
    gn(p)
    p.add_argument("--per-graph", action="store_true")
    p.add_argument("--per-cylinder", action="store_true")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("sv", help="area Siegel-Veech constant")
    gn(p)
    p.add_argument(
        "--method", choices=["graphsum", "boundary", "both"], default="graphsum"
    )
    p.set_defaults(func=cmd_sv)

    p = sub.add_parser("lyapunov", help="sum of Lyapunov exponents")
    gn(p)
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("freq", help="frequency of a multicurve")
    p.add_argument("--multicurve", required=True, help="JSON file")
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("pk", help="cylinder-count distribution")
    gn(p)
    p.set_defaults(func=cmd_pk)

    p = sub.add_parser("expect", help="expectation of a monomial ratio")
    p.add_argument("--graph", required=True, help="JSON file")
    p.add_argument("--num", required=True, help="comma-separated exponents")
    p.add_argument("--den", required=True, help="comma-separated exponents")
    p.add_argument("--heights", help="comma-separated heights")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("agk", help="normalized 2-correlators a_{g,k}")
    p.add_argument("g", type=int)
    p.set_defaults(func=cmd_agk)

    p = sub.add_parser("harmonic", help="multiple harmonic sums")
    p.add_argument("kind", choices=["H", "Z"])
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("coeffs", help="gamma-series coefficients c, A, B")
    p.add_argument("max_j", type=int)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("poisson", help="Poisson model for cylinder counts")
    p.add_argument("g", type=int)
    p.add_argument("--kmax", type=int, default=10)
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("sep-ratio", help="separating/non-separating ratio")
    p.add_argument("g", type=int)
    p.set_defaults(func=cmd_sep_ratio)

    p = sub.add_parser("oracle", help="finite-N lattice oracle")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    pl = osub.add_parser("lattice", help="monomial lattice sum")
    pl.add_argument("--m", required=True)
    pl.add_argument("--N", type=int, required=True)
    pl.add_argument("--parity", help="semicolon-separated index groups")
    pl.set_defaults(func=cmd_oracle)
    pc = osub.add_parser("count", help="square-tiled convergence report")
    gn(pc)
    pc.add_argument("--N", type=int, default=1000)
    pc.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check-all", help="golden-value self-check")
    p.set_defaults(func=cmd_check_all)

    return parser


def _validate_args(args) -> Optional[str]:
    if args.digits < 1:
        return "--digits must be at least 1"
    g = getattr(args, "g", None)
    n = getattr(args, "n", None)
    if g is None:
        return None
    if g < 0 or (n is not None and n < 0):
        return "g and n must be nonnegative"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    err = _validate_args(args)
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    # the catalog exists at (1, 1), but the stratum it would describe does not
    gn = (getattr(args, "g", None), getattr(args, "n", None))
    if gn == (1, 1) and args.cmd != "graphs":
        print("error: the stratum Q(1, -1) at (g, n) = (1, 1) is empty", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, IndeterminateError) else 1


if __name__ == "__main__":
    sys.exit(main())
