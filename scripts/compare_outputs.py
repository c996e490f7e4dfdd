"""Compare ``mvq --json`` outputs of two source checkouts, request by request.

    python3 scripts/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are two source checkouts, each with its own ``src/mvq``.
Every request of the fixed list below runs once in each tree, the two sides
side by side, as a fresh ``python -c 'from mvq.cli import main; ...'`` with
that tree's ``src`` on ``PYTHONPATH``.  A line per request prints ``same`` or
``DIFF`` with the exit code and the SHA-256 of the standard output of each
side.  A request that reads a graph file names it by its key in ``GRAPHS``
in braces, such as ``{phi}``; those files are written to a temporary
directory first.  The script exits 1 if any request differs in output or
exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ENTRY = "import sys; from mvq.cli import main; sys.exit(main())"

# the six requests of the benchmark's workloads, then a wider sweep over the
# catalog, both Siegel-Veech routes, statistics and the golden-table check,
# then correlators up to genus 6 and runs heavy on the string equation, then
# the large-genus layer and the statistics that read a graph file: a value,
# a divergent expectation, one given heights, and a negative exponent after
# the shift (exit 2), then harmonic sums at larger k and m, up to the last
# pi power whose float alone stays finite (Z_1(300), pi^600), then the edge
# recursion at the sizes past the catalog's reach, then the boundary
# Siegel-Veech formula and the Lyapunov sum that reads it, both on the cut
# enumerator that the edge recursion and the correlators share, then oracle
# requests beyond the benchmark's: graphs with legs, a report at genus 4,
# and monomial sums whose products pass 10^6 digits, then the catalog and
# both Siegel-Veech routes where canonical forms need the most refinement
# rounds, then both routes where legs far outnumber edges, and a normalized
# lattice sum far below the float range, then the one-loop volume read from
# the two-point sequence, and an expectation given heights past the float
# range (the parent ends in an OverflowError there)
REQUESTS = (
    "volume 4 0",
    "volume 4 1 --per-cylinder",
    "sv 3 2 --method both",
    "sv 2 4 --method both",
    "oracle count 3 0 --N 400",
    "oracle count 2 0 --N 4000",
    "sv 3 3 --method both",
    "graphs 4 0",
    "graphs 2 4",
    "graphs 0 7",
    "volume 3 2 --per-graph",
    "lyapunov 0 8",
    "pk 5 0",
    "check-all",
    "volume 6 0 --per-cylinder",
    "volume 1 7 --per-cylinder",
    "sv 2 5 --method boundary",
    "harmonic H 3 40",
    "harmonic Z 3 20",
    "harmonic Z 0 0",
    "agk 6",
    "sep-ratio 5",
    "poisson 4",
    "freq --multicurve {phi}",
    "expect --graph {phi} --num 1,0 --den 0,1",
    "expect --graph {phi} --num 0,1 --den 1,0",
    "expect --graph {two_loops} --num 1,0 --den 0,1 --heights 1,2",
    "expect --graph {two_loops} --num 0,0 --den 9,9",
    "harmonic H 60 63",
    "harmonic Z 60 63",
    "harmonic H 3 300",
    "harmonic Z 2 80",
    "harmonic Z 1 300",
    "volume 7 0 --per-cylinder",
    "volume 4 2 --per-cylinder",
    "sv 6 0 --method boundary",
    "sv 7 0 --method boundary",
    "sv 3 4 --method boundary",
    "lyapunov 4 1",
    "volume 8 0 --per-cylinder",
    "oracle count 1 2 --N 2000",
    "oracle count 2 2 --N 300",
    "oracle count 4 0 --N 60",
    "oracle lattice --m 1,3 --N 1000 --parity 0,1",
    "oracle lattice --m 1,1,3 --N 100000 --parity 0,1,2",
    "graphs 5 0",
    "sv 5 0 --method both",
    "sv 4 2 --method both",
    "sv 1 6 --method both",
    "sv 0 8 --method both",
    "oracle lattice --m 4000,4000,4000 --N 4",
    "sep-ratio 120",
    "expect --graph {theta} --num 400,0,0 --den 0,0,0 --heights 1,1,1",
)

GRAPHS = {
    "phi": {
        "vertices": [{"genus": 0}, {"genus": 1}],
        "edges": [[0, 0], [0, 1]],
        "legs": [],
        "weights": [1, 2],
    },
    "two_loops": {"vertices": [{"genus": 0}], "edges": [[0, 0], [0, 0]], "legs": []},
    "theta": {"vertices": [{"genus": 0}, {"genus": 0}], "edges": [[0, 1]] * 3, "legs": []},
}


def start(tree: Path, argv: list) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, "-c", ENTRY, "--json", *argv],
        cwd=tree, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    for tree in trees:
        if not (tree / "src" / "mvq" / "cli.py").is_file():
            parser.error(f"no mvq sources under {tree}")

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in GRAPHS.items():
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        for request in REQUESTS:
            argv = [word.format(**paths) for word in request.split()]
            procs = [start(tree, argv) for tree in trees]
            sides = []
            for proc in procs:
                out, _ = proc.communicate()
                sides.append((proc.returncode, hashlib.sha256(out).hexdigest()))
            same = sides[0] == sides[1]
            differ += not same
            cells = "  ".join("exit %d sha256 %s" % side for side in sides)
            print("%-4s %-62s %s" % ("same" if same else "DIFF", request, cells), flush=True)
    print("%d of %d requests differ" % (differ, len(REQUESTS)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
