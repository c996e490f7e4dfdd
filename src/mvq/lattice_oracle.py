"""Finite-N brute-force verification layer.

Exact lattice-point sums over pairs (H, b) of positive integer vectors with
H . b <= N converge, after normalization by N^(|m|+k), to the zeta-evaluation
of the corresponding monomial.  Summing the counting polynomial of a stable
graph over such pairs counts square-tiled surfaces and converges to the
graph's volume contribution.

Lattice work is shared for one N.  Once a parity pattern fixes the parity of
every constrained b_i, the sum depends only on the multiset of (exponent,
parity) pairs: cost arrays are kept per pair, combined sums per sorted key of
pairs, and the product of the cost arrays of each head (a key without its
last pair) in one memo, so that a head shared by several keys, in one call or
across calls, is convolved once.  All of it is exact integer arithmetic.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .exact_arith import PiRational, factorial
from .stable_graphs import StableGraph, aut_order
from .volume_engine import masur_veech_volume, raw_graph_polynomial


# The lattice work of one N: the cost array of each (exponent, parity) pair,
# the packed product of the arrays of each head, and the combined sum of each
# sorted key of such pairs.  Cleared when N changes.
_memo_N = 0
_arrays: Dict[Tuple[int, int], List[int]] = {}
_heads: Dict[Tuple[Tuple[int, int], ...], Tuple[int, int, int]] = {}
_sums: Dict[Tuple[Tuple[int, int], ...], int] = {}


def _cost_array(m: int, parity: int, N: int) -> List[int]:
    """W[c] = sum of b^m over pairs (h, b) with h*b = c and b even (parity 0),
    odd (1) or either (-1: it sorts first, so keys of one call share longer heads)."""
    if (m, parity) not in _arrays:
        W = _arrays[m, parity] = [0] * (N + 1)
        for b in range(2 if parity == 0 else 1, N + 1, 1 if parity < 0 else 2):
            pw = b ** m
            for c in range(b, N + 1, b):
                W[c] += pw
    return _arrays[m, parity]


def _truncated_product(a: int, b: int, N: int, size: int) -> int:
    """Coefficients 0..N of a * b, both packed into slots of ``size`` bytes
    that none of those coefficients overflows."""
    return a * b & (1 << 8 * size * (N + 1)) - 1


def _head(head: Tuple[Tuple[int, int], ...], N: int) -> Tuple[int, int, int]:
    """The product of the cost arrays of ``head``, Kronecker-packed, with its
    slot width in bytes and a bound on its coefficients 0..N: head[:-1] times
    one more array.  A coefficient 0..N of a * W is at most max(a) * sum(W),
    and only those slots must not overflow: a carry moves up."""
    if head not in _heads:
        array = _cost_array(*head[-1], N)
        if len(head) > 1:
            conv, size, bound = _head(head[:-1], N)
            bound *= sum(array)
        else:
            bound = max(1, *array)
        width = bound.bit_length() // 8 + 1
        packed = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in array), "little")
        if len(head) > 1:
            if size < width:  # move the slots apart, one strided copy per byte
                raw, wide = conv.to_bytes(size * (N + 1), "little"), bytearray(width * (N + 1))
                for b in range(size):
                    wide[b::width] = raw[b::size]
                conv = int.from_bytes(wide, "little")
            packed = _truncated_product(conv, packed, N, width)
        _heads[head] = packed, width, bound
    return _heads[head]


def lattice_sum(
    m: Sequence[int], N: int, parity: Sequence[Sequence[int]] = ()
) -> int:
    """Exact sum of prod b_i^{m_i} over pairs of positive integer vectors
    (H, b) with sum H_i b_i <= N and b satisfying the parity constraints
    (each constraint: the listed coordinates of b have even sum)."""
    global _memo_N
    k = len(m)
    if k == 0:
        raise ValueError("need at least one exponent")
    if any(e < 0 for e in m):
        raise ValueError("exponents must be nonnegative")
    if N <= 0:
        raise ValueError("N must be positive")
    constraints = [tuple(c) for c in parity if c]
    if any(not 0 <= i < k for c in constraints for i in c):
        raise ValueError(f"parity indices must lie in 0..{k - 1}")
    if N != _memo_N:
        _memo_N = N
        for memo in (_arrays, _heads, _sums):
            memo.clear()
    constrained = frozenset().union(*constraints)
    # each admissible parity pattern, as a sorted key of (exponent, parity)
    keys = Counter(
        tuple(sorted(zip(m, ps)))
        for ps in product(*[(0, 1) if i in constrained else (-1,) for i in range(k)])
        if not any(sum(ps[i] for i in c) % 2 for c in constraints)
    )
    for key in keys.keys() - _sums.keys():
        # the combined sum, sum_c conv[c] * prefix[N - c], with conv unpacked
        prefix = list(accumulate(_cost_array(*key[-1], N)))
        conv, size, _ = _head(key[:-1], N) if len(key) > 1 else (1, 1, 1)
        raw = conv.to_bytes(size * (N + 1), "little")
        _sums[key] = sum(int.from_bytes(raw[c * size : (c + 1) * size], "little") * prefix[N - c]
                         for c in range(N + 1))
    return sum(mult * _sums[key] for key, mult in keys.items())


def normalized_lattice_sum(
    m: Sequence[int], N: int, parity: Sequence[Sequence[int]] = ()
) -> Fraction:
    """lattice_sum scaled by N^(|m|+k); converges to
    prod m_i! zeta(m_i+1) / ((|m|+k)! * index)."""
    d = sum(m) + len(m)
    return Fraction(lattice_sum(m, N, parity), N ** d)


def parity_constraints(graph: StableGraph) -> List[List[int]]:
    """Per-vertex even-sum conditions on the edge widths (loops contribute
    twice and therefore drop out)."""
    out = []
    for v in range(graph.num_vertices):
        odd = [
            idx
            for idx, (i, j) in enumerate(graph.edges)
            if (i == v) != (j == v)
        ]
        if odd:
            out.append(odd)
    return out


class CountResult(NamedTuple):
    count: Fraction
    estimate: Fraction  # rational estimate of Vol(graph)/pi^0, compare as floats


def square_tiled_count(graph: StableGraph, N: int) -> CountResult:
    """Exact leading-order count of square-tiled surfaces with at most 2N
    squares whose horizontal cylinder decomposition has type ``graph``, and
    the derived volume estimate 2(6g-6+2n) count / N^d."""
    if N <= 0:
        raise ValueError("N must be positive")
    g = graph.genus
    n = graph.num_legs
    d = 6 * g - 6 + 2 * n
    aut = aut_order(graph)
    parity = parity_constraints(graph)
    count = Fraction(0)
    for expo, coeff in raw_graph_polynomial(graph).items():
        count += coeff * lattice_sum(expo, 2 * N, parity)
    count *= Fraction(factorial(4 * g - 4 + n), aut)
    estimate = 2 * d * count / N ** d
    return CountResult(count, estimate)


class ConvergenceRow(NamedTuple):
    graph: StableGraph
    estimate: Fraction
    exact: PiRational
    rel_error: float


class ConvergenceReport(NamedTuple):
    rows: Tuple[ConvergenceRow, ...]
    total_estimate: Fraction
    total_exact: PiRational
    total_rel_error: float


def volume_convergence_report(g: int, n: int, N: int) -> ConvergenceReport:
    """Per-graph and total normalized square-tiled counts against the exact
    volumes, with relative errors."""
    rows: List[ConvergenceRow] = []
    total_est = Fraction(0)
    report = masur_veech_volume(g, n)
    for entry, exact in report.per_graph:
        est = square_tiled_count(entry.graph, N).estimate
        rel = float(est) / float(exact) - 1.0
        rows.append(ConvergenceRow(entry.graph, est, exact, rel))
        total_est += est
    total_exact = report.total
    total_rel = float(total_est) / float(total_exact) - 1.0
    return ConvergenceReport(tuple(rows), total_est, total_exact, total_rel)
