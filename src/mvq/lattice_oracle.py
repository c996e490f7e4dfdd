"""Finite-N brute-force verification layer.

Exact lattice-point sums over pairs (H, b) of positive integer vectors with
H . b <= N converge, after normalization by N^(|m|+k), to the zeta-evaluation
of the corresponding monomial.  Summing the counting polynomial of a stable
graph over such pairs counts square-tiled surfaces and converges to the
graph's volume contribution.

Lattice work is shared for one N.  Once a parity pattern fixes the parity of
every constrained b_i, the sum depends only on the multiset of (exponent,
parity) pairs: cost arrays are kept per pair, combined sums per sorted key of
pairs, and within one lattice_sum call a sorted walk over the keys convolves
each head they share once.  All of it is exact integer arithmetic.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .exact_arith import PiRational, factorial
from .stable_graphs import StableGraph, aut_order
from .volume_engine import masur_veech_volume, raw_graph_polynomial


# The lattice work of one N: the cost array of each (exponent, parity) pair
# and the combined sum of each sorted key of such pairs.  Cleared when N changes.
_memo_N = 0
_arrays: Dict[Tuple[int, int], List[int]] = {}
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


def _truncated_product(a: List[int], b: List[int], N: int) -> List[int]:
    """Coefficients 0..N of a * b by one Kronecker-packed big-integer product.
    No coefficient exceeds sum(a) * sum(b), so none spills out of its slot."""
    size = (sum(a) * sum(b)).bit_length() // 8 + 1
    A, B = (int.from_bytes(b"".join(x.to_bytes(size, "little") for x in v), "little")
            for v in (a, b))
    coeffs = (A * B).to_bytes(size * (2 * N + 1), "little")
    return [int.from_bytes(coeffs[c * size : (c + 1) * size], "little") for c in range(N + 1)]


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
        _arrays.clear()
        _sums.clear()
    constrained = frozenset().union(*constraints)
    # each admissible parity pattern, as a sorted key of (exponent, parity)
    keys = Counter(
        tuple(sorted(zip(m, ps)))
        for ps in product(*[(0, 1) if i in constrained else (-1,) for i in range(k)])
        if not any(sum(ps[i] for i in c) % 2 for c in constraints)
    )
    # sorted walk over the new keys; stack[j] is the product of the arrays of
    # head[:j + 1], so a head shared by neighbouring keys is convolved once
    stack: List[List[int]] = []
    head: Tuple[Tuple[int, int], ...] = ()
    for key in sorted(keys.keys() - _sums.keys()):
        shared = 0
        while shared < len(head) and key[shared] == head[shared]:
            shared += 1
        del stack[shared:]
        head = key[:-1]
        for pair in head[shared:]:
            W = _cost_array(*pair, N)
            stack.append(_truncated_product(stack[-1], W, N) if stack else W)
        prefix = list(accumulate(_cost_array(*key[-1], N)))
        conv = stack[-1] if stack else [1]
        _sums[key] = sum(x * prefix[N - c] for c, x in enumerate(conv))
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
