"""Finite-N brute-force verification layer.

Exact lattice-point sums over pairs (H, b) of positive integer vectors with
H . b <= N converge, after normalization by N^(|m|+k), to the zeta-evaluation
of the corresponding monomial.  Summing the counting polynomial of a stable
graph over such pairs counts square-tiled surfaces and converges to the
graph's volume contribution.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exact_arith import PiRational, factorial
from .stable_graphs import StableGraph, aut_order
from .volume_engine import masur_veech_volume, raw_graph_polynomial


def _cost_array(m: int, N: int, parity: Optional[int]) -> List[int]:
    """W[c] = sum of b^m over pairs (h, b) with h*b = c, b of given parity
    (None: unrestricted)."""
    W = [0] * (N + 1)
    start = 1 if parity is None else (2 if parity == 0 else 1)
    step = 1 if parity is None else 2
    for b in range(start, N + 1, step):
        pw = b ** m
        for c in range(b, N + 1, b):
            W[c] += pw
    return W


def _combined_sum(arrays: Sequence[Sequence[int]], N: int) -> int:
    """sum over c_1 + ... + c_k <= N of prod arrays[i][c_i]."""
    *head, last = arrays
    # Kronecker substitution: each head array becomes one integer with
    # `size` bytes per coefficient.  Every coefficient of every partial
    # product is nonnegative and at most the product of the head arrays'
    # sums, so none spills into the next coefficient's bytes.
    size = math.prod(sum(arr) for arr in head).bit_length() // 8 + 1
    mask = (1 << (8 * size * (N + 1))) - 1
    conv = 1
    for arr in head:
        packed = b"".join(x.to_bytes(size, "little") for x in arr)
        conv = (conv * int.from_bytes(packed, "little")) & mask
    coeffs = conv.to_bytes(size * (N + 1), "little")
    prefix = list(accumulate(last))
    return sum(
        int.from_bytes(coeffs[c * size : (c + 1) * size], "little") * prefix[N - c]
        for c in range(N + 1)
    )


def lattice_sum(
    m: Sequence[int], N: int, parity: Sequence[Sequence[int]] = ()
) -> int:
    """Exact sum of prod b_i^{m_i} over pairs of positive integer vectors
    (H, b) with sum H_i b_i <= N and b satisfying the parity constraints
    (each constraint: the listed coordinates of b have even sum)."""
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
    constrained = frozenset().union(*constraints)
    choices = [(0, 1) if i in constrained else (None,) for i in range(k)]
    cache: Dict[Tuple[int, Optional[int]], List[int]] = {}
    total = 0
    for ps in product(*choices):
        if any(sum(ps[i] for i in c) % 2 for c in constraints):
            continue
        arrays = []
        for i, p in enumerate(ps):
            if (i, p) not in cache:
                cache[(i, p)] = _cost_array(m[i], N, p)
            arrays.append(cache[(i, p)])
        total += _combined_sum(arrays, N)
    return total


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
