"""Finite-N brute-force verification layer.

Exact lattice-point sums over pairs (H, b) of positive integer vectors with
H . b <= N converge, after normalization by N^(|m|+k), to the zeta-evaluation
of the corresponding monomial.  Summing the counting polynomial of a stable
graph over such pairs counts square-tiled surfaces and converges to the
graph's volume contribution.

Lattice work is shared for one N.  Once a parity pattern fixes the parity of
every constrained b_i, the sum depends only on the multiset of (exponent,
parity) pairs, and a call adds up one combined sum per sorted key of pairs.
The cost arrays of exponent m all come from the divisor-power sums sigma_m,
built by a multiplicative sieve over one smallest-prime table; the even-b
and odd-b arrays follow from sigma_m without another divisor loop.  A key's
combined sum is sum_c A[c] * cumB[N - c], where A and B are the products of
the cost arrays of its two halves (A takes the larger), and the product of a
longer half is that of its own two halves.  The coefficients of every such product are kept per
sorted sub-multiset, so that one shared by several keys, in one call or
across calls, is multiplied once.  A product is a Kronecker substitution in
base 10^w that libmpdec multiplies in a context trapping any rounding, so
all of it is exact integer arithmetic.
"""

from __future__ import annotations

import decimal
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import isqrt
from operator import mul, sub
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .exact_arith import PiRational, factorial
from .stable_graphs import StableGraph, aut_order
from .volume_engine import masur_veech_volume, raw_graph_polynomial

Key = Tuple[Tuple[int, int], ...]

# Products take libmpdec's whole precision and exponent range, and any
# rounding raises: a product that is not exact is never used.
_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Rounded, decimal.Inexact],
)

# The lattice work of one N: sigma_m per exponent m, the cost array of each
# (exponent, parity) pair, the product of the cost arrays of each sorted
# sub-multiset of more than one pair, and the combined sum of each sorted
# key.  Cleared when N changes.
_memo_N = 0
_bases: Dict[int, List[int]] = {}
_arrays: Dict[Tuple[int, int], List[int]] = {}
_products: Dict[Key, List[int]] = {}
_sums: Dict[Key, int] = {}


def _use(N: int) -> None:
    """Empty the lattice work when N changes."""
    global _memo_N
    if N != _memo_N:
        _memo_N = N
        for memo in (_bases, _arrays, _products, _sums):
            memo.clear()


@lru_cache(maxsize=1)  # one table, for the last N
def _prime_powers(N: int) -> Tuple[List[int], List[int]]:
    """For c = 0..N, the smallest prime p of c and the power of p that
    exactly divides c (c itself and 1 at c < 2)."""
    smallest = list(range(N + 1))
    for p in range(2, isqrt(N) + 1):
        if smallest[p] == p:
            for c in range(p * p, N + 1, p):
                if smallest[c] == c:
                    smallest[c] = p
    power = [1] * (N + 1)
    for c in range(2, N + 1):
        p = smallest[c]
        power[c] = power[c // p] * p if smallest[c // p] == p else p
    return smallest, power


def _sigma(m: int, N: int) -> List[int]:
    """sigma_m(c), the sum of b^m over the divisors b of c, for c = 0..N (0 at
    c = 0): sigma_m(p^e r) = sigma_m(p^e) sigma_m(r) for p not dividing r, and
    sigma_m(p^e) = sigma_m(p^(e-1)) + p^(e m)."""
    if m not in _bases:
        smallest, power = _prime_powers(N)
        W = _bases[m] = [0, 1] + [0] * (N - 1)
        for c in range(2, N + 1):
            q = power[c]
            W[c] = W[c // smallest[c]] + c ** m if q == c else W[q] * W[c // q]
    return _bases[m]


def _cost_array(m: int, parity: int, N: int) -> List[int]:
    """W[c] = sum of b^m over pairs (h, b) with h*b = c and b even (parity 0),
    odd (1) or either (-1: it sorts first, so keys of one call share longer
    halves).  Either parity is sigma_m; the even part is 2^m sigma_m(c/2) at
    even c, and the odd part is what is left."""
    _use(N)
    if (m, parity) not in _arrays:
        W = _sigma(m, N)
        if parity >= 0:
            even = [0] * (N + 1)
            even[::2] = [w << m for w in W[: N // 2 + 1]]
            W = even if parity == 0 else list(map(sub, W, even))
        _arrays[m, parity] = W
    return _arrays[m, parity]


def exact_str(x: int | Fraction) -> str:
    """str(x), also past the interpreter's int-to-str digit limit, via Decimal."""
    return "/".join([str(Decimal(p)) for p in x.as_integer_ratio()]).removesuffix("/1")


def _product(a: List[int], b: List[int], N: int) -> List[int]:
    """Coefficients 0..N of a * b.  Both are packed as strings of w-digit
    slots, one per coefficient, read as decimal numbers and multiplied by
    libmpdec.  A coefficient 0..N of a * b is at most max(a) * sum(b), and w
    holds it and every coefficient of a and b, so no slot 0..N overflows: a
    carry moves up."""
    bound = max(1, max(a)) * max(1, sum(b))
    w = bound.bit_length() * 30103 // 100000 + 1  # 10^w > 2^bit_length > bound
    # str() and int() refuse an int of more digits than the interpreter's
    # limit; a conversion through Decimal takes any size
    limit = sys.get_int_max_str_digits()
    if not limit or w <= limit:
        text, read = str, int
    else:
        text, read = exact_str, (lambda s: int(Decimal(s)))
    packed = [Decimal("".join([text(x).zfill(w) for x in reversed(c)])) for c in (a, b)]
    size = w * (N + 1)
    digits = str(_CONTEXT.multiply(*packed))[-size:].zfill(size)
    return [read(digits[i - w : i]) for i in range(size, 0, -w)]


def _coefficients(pairs: Key, N: int) -> List[int]:
    """Coefficients 0..N of the product of the cost arrays of ``pairs``: the
    product of those of its two halves."""
    if len(pairs) == 1:
        return _cost_array(*pairs[0], N)
    if pairs not in _products:
        h = (len(pairs) + 1) // 2
        _products[pairs] = _product(_coefficients(pairs[:h], N), _coefficients(pairs[h:], N), N)
    return _products[pairs]


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
    _use(N)
    constrained = frozenset().union(*constraints)
    # each admissible parity pattern, as a sorted key of (exponent, parity)
    keys = Counter(
        tuple(sorted(zip(m, ps)))
        for ps in product(*[(0, 1) if i in constrained else (-1,) for i in range(k)])
        if not any(sum(ps[i] for i in c) % 2 for c in constraints)
    )
    for key in keys.keys() - _sums.keys():
        # the combined sum, sum_c A[c] * cumB[N - c]
        h = (len(key) + 1) // 2
        A = _coefficients(key[:h], N)
        if h == len(key):  # B is the empty product: cumB is all ones
            _sums[key] = sum(A)
        else:
            cum = list(accumulate(_coefficients(key[h:], N)))
            _sums[key] = sum(map(mul, A, reversed(cum)))
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
