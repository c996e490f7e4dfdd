"""Intersection numbers of psi classes and their normalized variants.

The correlator <tau_{d_1} ... tau_{d_n}>_g is B(g, d) / prod (2d_i+1)!!,
where the bracket B comes from one Virasoro/DVV recursion on the smallest
index, the string and dilaton equations included.  The brackets are memoized
on (g, sorted d) and exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, product as _iproduct
from math import comb, factorial, prod
from typing import Dict, Iterable, Sequence, Tuple

from .exact_arith import double_factorial

__all__ = [
    "correlator",
    "one_point_closed_form",
    "normalized_bracket",
    "max_bracket",
    "epsilon_d",
    "c_gk",
    "cached_keys",
]

_ZERO = Fraction(0)


def _stable(g: int, n: int) -> bool:
    return g >= 0 and n >= 1 and 2 * g - 2 + n > 0


_cache: Dict[Tuple[int, Tuple[int, ...]], Fraction] = {}


def cached_keys():
    """All (g, sorted d) keys computed so far; read by the structural tests
    and by the benchmark's tracer (bench/tracer.py)."""
    return list(_cache.keys())


def _room(g: int, S: Tuple[int, ...]) -> int:
    """3g - 3 + |S| - sum(S): the most edges a graph of type (g, S) has."""
    return 3 * g - 3 + len(S) - sum(S)


def _cuts(g: int, S: Tuple[int, ...]):
    """Yield (g1, S1, g2, S2, weight) once for every unordered cut of (g, S)
    into g1 + g2 = g and S1 + S2 = S, sorted like S, whose two sides each have
    room for one end of the cut edge: _room(g_i, S_i) >= -1, so each side
    with its end is stable.  weight counts the subsets of the positions of S
    whose entries form S1, doubled when the two sides differ."""
    if _room(g, S) < 1:  # the two sides' rooms add to _room(g, S) - 3
        return
    runs = [(x, len(list(run))) for x, run in groupby(S)]
    excess = sum(S) - len(S)
    # room >= -1 means g_i >= ceil((sum(S_i) - |S_i| + 2)/3), so a split has
    # genera only if sum(S1) - |S1| is in [excess - 3g + 2, 3 (g // 2) - 2]
    # (past g // 2 the sides would come swapped); picks that cannot get there are cut
    picks = [(0, 1, (), ())]  # excess of S1, weight, S1, S2
    for r, (x, c) in enumerate(runs):
        later = [(y - 1) * d for y, d in runs[r + 1 :]]
        low = excess - 3 * g + 2 - sum(t for t in later if t > 0)
        high = 3 * (g // 2) - 2 - sum(t for t in later if t < 0)
        picks = [(e, w * comb(c, k), S1 + (x,) * k, S2 + (x,) * (c - k))
                 for e1, w, S1, S2 in picks for k in range(c + 1)
                 for e in [e1 + (x - 1) * k] if low <= e <= high]
    for excess1, weight, S1, S2 in picks:
        lo = max(0, (excess1 + 4) // 3)
        hi = min(g // 2, g - max(0, (excess - excess1 + 4) // 3))
        if 2 * hi == g and S1 > S2:
            hi -= 1
        for g1 in range(lo, hi + 1):
            yield g1, S1, g - g1, S2, weight * (1 if (g1, S1) == (g - g1, S2) else 2)


def _bracket(g: int, d: Iterable[int]) -> Fraction:
    """B(g, d) = prod (2 d_i + 1)!! <tau_d>_g for d >= 0, zero for unstable
    (g, n) or off the dimension constraint; memoized on (g, d sorted
    descending).  With k the smallest index and S the others, the Virasoro
    constraint on tau_k has integer coefficients in this normalization:
    B(g; k, S) = sum_j (2 x_j + 1) B(g; S with x_j -> x_j + k - 1)
    + 1/2 sum_{a+b=k-2} [B(g-1; S, a, b) + sum over cuts of B(g1; S1, a) B(g2; S2, b)],
    a term with a negative index being 0.  At k = 0 and k = 1 this is the
    string and the dilaton equation."""
    d = tuple(sorted(d, reverse=True))
    n = len(d)
    if not _stable(g, n) or sum(d) != 3 * g - 3 + n:
        return _ZERO
    if g == 0 and n == 3:
        return Fraction(1)
    if g == 1 and n == 1:
        return Fraction(1, 8)
    key = (g, d)
    val = _cache.get(key)
    if val is not None:
        return val
    k, S = d[-1], d[:-1]
    # equal entries of S give equal terms: one per run of S, times its length
    val = sum((S.count(x) * (2 * x + 1) * _bracket(g, S[:j] + (x + k - 1,) + S[j + 1 :])
               for j, x in enumerate(S) if x + k > 0 and (j == 0 or S[j - 1] > x)), _ZERO)
    half = sum((_bracket(g - 1, S + (a, k - 2 - a)) for a in range(k - 1)), _ZERO)
    # on a cut, each side's room fixes its index, and the two add to k - 2
    for g1, S1, g2, S2, weight in _cuts(g, S):
        half += (weight * _bracket(g1, S1 + (_room(g1, S1) + 1,))
                 * _bracket(g2, S2 + (_room(g2, S2) + 1,)))
    val += half / 2
    _cache[key] = val
    return val


def _validated(g: int, d: Iterable[int]) -> Tuple[int, ...]:
    """d as a tuple of ints, with no negative entry and (g, len(d)) stable."""
    d = tuple(map(int, d))
    if min(d, default=0) < 0:
        raise ValueError("negative exponent")
    if not _stable(g, len(d)):
        raise ValueError("unstable (g, n) = (%d, %d)" % (g, len(d)))
    return d


def correlator(g: int, d: Sequence[int]) -> Fraction:
    """Exact <tau_{d_1} ... tau_{d_n}>_g = B(g, d) / prod (2d_i+1)!!; zero
    off the dimension constraint."""
    d = _validated(g, d)
    b = _bracket(g, d)
    return Fraction(b.numerator, b.denominator * prod(double_factorial(2 * x + 1) for x in d if x))


def one_point_closed_form(g: int) -> Fraction:
    """<psi^{3g-2}>_g = 1 / (24^g g!)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    return Fraction(1, 24 ** g * factorial(g))


def normalized_bracket(g: int, d: Sequence[int]) -> Fraction:
    """[tau_{d_1} ... tau_{d_n}] = 2^{3g-3+n} prod (2d_i+1)!/d_i! <tau_d>,
    which is 4^{3g-3+n} B(g, d) on the dimension constraint."""
    d = _validated(g, d)
    return 4 ** (3 * g - 3 + len(d)) * _bracket(g, d)


def max_bracket(g: int, n: int) -> Fraction:
    """[tau_0^{n-1} tau_{3g-3+n}] in closed form."""
    D = 3 * g - 3 + n
    return (
        Fraction(factorial(6 * g - 5 + 2 * n), factorial(D))
        * Fraction(2 ** D)
        / (24 ** g * factorial(g))
    )


def epsilon_d(g: int, d: Sequence[int]) -> Fraction:
    """Relative deviation of [tau_d] from the maximal bracket."""
    return normalized_bracket(g, d) / max_bracket(g, len(d)) - 1


def c_gk(g: int, k: int, D: Sequence[int]) -> Fraction:
    """Weighted sum of 2k-correlators over splittings of D, normalized so the
    conjectural large-genus value is 1."""
    D = tuple(int(x) for x in D)
    if len(D) != k or any(x < 0 for x in D) or sum(D) != 3 * g - 3 + 2 * k:
        raise ValueError("D must be a partition of 3g-3+2k into k parts")
    pref = (
        Fraction(factorial(g) * factorial(3 * g - 3 + 2 * k), factorial(6 * g + 4 * k - 5))
        * Fraction(3 ** g, 2 ** (3 * g - 6 + 5 * k))
    )
    total = Fraction(0)
    for split in _iproduct(*[range(Dj + 1) for Dj in D]):
        d = []
        weight = Fraction(1)
        for Dj, d1 in zip(D, split):
            d2 = Dj - d1
            d.extend((d1, d2))
            weight *= Fraction(factorial(2 * Dj + 2), factorial(d1) * factorial(d2))
        total += weight * correlator(g, d)
    return pref * total
