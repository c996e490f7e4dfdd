"""Intersection numbers of psi classes and their normalized variants.

The correlator <tau_{d_1} ... tau_{d_n}>_g is computed by the
Virasoro/DVV recursion on the largest index, with the string and dilaton
equations used to strip indices 0 and 1 first.  Everything is memoized on
(g, sorted d) and exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _iproduct
from math import comb, factorial
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
    """All (g, sorted d) keys computed so far (used by structural test suites)."""
    return list(_cache.keys())


def _submultisets(items: Tuple[Tuple[int, int], ...]):
    """Yield (chosen multiset, complement multiset, count of labeled subsets)."""
    ranges = [range(c + 1) for _, c in items]
    for pick in _iproduct(*ranges):
        weight = 1
        chosen = []
        rest = []
        for (val, cnt), k in zip(items, pick):
            weight *= comb(cnt, k)
            chosen.extend([val] * k)
            rest.extend([val] * (cnt - k))
        yield tuple(chosen), tuple(rest), weight


def _corr(g: int, d: Tuple[int, ...]) -> Fraction:
    """d sorted descending.  Assumes (g, len(d)) stable and
    sum(d) == 3g - 3 + len(d)."""
    n = len(d)
    if g == 0 and n == 3:
        return Fraction(1)
    if g == 1 and n == 1:
        return Fraction(1, 24)
    key = (g, d)
    val = _cache.get(key)
    if val is not None:
        return val

    if d[-1] == 0 and _stable(g, n - 1):
        # string equation
        rest = d[:-1]
        total = _ZERO
        for j in range(len(rest)):
            if rest[j] == 0:
                continue
            total += _corr_checked(g, rest[:j] + (rest[j] - 1,) + rest[j + 1 :])
        _cache[key] = total
        return total

    if d[-1] == 1 and _stable(g, n - 1) and n >= 2:
        # dilaton equation
        total = (2 * g - 2 + (n - 1)) * _corr_checked(g, d[:-1])
        _cache[key] = total
        return total

    # DVV recursion on the largest index
    k = d[0]
    rest = d[1:]
    total = _ZERO
    seen = set()
    for j in range(len(rest)):
        dj = rest[j]
        if dj in seen:
            continue
        seen.add(dj)
        mult = sum(1 for x in rest if x == dj)
        merged = rest[:j] + (k + dj - 1,) + rest[j + 1 :]
        total += (
            mult
            * Fraction(double_factorial(2 * (k + dj) - 1), double_factorial(2 * dj - 1))
            * _corr_checked(g, merged)
        )
    if k >= 2:
        groups = tuple(sorted({x: rest.count(x) for x in rest}.items()))
        half = _ZERO
        for a in range(k - 1):
            b = k - 2 - a
            w = double_factorial(2 * a + 1) * double_factorial(2 * b + 1)
            term = _corr_checked(g - 1, rest + (a, b)) if g >= 1 else _ZERO
            split = _ZERO
            for left, right, weight in _submultisets(groups):
                for g1 in range(g + 1):
                    g2 = g - g1
                    c1 = _corr_checked(g1, left + (a,))
                    if c1 == 0:
                        continue
                    c2 = _corr_checked(g2, right + (b,))
                    if c2 == 0:
                        continue
                    split += weight * c1 * c2
            half += w * (term + split)
        total += half / 2
    total = total / double_factorial(2 * k + 1)
    _cache[key] = total
    return total


def _corr_checked(g: int, d: Iterable[int]) -> Fraction:
    d = tuple(sorted(d, reverse=True))
    n = len(d)
    if not _stable(g, n):
        return _ZERO
    if sum(d) != 3 * g - 3 + n:
        return _ZERO
    return _corr(g, d)


def correlator(g: int, d: Sequence[int]) -> Fraction:
    """Exact <tau_{d_1} ... tau_{d_n}>_g; zero off the dimension constraint."""
    d = tuple(int(x) for x in d)
    n = len(d)
    if any(x < 0 for x in d):
        raise ValueError("negative exponent")
    if not _stable(g, n):
        raise ValueError("unstable (g, n) = (%d, %d)" % (g, n))
    if sum(d) != 3 * g - 3 + n:
        return Fraction(0)
    return _corr(g, tuple(sorted(d, reverse=True)))


def one_point_closed_form(g: int) -> Fraction:
    """<psi^{3g-2}>_g = 1 / (24^g g!)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    return Fraction(1, 24 ** g * factorial(g))


def normalized_bracket(g: int, d: Sequence[int]) -> Fraction:
    """[tau_{d_1} ... tau_{d_n}] = 2^{3g-3+n} prod (2d_i+1)!/d_i! * <tau_d>."""
    d = tuple(int(x) for x in d)
    n = len(d)
    pref = Fraction(2 ** (3 * g - 3 + n))
    for x in d:
        pref *= Fraction(factorial(2 * x + 1), factorial(x))
    return pref * correlator(g, d)


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
