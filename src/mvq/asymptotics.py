"""Large-genus machinery: normalized 2-correlators, one-loop and separating
contributions, multiple harmonic sums, gamma-series coefficients, and the
Poisson model for the number of cylinders.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, List, NamedTuple, Tuple

from .correlators import epsilon_d
from .exact_arith import (
    _PI_60,
    PiRational,
    binomial,
    double_factorial,
    factorial,
    zeta_even,
)
from .multicurve_stats import cylinder_distribution
from .stable_graphs import StableGraph
from .volume_engine import vol_graph

EULER_GAMMA = 0.5772156649015329  # float(mpmath.euler)


# ---------------------------------------------------------------------------
# normalized 2-correlators a_{g,k}

class AgkSequence(NamedTuple):
    g: int
    values: Tuple[Fraction, ...]  # a_{g,0} .. a_{g,3g-1}


def _agk_difference(g: int, k: int) -> Fraction:
    """Explicit value of a_{g,k+1} - a_{g,k} for 0 <= k <= [(3g-1)/2] - 1."""
    pref = Fraction(double_factorial(6 * g - 3 - 2 * k), double_factorial(6 * g - 1))
    if k % 3 == 2:
        j = (k + 1) // 3
        return pref * Fraction(
            double_factorial(6 * j - 1) * factorial(g - 1) * (g - 2 * j),
            factorial(j) * factorial(g - j),
        )
    if k % 3 == 0:
        j = k // 3
        return pref * Fraction(
            -2 * double_factorial(6 * j + 1) * factorial(g - 1),
            factorial(j) * factorial(g - 1 - j),
        )
    j = (k - 1) // 3
    return pref * Fraction(
        2 * double_factorial(6 * j + 3) * factorial(g - 1),
        factorial(j) * factorial(g - 1 - j),
    )


@lru_cache(maxsize=None)
def agk_by_recursion(g: int) -> AgkSequence:
    """Build a_{g,0..3g-1} from a_{g,0}=1 via the three-case difference
    formula, extended by the symmetry a_{g,k} = a_{g,3g-1-k}."""
    if g < 1:
        raise ValueError("need g >= 1")
    half = (3 * g - 1) // 2
    vals: List[Fraction] = [Fraction(1)]
    for k in range(half):
        vals.append(vals[-1] + _agk_difference(g, k))
    full = [Fraction(0)] * (3 * g)
    for k in range(half + 1):
        full[k] = vals[k]
        full[3 * g - 1 - k] = vals[k]
    return AgkSequence(g, tuple(full))


def agk_from_correlators(g: int) -> AgkSequence:
    """Same sequence computed directly from 2-point intersection numbers:
    a_{g,k} = [tau_k tau_{3g-1-k}]_g / [tau_0 tau_{3g-1}]_g = 1 + epsilon_d."""
    return AgkSequence(g, tuple(1 + epsilon_d(g, (k, 3 * g - 1 - k)) for k in range(3 * g)))


# ---------------------------------------------------------------------------
# one-loop graph and separating contributions

def vol_gamma1_exact(g: int) -> PiRational:
    """Exact volume contribution of the one-vertex one-loop stable graph in
    genus g."""
    return _gamma1_coeff(g) * zeta_even(6 * g - 6)


def _gamma1_coeff(g: int) -> Fraction:
    """vol_gamma1_exact(g) / zeta(6g-6), via the 2-point correlators of genus
    h = g-1: summed over k, <tau_k tau_{3h-1-k}>_h / (k! (3h-1-k)!) is
    a_{h,k} C(6h, 2k+1) over 6h (3h-1)! 24^h h!, the a_{h,k} over one
    common denominator."""
    if g < 2:
        raise ValueError("need g >= 2")
    h = g - 1
    a = agk_by_recursion(h).values
    den = math.lcm(*(x.denominator for x in a))
    num = sum(x.numerator * (den // x.denominator) * binomial(6 * h, 2 * k + 1)
              for k, x in enumerate(a))
    S = Fraction(num, den * 6 * h * factorial(3 * h - 1) * 24 ** h * factorial(h))
    return 2 ** (g + 1) * factorial(4 * g - 4) * S


def vol_gamma1_asymptotic(g: int) -> float:
    """Leading-order approximation to float(vol_gamma1_exact(g))."""
    return math.sqrt(2 / (3 * math.pi * g)) * (8 / 3) ** (4 * g - 4)


def vol_delta(g1: int, g2: int) -> PiRational:
    """Exact volume contribution of the two-vertex one-edge stable graph with
    vertex genera g1 and g2."""
    return _delta_coeff(g1, g2) * zeta_even(6 * (g1 + g2) - 6)


def _delta_coeff(g1: int, g2: int) -> Fraction:
    """vol_delta(g1, g2) / zeta(6g-6), g = g1 + g2."""
    g = g1 + g2
    aut = 2 if g1 == g2 else 1
    return (
        Fraction(4, aut)
        * binomial(4 * g - 4, g)
        * Fraction(1, 12 ** g)
        * binomial(g, g1)
        * binomial(3 * g - 4, 3 * g1 - 2)
    )


def sep_nonsep_ratio(g: int) -> Tuple[Fraction, Fraction]:
    """Exact and leading-order asymptotic ratio between the total separating
    and the non-separating one-edge contributions in genus g.  Both carry the
    factor zeta(6g-6), so the exact ratio is one of their coefficients and
    needs no Bernoulli number."""
    total = sum(_delta_coeff(g1, g - g1) for g1 in range(1, g // 2 + 1))
    return total / _gamma1_coeff(g), sep_nonsep_asymptotic(g)


def sep_nonsep_asymptotic(g: int) -> Fraction:
    """sqrt(2/(3 pi g)) / 4^g: the float square root over the exact 4^g, a
    Fraction that neither overflows nor underflows where a float would."""
    return Fraction(math.sqrt(2 / (3 * math.pi * g))) / 4 ** g


def vol_gamma_k(g: int, k: int) -> PiRational:
    """Exact volume contribution of the one-vertex k-loop stable graph."""
    if not 1 <= k:
        raise ValueError("need k >= 1")
    if g - k < 0 or 2 * (g - k) - 2 + 2 * k <= 0:
        raise ValueError("unstable")
    graph = StableGraph((g - k,), ((0, 0),) * k, ())
    return vol_graph(graph)


# ---------------------------------------------------------------------------
# multiple harmonic sums
#
# sum_m H_k(m) x^m = (-log(1-x))^k = k! sum_m |s(m,k)| x^m / m!, with s the
# Stirling numbers of the first kind, and sum_m Z_k(m) x^m = L^k with
# L = sum_j zeta(2j) x^j / j.  Both are computed by loops, not recursion.

def _check(k: int, m: int) -> None:
    if k < 0 or m < 0:
        raise ValueError("k and m must be nonnegative")


def _stirling_rows(k: int, m: int) -> Iterator[List[int]]:
    """Yield the rows n = 0..m of |s(n, r)| (entry r, for r <= k), one list
    updated in place by |s(n+1, r)| = n |s(n, r)| + |s(n, r-1)|.  Only the
    entries from which (m, k) can still be reached are kept up to date."""
    row = [1] + [0] * (k + 1)  # the trailing 0 is |s(n, -1)|, read as row[-1]
    yield row
    for n in range(m):
        # top down, so that row[r - 1] still holds |s(n, r - 1)|
        for r in range(min(n + 1, k), max(k - (m - n - 1), 0) - 1, -1):
            row[r] = n * row[r] + row[r - 1]
        yield row


def _series_powers(c: List, k: int, span: int) -> List[List]:
    """rows[i][s] = [x^(i+s)] f^i for i = 0..k and s < span, where
    f = sum_u c[u] x^(u+1); a row stops at the last degree f^i reaches."""
    rows = [[1]]
    for _ in range(k):
        prev = rows[-1]
        rows.append([
            sum(c[u] * prev[s - u]
                for u in range(max(s - len(prev) + 1, 0), min(s + 1, len(c))))
            for s in range(min(len(prev) + len(c) - 1, span))
        ])
    return rows


def harmonic_H(k: int, m: int) -> Fraction:
    """H_k(m) = sum over j_1+...+j_k = m, j_i >= 1, of prod 1/j_i (exact),
    which is k! |s(m, k)| / m!."""
    _check(k, m)
    *_, row = _stirling_rows(k, m)
    return Fraction(factorial(k) * row[k], factorial(m))


def harmonic_Z(k: int, m: int) -> PiRational:
    """Z_k(m) = sum over j_1+...+j_k = m of prod zeta(2 j_i)/j_i (exact,
    a rational multiple of pi^(2m))."""
    _check(k, m)
    if not 0 < k <= m:
        return PiRational(int(k == m))
    span = m - k + 1
    c = [zeta_even(2 * j).rational(2 * j) / j for j in range(1, span + 1)]
    # the last factor is needed at degree m alone
    prev = _series_powers(c, k - 1, span)[-1]
    total = sum(c[u] * prev[span - 1 - u] for u in range(span - len(prev), span))
    return PiRational(total, 2 * m)


@lru_cache(maxsize=None)
def _deltas() -> Tuple[float, ...]:
    """delta_j = (zeta(2j) - 1)/j for j = 1..28, each from the exact zeta(2j)
    with pi to 60 digits, rounded once; zeta(2j) - 1 < 2^-56 beyond j = 28."""
    return tuple(float((zeta_even(2 * j).coeff * _PI_60 ** (2 * j) - 1) / j) for j in range(1, 29))


def _float_sums(k: int, m: int) -> Tuple[float, float]:
    """(H_k(m), Z_k(m)) in floats from one pass over the Stirling rows.
    L = -log(1-x) + delta(x) with delta_j = (zeta(2j) - 1)/j, so
    Z_k(m) = sum_i C(k, i) sum_t delta^i[t] H_{k-i}(m-t)."""
    _check(k, m)
    if k > m:
        return 0.0, 0.0
    first = max(m - 28 * k, 0)
    h = {}  # h[n, r] = H_r(n) for the (n, r) that reach (m, k)
    for n, row in enumerate(_stirling_rows(k, m)):
        if n >= first:
            fact = fact * n if n > first else factorial(n)
            for r in range(max(k - m + n, 0), min(n, k) + 1):
                h[n, r] = factorial(r) * row[r] / fact
    z = sum(
        binomial(k, i) * d * h[m - i - s, k - i]
        for i, power in enumerate(_series_powers(_deltas(), k, m - k + 1))
        for s, d in enumerate(power)
    )
    return h[m, k], z


def harmonic_H_float(k: int, m: int) -> float:
    """Float evaluation of H_k(m), suitable for large m."""
    return _float_sums(k, m)[0]


def harmonic_Z_float(k: int, m: int) -> float:
    """Float evaluation of Z_k(m)/pi^(2m) rescaled by zeta values directly:
    returns the numeric value of sum prod zeta(2 j_i)/j_i."""
    return _float_sums(k, m)[1]


# ---------------------------------------------------------------------------
# gamma-series coefficients A_j, B_j

class SeriesCoefficients(NamedTuple):
    c: Tuple[float, ...]
    A: Tuple[float, ...]
    B: Tuple[float, ...]


@lru_cache(maxsize=None)
def _c_exact(max_j: int) -> Tuple[mpmath.mpf, ...]:
    """Taylor coefficients of Gamma(1+x) at 0, from exponentiating the
    log-Gamma series -gamma x + sum (-1)^n zeta(n) x^n / n."""
    import mpmath

    with mpmath.workdps(40):
        l = [mpmath.mpf(0), -mpmath.euler]
        for n in range(2, max_j + 1):
            l.append((-1) ** n * mpmath.zeta(n) / n)
        c = [mpmath.mpf(1)]
        for n in range(1, max_j + 1):
            c.append(sum(k * l[k] * c[n - k] for k in range(1, n + 1)) / n)
        return tuple(c)


def series_coeffs(max_j: int) -> SeriesCoefficients:
    """Taylor coefficients c_j of the gamma function at 1, and the derived
    sequences A_j (series inverse) and B_j (log-2 twisted inverse)."""
    import mpmath

    if max_j < 0:
        raise ValueError("max_j must be nonnegative")
    with mpmath.workdps(40):
        c = _c_exact(max_j)
        A: List[mpmath.mpf] = [mpmath.mpf(1)]
        B: List[mpmath.mpf] = [mpmath.mpf(1)]
        log2 = mpmath.log(2)
        for j in range(1, max_j + 1):
            A.append(-sum(A[j - i] * c[i] for i in range(1, j + 1)))
            B.append(
                log2 ** j / mpmath.factorial(j)
                - sum(B[j - i] * c[i] for i in range(1, j + 1))
            )
        return SeriesCoefficients(
            tuple(float(x) for x in c),
            tuple(float(x) for x in A),
            tuple(float(x) for x in B),
        )


# ---------------------------------------------------------------------------
# Poisson model for the number of cylinders

def poisson_lambda(g: int) -> float:
    if g < 2:
        raise ValueError(f"the Poisson model needs g >= 2, got g = {g}")
    return (math.log(6 * g - 6) + EULER_GAMMA) / 2 + (math.log(2) - 1)


class PoissonModel(NamedTuple):
    lam: float
    pmf: Callable[[int], float]
    tv_distance: float


def poisson_model(g: int) -> PoissonModel:
    """Poisson(lambda(g)) model for the number of cylinders (shifted by one),
    with total-variation distance to the exact cylinder distribution when the
    latter is computable (n=0, small g)."""
    lam = poisson_lambda(g)

    def pmf(k: int) -> float:
        if k < 1:
            return 0.0
        return math.exp(-lam) * lam ** (k - 1) / factorial(k - 1)

    tv = float("nan")
    if 2 <= g <= 4:
        exact = cylinder_distribution(g, 0)
        kmax = max(exact) + 60
        tv = 0.5 * sum(
            abs(float(exact.get(k, 0)) - pmf(k)) for k in range(1, kmax)
        )
    return PoissonModel(lam, pmf, tv)
