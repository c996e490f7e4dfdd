"""Closed forms and checks from the paper that the tests compare `mvq` with.

No subcommand and no module of the package calls these formulas; each test
that checks one imports it from here.  They are grouped by the module whose
results they check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _iproduct
from typing import Dict, Sequence, Tuple

from mvq.asymptotics import EULER_GAMMA, _float_sums, series_coeffs, vol_gamma1_exact
from mvq.correlators import correlator
from mvq.exact_arith import PiRational, binomial, factorial, zeta_even
from mvq.multicurve_stats import vol_multicurve
from mvq.stable_graphs import StableGraph
from mvq.volume_engine import Poly, _vertex_factor


# ---------------------------------------------------------------------------
# correlators

def one_point_closed_form(g: int) -> Fraction:
    """<psi^{3g-2}>_g = 1 / (24^g g!)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    return Fraction(1, 24 ** g * factorial(g))


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


# ---------------------------------------------------------------------------
# volume_engine

def kontsevich_poly(g: int, n: int) -> Poly:
    """Top-degree part of the Weil-Petersson volume polynomial: a homogeneous
    symmetric polynomial of degree 6g-6+2n in the n boundary lengths."""
    if n < 1 or 2 * g - 2 + n <= 0:
        raise ValueError("unstable (g, n)")
    den, terms = _vertex_factor(g, 0, n)
    return {expo: Fraction(num, den) for expo, num in terms}


# ---------------------------------------------------------------------------
# multicurve_stats

def separating_frequency(g: int, g1: int) -> Fraction:
    """Closed form for the frequency of a simple closed curve separating a
    closed genus-g surface into pieces of genus g1 and g - g1."""
    if not 1 <= g1 <= g - 1:
        raise ValueError("need 1 <= g1 <= g-1")
    g2 = g - g1
    aut = 2 if g1 == g2 else 1
    denom = (
        aut
        * 2 ** (3 * g - 4)
        * 24 ** g
        * factorial(g1)
        * factorial(g2)
        * factorial(3 * g1 - 2)
        * factorial(3 * g2 - 2)
        * (6 * g - 6)
    )
    return Fraction(1, denom)


def b0n_closed_form(n: int) -> PiRational:
    """Genus-zero closed form (pi/2)^(2(n-3)) / (n-3)!."""
    if n < 4:
        raise ValueError("need n >= 4")
    return PiRational(
        Fraction(1, factorial(n - 3) * 4 ** (n - 3)), 2 * (n - 3)
    )


def prob_unit_heights_one_cyl(g: int, n: int) -> PiRational:
    """Probability that a one-cylinder surface has cylinder height 1; equals
    1/zeta(6g-6+2n) exactly."""
    return zeta_even(6 * g - 6 + 2 * n).inverse()


def ztilde_integral(graph: StableGraph, H: Sequence[int]) -> Fraction:
    """Exact integral of the density over the simplex: equals op_Y(H, P)/d!
    with d = 6g-6+2n, the homogeneity degree plus the number of edges
    (Dirichlet integral, monomial by monomial)."""
    d = 6 * graph.genus - 6 + 2 * graph.num_legs
    return vol_multicurve(graph, H) / factorial(d)


# ---------------------------------------------------------------------------
# asymptotics

def rpq(g: int, j: int) -> Tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """(R, P1, P2, P3, Q): the factored form of the difference formula."""
    R = Fraction(binomial(3 * g, 3 * j) * binomial(g, j), binomial(6 * g, 6 * j))
    P1 = Fraction((6 * g - 6 * j - 1) * (6 * g - 6 * j - 3) * (g - 2 * j))
    P2 = Fraction(-2 * (6 * g - 6 * j - 3) * (6 * j + 1) * (g - j))
    P3 = Fraction(2 * (6 * j + 1) * (6 * j + 3) * (g - j))
    Q = Fraction(g * (6 * g - 6 * j - 1) * (6 * g - 6 * j - 3))
    return R, P1, P2, P3, Q


def vol_gamma1_bounds(g: int) -> Tuple[Fraction, Fraction, Fraction]:
    """(lower, value, upper) for Vol Gamma_1(g+1)/zeta(6g): the exact ratio
    sandwiched by C(4g,g)(2^4/3)^g (1 - 2/(6g-1)) and C(4g,g)(2^4/3)^g."""
    ratio = (vol_gamma1_exact(g + 1) / zeta_even(6 * g)).rational(0)
    upper = binomial(4 * g, g) * Fraction(16, 3) ** g
    lower = upper * (1 - Fraction(2, 6 * g - 1))
    return lower, ratio, upper


def sum_binomial_products(g: int) -> int:
    """S(g) = sum over g1 of C(g,g1) C(3g-4,3g1-2), asymptotic to
    2^{4g-4} sqrt(2/(3 pi g))... i.e. S(g) sqrt(6 pi g)/2^{4g-4} -> 1."""
    return sum(
        binomial(g, g1) * binomial(3 * g - 4, 3 * g1 - 2) for g1 in range(1, g)
    )


def series_checks(terms: int = 60) -> Dict[str, Tuple[float, float]]:
    """Partial sums of the A_j/B_j series against their closed forms.
    Returns name -> (computed, closed_form)."""
    sc = series_coeffs(terms)
    gamma = EULER_GAMMA
    log2 = math.log(2)
    sqrtpi = math.sqrt(math.pi)
    sumA = sum(sc.A[j] / 2 ** j for j in range(terms + 1))
    sumB = sum(sc.B[j] / 2 ** j for j in range(terms + 1))
    sumjA = sum(j * sc.A[j] / 2 ** (j - 1) for j in range(1, terms + 1))
    sumjB = sum(j * sc.B[j] / 2 ** (j - 1) for j in range(1, terms + 1))
    return {
        "sum_A": (sumA, 2 / sqrtpi),
        "sum_B": (sumB, 2 * math.sqrt(2 / math.pi)),
        "sum_jA": (sumjA, 2 * (2 * log2 + gamma - 2) / sqrtpi),
        "sum_jB": (sumjB, 2 * math.sqrt(2) * (3 * log2 + gamma - 2) / sqrtpi),
    }


def expansion_residual(k: int, m: int) -> Tuple[float, float]:
    """(eps_k^H, eps_k^Z): residuals of the exact harmonic sums against their
    (k!/m) * sum_j {A,B}_j (log m)^{k-1-j}/(k-1-j)!  expansions."""
    sc = series_coeffs(k + 1)
    logm = math.log(m)
    expansion_A = sum(
        sc.A[j] * logm ** (k - 1 - j) / factorial(k - 1 - j) for j in range(k)
    )
    expansion_B = sum(
        sc.B[j] * logm ** (k - 1 - j) / factorial(k - 1 - j) for j in range(k)
    )
    h, z = _float_sums(k, m)
    eps_h = m * h / factorial(k) - expansion_A
    eps_z = m * z / factorial(k) - expansion_B
    return eps_h, eps_z
