"""Exact rational arithmetic and even zeta values as rational multiples of pi powers."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial as _factorial, inf, isfinite, pi as _PI
from sys import float_info
from typing import Tuple

__all__ = [
    "ExactnessError",
    "IndeterminateError",
    "PiRational",
    "bernoulli",
    "zeta_even",
    "factorial",
    "double_factorial",
    "binomial",
]


class ExactnessError(ValueError, AssertionError):
    """An exact result failed an invariant the formulas guarantee, such as
    its power of pi.  Raised explicitly, so ``python -O`` keeps the check."""


class IndeterminateError(ValueError):
    """The requested ratio is indeterminate: 0/0 on a graph with no edge, a
    sum of convergent and divergent series, or a negative exponent after the
    shift.  ``mvq`` exits 2 on it, where other ValueErrors exit 1."""


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # tables of power-of-two length: a run over n = 2, 4, ..., N costs about one table
    return _even_bernoulli(1 << (n // 2 - 1).bit_length())[n // 2 - 1]


@lru_cache(maxsize=None)
def _even_bernoulli(count: int) -> Tuple[Fraction, ...]:
    """B_2, B_4, ..., B_{2 count} from the tangent numbers T_j of Brent and
    Harvey's integer loop: B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1))."""
    t = [0] + [_factorial(j - 1) for j in range(1, count + 1)]
    for i in range(2, count + 1):
        for j in range(i, count + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return tuple(
        Fraction((-1) ** (j - 1) * 2 * j * t[j], 4 ** j * (4 ** j - 1))
        for j in range(1, count + 1)
    )


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of negative integer")
    return _factorial(n)


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1 (empty products)."""
    if n < -1:
        raise ValueError("double factorial defined for n >= -1")
    m = (n + 1) // 2  # (2m)!! = 2^m m! and (2m-1)!! = (2m)! / (2m)!!
    return _factorial(m) << m if n % 2 == 0 else _factorial(n + 1) // (_factorial(m) << m)


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


# pi to 60 decimal digits: p times its relative error stays far below a float ulp
_PI_60 = Fraction(3141592653589793238462643383279502884197169399375105820974944, 10 ** 60)


class PiRational:
    """Exact value q * pi^p with q rational.

    Values produced by the volume pipeline always have even nonnegative
    pi_power; a few display helpers (e.g. 1/zeta quotients) use negative
    powers.  Zero is canonical: coeff == 0 forces pi_power == 0.
    """

    __slots__ = ("coeff", "pi_power")

    def __init__(self, coeff, pi_power: int = 0):
        coeff = Fraction(coeff)
        if coeff == 0:
            pi_power = 0
        self.coeff = coeff
        self.pi_power = int(pi_power)

    @staticmethod
    def zero() -> "PiRational":
        return PiRational(0, 0)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __add__(self, other: "PiRational") -> "PiRational":
        if not isinstance(other, PiRational):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.pi_power != other.pi_power:
            raise ValueError(
                "cannot add PiRational values with pi powers %d and %d"
                % (self.pi_power, other.pi_power)
            )
        return PiRational(self.coeff + other.coeff, self.pi_power)

    def __sub__(self, other: "PiRational") -> "PiRational":
        return self + (-other)

    def __neg__(self) -> "PiRational":
        return PiRational(-self.coeff, self.pi_power)

    def __mul__(self, other):
        if isinstance(other, PiRational):
            return PiRational(self.coeff * other.coeff, self.pi_power + other.pi_power)
        if isinstance(other, (int, Fraction)):
            return PiRational(self.coeff * other, self.pi_power)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiRational):
            if other.is_zero():
                raise ZeroDivisionError
            return PiRational(self.coeff / other.coeff, self.pi_power - other.pi_power)
        if isinstance(other, (int, Fraction)):
            return PiRational(self.coeff / other, self.pi_power)
        return NotImplemented

    def inverse(self) -> "PiRational":
        if self.is_zero():
            raise ZeroDivisionError
        return PiRational(1 / self.coeff, -self.pi_power)

    def rational(self, pi_power: int) -> Fraction:
        """The coefficient, after checking that the value is q * pi^pi_power."""
        if self.pi_power != pi_power and not self.is_zero():
            raise ExactnessError(
                "expected pi power %d, got %r" % (pi_power, self)
            )
        return self.coeff

    def __eq__(self, other) -> bool:
        if isinstance(other, PiRational):
            return self.coeff == other.coeff and self.pi_power == other.pi_power
        if isinstance(other, (int, Fraction)):
            return self.pi_power == 0 and self.coeff == other
        return NotImplemented

    def __hash__(self):
        return hash((self.coeff, self.pi_power))

    def __float__(self) -> float:
        """float(q) * pi^p where float(q) is a normal float and the product
        is finite; else q * pi^p with pi to 60 digits, rounded once, which
        is +-inf beyond the float range."""
        try:
            q = float(self.coeff)
            x = q * _PI ** self.pi_power
        except OverflowError:
            q = x = inf
        if isfinite(x) and (abs(q) >= float_info.min or self.is_zero()):
            return x
        try:
            return float(self.coeff * _PI_60 ** self.pi_power)
        except OverflowError:
            return inf if self.coeff > 0 else -inf

    def __repr__(self) -> str:
        return "PiRational(%s, %d)" % (self.coeff, self.pi_power)

    def __str__(self) -> str:
        if self.pi_power == 0:
            return str(self.coeff)
        return "%s · π^%d" % (self.coeff, self.pi_power)

    def to_json(self) -> dict:
        return {"coeff": str(self.coeff), "pi_power": self.pi_power}

    @staticmethod
    def from_json(obj: dict) -> "PiRational":
        return PiRational(Fraction(obj["coeff"]), int(obj["pi_power"]))


@lru_cache(maxsize=None)
def zeta_even(two_m: int) -> PiRational:
    """zeta(2m) = (-1)^{m+1} B_{2m} (2 pi)^{2m} / (2 (2m)!), exactly."""
    if two_m <= 0 or two_m % 2 != 0:
        raise ValueError("argument must be a positive even integer")
    m = two_m // 2
    coeff = (
        (-1) ** (m + 1)
        * bernoulli(two_m)
        * Fraction(2 ** two_m, 2 * _factorial(two_m))
    )
    return PiRational(coeff, two_m)
