"""Exact rational arithmetic and even zeta values as rational multiples of pi powers."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial as _factorial, pi as _PI

__all__ = [
    "ExactnessError",
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


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), via the defining recurrence
    sum_{k=0}^{n} C(n+1, k) B_k = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    s = Fraction(0)
    for k in range(n):
        s += comb(n + 1, k) * bernoulli(k)
    return -s / (n + 1)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of negative integer")
    return _factorial(n)


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1 (empty products)."""
    if n < -1:
        raise ValueError("double factorial defined for n >= -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


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
        return float(self.coeff) * _PI ** self.pi_power

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
