"""Exact scalar tower: arbitrary-precision rationals, factorials, Pochhammer
symbols, and exact points on the unit circle.

Exact values are plain rationals (gmpy2.mpq when available, fractions.Fraction
otherwise); approximate values are Python floats.  The two never mix inside a
matrix: mixed arithmetic promotes to float at the call site that introduced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _mpq = Fraction


class InvalidFactorialArgument(ValueError):
    """Factorial of a negative (or non-integral) argument was requested."""


class NotOnUnitCircle(ValueError):
    """sin^2 + cos^2 != 1 for a would-be exact angle."""


def rational(num, den=1):
    """Exact rational in lowest terms with positive denominator."""
    return _mpq(num, den)


ZERO = rational(0)
ONE = rational(1)

Exact = type(ONE)
Scalar = Union[Exact, int, float]


def is_exact(value) -> bool:
    return not isinstance(value, float)


def parse_rational(text: str):
    """Parse 'p/q' or 'p' into an exact rational."""
    return rational(Fraction(text.strip()))


def format_rational(value) -> str:
    """Render an exact value as 'p' or 'p/q' (used by all serializers).
    Exact rationals are already in lowest terms; only other input (int) is
    coerced."""
    q = value if isinstance(value, Exact) else rational(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_int(value) -> int:
    """Exact value that must be an integer (formula exponents, indices)."""
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value != int(value):
            raise ValueError(f"not an integer: {value!r}")
        return int(value)
    if value.denominator != 1:
        raise ValueError(f"not an integer: {value!r}")
    return int(value.numerator)


def neg_one_pow(exponent) -> int:
    """(-1)**e for an integer-valued exact exponent."""
    return -1 if as_int(exponent) % 2 else 1


@lru_cache(maxsize=None)
def factorial(n: int):
    """n! as an exact rational; negative arguments are a caller bug."""
    n = as_int(n)
    if n < 0:
        raise InvalidFactorialArgument(f"factorial of negative argument {n}")
    return rational(math.factorial(n))


def pochhammer(a, k: int):
    """Rising factorial a(a+1)...(a+k-1); empty product is 1."""
    k = as_int(k)
    if k < 0:
        raise ValueError(f"pochhammer length must be >= 0, got {k}")
    out = ONE
    term = rational(a)
    for _ in range(k):
        out *= term
        term += 1
    return out


def binomial(n: int, k: int):
    n, k = as_int(n), as_int(k)
    if k < 0 or k > n:
        return ZERO
    return factorial(n) / (factorial(k) * factorial(n - k))


@dataclass(frozen=True)
class ExactOnCircle:
    """Angle given by an exact rational point (sin, cos) on the unit circle."""

    sin: Exact
    cos: Exact

    @property
    def exact(self) -> bool:
        return True

    def radians(self) -> float:
        return math.atan2(float(self.sin), float(self.cos))

    def __str__(self) -> str:
        return f"{format_rational(self.sin)}:{format_rational(self.cos)}"


@dataclass(frozen=True)
class Radians:
    """Angle given as a double-precision value in radians."""

    value: float

    @property
    def exact(self) -> bool:
        return False

    @property
    def sin(self) -> float:
        return math.sin(self.value)

    @property
    def cos(self) -> float:
        return math.cos(self.value)

    def radians(self) -> float:
        return self.value

    def __str__(self) -> str:
        return f"rad={self.value!r}"


Angle = Union[ExactOnCircle, Radians]

ZERO_ANGLE = ExactOnCircle(ZERO, ONE)


def exact_angle(s, c) -> ExactOnCircle:
    """Exact angle from rational sin and cos; rejects points off the circle."""
    s, c = rational(s), rational(c)
    if s * s + c * c != 1:
        raise NotOnUnitCircle(f"sin^2+cos^2 != 1 for sin={s}, cos={c}")
    return ExactOnCircle(s, c)


def parse_angle(text: str) -> Angle:
    """CLI angle syntax: 's:c' with rationals, or 'rad=<float>'."""
    text = text.strip()
    if text.startswith("rad="):
        return Radians(float(text[4:]))
    if ":" not in text:
        raise ValueError(f"angle must be 's:c' or 'rad=<float>', got {text!r}")
    s, c = text.split(":", 1)
    return exact_angle(parse_rational(s), parse_rational(c))


def sin_cos(angle: Angle):
    """(sin, cos, exact?) triple for either angle flavour."""
    if isinstance(angle, ExactOnCircle):
        return angle.sin, angle.cos, True
    return math.sin(angle.value), math.cos(angle.value), False
