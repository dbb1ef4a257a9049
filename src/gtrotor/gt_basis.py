"""Gelfand-Tsetlin patterns for sl3: enumeration, interlacing, shifts, norms.

A highest weight is a zero-sum triple (l31, l32, l33) whose consecutive
differences are nonnegative integers.  A pattern adds the middle row
(l21, l22) and bottom entry l11, every difference of adjacent entries again a
nonnegative integer.  The canonical basis order is ascending lexicographic on
(l21, l22, l11), which makes every matrix in the package reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .numerics import Exact, as_int, format_rational, rational


class InvalidWeight(ValueError):
    """Triple fails the highest-weight conditions."""


def _is_nonneg_int(value) -> bool:
    try:
        return as_int(value) >= 0
    except ValueError:
        return False


@dataclass(frozen=True)
class HighestWeight:
    l31: Exact
    l32: Exact
    l33: Exact

    def __post_init__(self):
        if not _is_nonneg_int(self.l31 - self.l32):
            raise InvalidWeight(f"l31-l32 not a nonnegative integer in {self}")
        if not _is_nonneg_int(self.l32 - self.l33):
            raise InvalidWeight(f"l32-l33 not a nonnegative integer in {self}")
        if self.l31 + self.l32 + self.l33 != 0:
            raise InvalidWeight(f"entries do not sum to zero in {self}")

    @classmethod
    def of(cls, l31, l32, l33) -> "HighestWeight":
        return cls(rational(l31), rational(l32), rational(l33))

    @classmethod
    def from_row_lengths(cls, a: int, b: int) -> "HighestWeight":
        """Weight with l31-l32 = a and l32-l33 = b (Young rows a+b, b)."""
        return cls.of(
            rational(2 * a + b, 3), rational(b - a, 3), -rational(a + 2 * b, 3)
        )

    @classmethod
    def parse(cls, text: str) -> "HighestWeight":
        from .numerics import parse_rational

        parts = [parse_rational(p) for p in text.split(",")]
        if len(parts) != 3:
            raise InvalidWeight(f"weight needs three entries, got {text!r}")
        return cls(*parts)

    @property
    def height(self) -> int:
        return as_int(self.l31 - self.l33)

    def __str__(self) -> str:
        return ",".join(format_rational(v) for v in (self.l31, self.l32, self.l33))


@dataclass(frozen=True)
class GTPattern:
    weight: HighestWeight
    l21: Exact
    l22: Exact
    l11: Exact

    def is_valid(self) -> bool:
        w = self.weight
        diffs = (
            w.l31 - self.l21,
            self.l21 - w.l32,
            w.l32 - self.l22,
            self.l22 - w.l33,
            self.l21 - self.l11,
            self.l11 - self.l22,
        )
        return all(_is_nonneg_int(d) for d in diffs)

    def __str__(self) -> str:
        w = self.weight
        top = " ".join(format_rational(v) for v in (w.l31, w.l32, w.l33))
        mid = " ".join(format_rational(v) for v in (self.l21, self.l22))
        return f"[{top} / {mid} / {format_rational(self.l11)}]"


# Elementary pattern shifts as (d11, d21, d22); sums are composed shifts.
D11_UP = (1, 0, 0)
D11_DOWN = (-1, 0, 0)
D21_UP = (0, 1, 0)
D21_DOWN = (0, -1, 0)
D22_UP = (0, 0, 1)
D22_DOWN = (0, 0, -1)
D21_D11_UP = (1, 1, 0)
D21_D11_DOWN = (-1, -1, 0)
D22_D11_UP = (1, 0, 1)
D22_D11_DOWN = (-1, 0, -1)

PatternShift = tuple


def shift(p: GTPattern, s: PatternShift) -> Optional[GTPattern]:
    """Shifted pattern, or None when interlacing breaks (callers treat None
    as annihilating the coefficient)."""
    d11, d21, d22 = s
    q = GTPattern(p.weight, p.l21 + d21, p.l22 + d22, p.l11 + d11)
    return q if q.is_valid() else None


def weyl_dimension(weight: HighestWeight) -> int:
    """Independent dimension count (product over positive roots)."""
    a = as_int(weight.l31 - weight.l32)
    b = as_int(weight.l32 - weight.l33)
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def lattice_coords(p: GTPattern) -> tuple:
    """(l21, l22, l11, l31, l32) minus l33, as ints.  Every difference of
    pattern entries is an integer; the weight sums to zero, so
    3 l33 = -(l31 - l33) - (l32 - l33) is one too.  The factorial arguments
    of the norms and of tau's t-factors, and its Racah parameters, are
    integer combinations of these five."""
    l33 = p.weight.l33
    return tuple(
        as_int(v - l33) for v in (p.l21, p.l22, p.l11, p.weight.l31, p.weight.l32)
    )


def _norm_squared(c) -> Exact:
    """norm_squared on the lattice coordinates c of a pattern."""
    x21, x22, x11, a, b = c
    f = math.factorial
    num = (
        f(x21 - x11) * f(a - x21) * f(a - x22 + 1) * f(a - b) * f(b) * f(x22)
        * f(a + 1) * f(x21 - b) * f(x21 + 1)
    )
    return rational(num, (x21 - x22 + 1) * f(x11 - x22) * f(b - x22))


def norm_squared(p: GTPattern) -> Exact:
    """Squared norm of the unnormalized basis vector attached to p:
    (l21-l11)! (l31-l21)! (l31-l22+1)! (l31-l32)! (l32-l33)! (l22-l33)!
    (l31-l33+1)! (l21-l32)! (l21-l33+1)! over
    (l21-l22+1) (l11-l22)! (l32-l22)!."""
    return _norm_squared(lattice_coords(p))


class IrrepBasis:
    """All GT patterns of a weight in canonical order, with an index map and
    the lattice_coords of every pattern (self.lattice, same order)."""

    def __init__(self, weight: HighestWeight, patterns, lattice):
        self.weight = weight
        self.patterns = tuple(patterns)
        self.lattice = tuple(lattice)
        self.index = {p: i for i, p in enumerate(self.patterns)}
        self.dim = len(self.patterns)
        self._norms_sq = None
        self._cache = {}

    def norms_sq(self):
        if self._norms_sq is None:
            self._norms_sq = tuple(_norm_squared(c) for c in self.lattice)
        return self._norms_sq

    def memo(self, key, build):
        """Per-basis cache for derived matrices (tau, generators, ...)."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __len__(self) -> int:
        return self.dim

    def __iter__(self):
        return iter(self.patterns)

    def __getitem__(self, i: int) -> GTPattern:
        return self.patterns[i]

    def index_of(self, p: GTPattern) -> int:
        return self.index[p]

    def __repr__(self) -> str:
        return f"IrrepBasis({self.weight}, dim={self.dim})"


def enumerate_patterns(weight: HighestWeight) -> IrrepBasis:
    """All valid patterns, ascending lex on (l21, l22, l11), walked on the
    lattice coordinates."""
    pats, lattice = [], []
    l33 = weight.l33
    a = as_int(weight.l31 - l33)
    b = as_int(weight.l32 - l33)
    for x21 in range(b, a + 1):
        l21 = l33 + x21
        for x22 in range(b + 1):
            l22 = l33 + x22
            for x11 in range(x22, x21 + 1):
                pats.append(GTPattern(weight, l21, l22, l33 + x11))
                lattice.append((x21, x22, x11, a, b))
    basis = IrrepBasis(weight, pats, lattice)
    if basis.dim != weyl_dimension(weight):
        raise AssertionError(f"enumeration disagrees with dimension for {weight}")
    return basis


@lru_cache(maxsize=None)
def basis_for(weight: HighestWeight) -> IrrepBasis:
    return enumerate_patterns(weight)


def weights_up_to_height(max_height: int) -> Iterator[HighestWeight]:
    """All highest weights with l31 - l33 <= max_height, deterministic order."""
    for h in range(max_height + 1):
        for a in range(h + 1):
            yield HighestWeight.from_row_lengths(a, h - a)
