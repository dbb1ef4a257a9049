"""Sparse matrices over the exact/float scalar tower, indexed by GT patterns.

Entries live in a dict keyed by (row, col) basis indices; absent means zero
and zeros are never stored, so dict equality is matrix equality.  A matrix is
either fully exact or fully float; the two kinds never mix entries.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .gt_basis import IrrepBasis
from .numerics import is_exact, rational


def _sqrt_float(v) -> float:
    """sqrt(v) for a positive exact v as a float, also where v itself
    overflows a float.  v / 4^k, with 4^k near v, is converted with one
    correctly rounded integer division; scaling by powers of two is exact,
    so in float range this equals sqrt(float(v)) bit for bit."""
    num, den = int(v.numerator), int(v.denominator)
    k = (num.bit_length() - den.bit_length()) // 2
    r = num / (den << 2 * k) if k >= 0 else (num << -2 * k) / den
    return math.ldexp(math.sqrt(r), k)


def norm_vector(basis: IrrepBasis) -> np.ndarray:
    """Float norms N_i of the basis vectors, built once per basis."""
    return basis.memo(
        ("norm_vector",),
        lambda: np.array([_sqrt_float(v) for v in basis.norms_sq()]),
    )


def _clean(entries):
    return {k: v for k, v in entries.items() if v != 0}


class PatternMatrix:
    """Square matrix on an IrrepBasis; immutable by convention after build."""

    __slots__ = ("basis", "exact", "entries")

    def __init__(self, basis: IrrepBasis, entries=None, exact: bool = True):
        self.basis = basis
        self.exact = exact
        self.entries = _clean(entries or {})
        if exact and any(not is_exact(v) for v in self.entries.values()):
            raise TypeError("float entry in exact matrix")

    @classmethod
    def _nonzero(cls, basis, entries, exact=True):
        """Matrix from entries already known to be nonzero and of the kind
        given by exact (rationals or floats)."""
        m = cls.__new__(cls)
        m.basis, m.exact, m.entries = basis, exact, entries
        return m

    @classmethod
    def zeros(cls, basis, exact=True):
        return cls(basis, {}, exact)

    @classmethod
    def identity(cls, basis, exact=True):
        one = rational(1) if exact else 1.0
        return cls(basis, {(i, i): one for i in range(basis.dim)}, exact)

    @classmethod
    def diagonal(cls, basis, values, exact=True):
        return cls(basis, {(i, i): v for i, v in enumerate(values)}, exact)

    @classmethod
    def from_numpy(cls, basis, array):
        arr = np.asarray(array, dtype=float)
        rows, cols = np.nonzero(arr)
        entries = dict(
            zip(zip(rows.tolist(), cols.tolist()), arr[rows, cols].tolist())
        )
        return cls._nonzero(basis, entries, exact=False)

    def get(self, i: int, j: int):
        return self.entries.get((i, j), rational(0) if self.exact else 0.0)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.basis.dim, self.basis.dim))
        n = len(self.entries)
        keys = np.fromiter(chain.from_iterable(self.entries), np.intp, 2 * n)
        out[keys[0::2], keys[1::2]] = np.fromiter(
            map(float, self.entries.values()), float, n
        )
        return out

    def zeta_numpy(self) -> np.ndarray:
        """Float matrix of the same operator in the orthonormal basis.

        Change-of-basis and algebra-element matrices conjugate the same way:
        entry (i, j) picks up N_i / N_j."""
        d = norm_vector(self.basis)
        return (d[:, None] * self.to_numpy()) / d[None, :]

    @classmethod
    def from_zeta_numpy(cls, basis, array) -> "PatternMatrix":
        """Inverse of zeta_numpy: a float matrix in the orthonormal basis
        carried back to the unnormalized one."""
        d = norm_vector(basis)
        return cls.from_numpy(basis, np.asarray(array, dtype=float) * d[None, :] / d[:, None])

    def to_float(self) -> "PatternMatrix":
        if not self.exact:
            return self
        return PatternMatrix(
            self.basis, {k: float(v) for k, v in self.entries.items()}, exact=False
        )

    def scaled(self, c) -> "PatternMatrix":
        exact = self.exact and is_exact(c)
        return PatternMatrix(
            self.basis, {k: c * v for k, v in self.entries.items()}, exact
        )

    def __neg__(self):
        return self.scaled(rational(-1) if self.exact else -1.0)

    def _binary(self, other, op):
        if self.basis.weight != other.basis.weight:
            raise ValueError("matrices live on different bases")
        exact = self.exact and other.exact
        a, b = self, other
        if not exact:
            a, b = self.to_float(), other.to_float()
        out = dict(a.entries)
        for k, v in b.entries.items():
            out[k] = op(out.get(k, 0), v)
        return PatternMatrix(self.basis, out, exact)

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __matmul__(self, other) -> "PatternMatrix":
        if self.basis.weight != other.basis.weight:
            raise ValueError("matrices live on different bases")
        if not (self.exact and other.exact):
            return PatternMatrix.from_numpy(
                self.basis, self.to_numpy() @ other.to_numpy()
            )
        return exact_product(self, other)

    def commutator(self, other) -> "PatternMatrix":
        return self @ other - other @ self

    def anticommutator(self, other) -> "PatternMatrix":
        return self @ other + other @ self

    def is_zero(self) -> bool:
        return not self.entries

    def is_identity(self) -> bool:
        return self == PatternMatrix.identity(self.basis, self.exact)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PatternMatrix)
            and self.basis.weight == other.basis.weight
            and self.exact == other.exact
            and self.entries == other.entries
        )

    __hash__ = None

    def max_abs(self) -> float:
        return max((abs(float(v)) for v in self.entries.values()), default=0.0)

    def max_abs_diff(self, other) -> float:
        keys = set(self.entries) | set(other.entries)
        return max(
            (abs(float(self.get(*k)) - float(other.get(*k))) for k in keys),
            default=0.0,
        )

    def items(self):
        return self.entries.items()

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "float"
        return f"PatternMatrix({self.basis.weight}, {kind}, nnz={self.nnz})"


def _integer_rows(m: PatternMatrix):
    """({i: {k: integer}}, d): the entries of m as integer numerators over
    one denominator d, the lcm of the entries' denominators."""
    d = math.lcm(*{v.denominator for v in m.entries.values()})
    rows = {}
    if d == 1:
        for (i, k), v in m.entries.items():
            rows.setdefault(i, {})[k] = v.numerator
    else:
        for (i, k), v in m.entries.items():
            rows.setdefault(i, {})[k] = v.numerator * (d // v.denominator)
    return rows, d


def _integer_matmul(a: dict, b: dict) -> dict:
    """Product of two integer row dicts; zero results are dropped."""
    out = {}
    for i, a_row in a.items():
        acc = {}
        for j, u in a_row.items():
            b_row = b.get(j)
            if b_row is None:
                continue
            for k, v in b_row.items():
                if k in acc:
                    acc[k] += u * v
                else:
                    acc[k] = u * v
        acc = {k: v for k, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def exact_product(*factors: PatternMatrix) -> PatternMatrix:
    """Exact product of one or more matrices on one basis, on Python ints.

    Each factor is scaled to integer numerators over its own common
    denominator (the lcm of its entries' denominators).  The integer chain
    is multiplied from the right with no intermediate reduction, and each
    nonzero entry of the result is divided once by D, the product of the
    factor denominators.  On sigma_product's chain, right to left was as
    fast as the cheapest association order and faster than left to right."""
    if not factors:
        raise ValueError("exact_product needs at least one factor")
    basis = factors[0].basis
    if any(f.basis.weight != basis.weight for f in factors):
        raise ValueError("matrices live on different bases")
    if not all(f.exact for f in factors):
        raise TypeError("exact_product needs exact matrices")
    rows, D = _integer_rows(factors[-1])
    for f in reversed(factors[:-1]):
        f_rows, d = _integer_rows(f)
        rows = _integer_matmul(f_rows, rows)
        D *= d
    return PatternMatrix._nonzero(
        basis,
        {(i, k): rational(v, D) for i, row in rows.items() for k, v in row.items()},
    )


def adjoint(m: PatternMatrix) -> PatternMatrix:
    """diag(N^2)^-1 m^T diag(N^2): the transpose of m in the orthonormal
    basis, carried back to the unnormalized one.  Entry (j, i) is
    N_i^2 / N_j^2 * m[i, j], of the same kind as m.  An orthogonal
    operator's adjoint is its inverse."""
    nsq = m.basis.norms_sq()
    entries = {(j, i): nsq[i] / nsq[j] * v for (i, j), v in m.entries.items()}
    if not m.exact:
        entries = {k: float(v) for k, v in entries.items()}
    return PatternMatrix(m.basis, entries, m.exact)


def orthogonality_defect(m: PatternMatrix) -> PatternMatrix:
    """adjoint(m) m - 1; zero iff m is orthogonal in the orthonormal basis."""
    return adjoint(m) @ m - PatternMatrix.identity(m.basis, m.exact)
