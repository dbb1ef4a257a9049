"""Matrices of the sl3 generators and distinguished elements on a GT basis.

Everything is assembled in the unnormalized basis, where all entries are
exact rationals; the closed-form change-of-basis matrices of the rotations
module live in the same basis.  Conjugation into the orthonormal basis is a
separate view (to_normalized) that keeps square roots formal.
"""

from __future__ import annotations

import itertools

from .gt_basis import (
    D11_DOWN,
    D11_UP,
    D21_D11_DOWN,
    D21_D11_UP,
    D21_DOWN,
    D21_UP,
    D22_D11_DOWN,
    D22_D11_UP,
    D22_DOWN,
    D22_UP,
    GTPattern,
    IrrepBasis,
    shift,
)
from .linalg import NormalizedMatrix, PatternMatrix
from .numerics import rational
from .reporting import Report

GENERATOR_NAMES = tuple(f"e{i}{j}" for i in range(1, 4) for j in range(1, 4))

ELEMENT_NAMES = GENERATOR_NAMES + ("C2", "C3", "J", "Y", "H", "H1", "H2", "h", "y")


def _column_action(p: GTPattern):
    """eq. of motion of each generator on the basis vector of pattern p:
    list of (shift or None-for-diagonal, coefficient)."""
    w = p.weight
    l21, l22, l11 = p.l21, p.l22, p.l11
    den = l21 - l22 + 1
    return {
        "e11": [(None, l11)],
        "e22": [(None, l21 + l22 - l11)],
        "e33": [(None, -(l21 + l22))],
        "e12": [(D11_UP, (l21 - l11) * (l11 - l22 + 1))],
        "e21": [(D11_DOWN, rational(1))],
        "e23": [
            (D21_UP, (w.l31 - l21) / den),
            (D22_UP, (w.l31 - l22 + 1) / den),
        ],
        "e32": [
            (D21_DOWN, (l21 - w.l32) * (l21 - w.l33 + 1) * (l21 - l11) / den),
            (D22_DOWN, (l11 - l22 + 1) * (w.l32 - l22 + 1) * (l22 - w.l33) / den),
        ],
        "e13": [
            (D21_D11_UP, (l11 - l22 + 1) * (w.l31 - l21) / den),
            (D22_D11_UP, -(l21 - l11) * (w.l31 - l22 + 1) / den),
        ],
        "e31": [
            (D21_D11_DOWN, (l21 - w.l32) * (l21 - w.l33 + 1) / den),
            (D22_D11_DOWN, -(w.l32 - l22 + 1) * (l22 - w.l33) / den),
        ],
    }


def generator_matrix(name: str, basis: IrrepBasis) -> PatternMatrix:
    """Exact matrix of a generator eij, columns indexed by source pattern."""
    if name not in GENERATOR_NAMES:
        raise ValueError(f"not a generator: {name!r}")

    def build():
        entries = {}
        for col, p in enumerate(basis):
            for move, coeff in _column_action(p)[name]:
                if coeff == 0:
                    continue
                if move is None:
                    entries[(col, col)] = coeff
                    continue
                q = shift(p, move)
                if q is not None:
                    key = (basis.index_of(q), col)
                    entries[key] = entries.get(key, rational(0)) + coeff
        return PatternMatrix(basis, entries)

    return basis.memo(("gen", name), build)


def casimir2_value(weight):
    l31, l32 = weight.l31, weight.l32
    return 2 * (l31 * l31 + l31 * l32 + l32 * l32 + 2 * l31 + l32)


def casimir3_value(weight):
    l31, l32 = weight.l31, weight.l32
    return 3 * l31 * (1 - l32) * (2 + l31 + l32)


def j_eigenvalue(p: GTPattern):
    return (p.l21 - p.l22) * (p.l21 - p.l22 + 2) / rational(4)


def y_eigenvalue(p: GTPattern):
    return p.l21 + p.l22


def h_eigenvalue(p: GTPattern):
    return 2 * p.l11 - p.l21 - p.l22


def sl2_casimir(d: PatternMatrix, lower: PatternMatrix, upper: PatternMatrix):
    """Casimir (d^2 + 2d)/4 + lower upper of the sl2 with Cartan element d
    and raising/lowering pair (upper, lower)."""
    return (d @ d + d.scaled(rational(2))).scaled(rational(1, 4)) + lower @ upper


def element_matrix(name: str, basis: IrrepBasis) -> PatternMatrix:
    """Matrix of a named algebra element, composed from generator matrices."""
    if name in GENERATOR_NAMES:
        return generator_matrix(name, basis)

    def build():
        g = lambda n: generator_matrix(n, basis)
        if name == "C2":
            out = PatternMatrix.zeros(basis)
            for i, j in itertools.product(range(1, 4), repeat=2):
                out = out + g(f"e{i}{j}") @ g(f"e{j}{i}")
            return out
        if name == "C3":
            out = PatternMatrix.zeros(basis)
            for i, j, k in itertools.product(range(1, 4), repeat=3):
                out = out + g(f"e{i}{j}") @ g(f"e{j}{k}") @ g(f"e{k}{i}")
            return out
        if name == "J":
            return sl2_casimir(g("e11") - g("e22"), g("e21"), g("e12"))
        if name == "Y":
            return (g("e11") + g("e22") - g("e33").scaled(rational(2))).scaled(
                rational(1, 3)
            )
        if name == "H":
            return g("e11") - g("e22")
        if name == "H1":
            return (g("e11") - g("e22")).scaled(rational(1, 2))
        if name in ("H2", "h"):
            return (g("e22") - g("e33")).scaled(rational(1, 2))
        if name == "y":
            return (
                g("e11").scaled(rational(2)) - g("e22") - g("e33")
            ).scaled(rational(1, 6))
        raise ValueError(f"unknown element {name!r}")

    return basis.memo(("elem", name), build)


def to_normalized(m: PatternMatrix) -> NormalizedMatrix:
    """View of m in the orthonormal basis (formal norm factors)."""
    return NormalizedMatrix(m)


def _residual_of_scalar(m: PatternMatrix, value) -> float:
    diff = m - PatternMatrix.identity(m.basis).scaled(value)
    return float(diff.max_abs())


def verify_structure(basis: IrrepBasis) -> Report:
    """All structural identities of the represented algebra, exactly.

    Commutators of every unordered generator pair, both Casimir scalars,
    the diagonal J/Y/H eigenvalues, transposition in the orthonormal basis,
    and separation of patterns by the joint (J, Y, H) spectrum.
    """
    report = Report("structure")
    wname = str(basis.weight)
    g = {n: generator_matrix(n, basis) for n in GENERATOR_NAMES}

    for (a, b) in itertools.combinations(GENERATOR_NAMES, 2):
        i, j = int(a[1]), int(a[2])
        k, l = int(b[1]), int(b[2])
        expected = PatternMatrix.zeros(basis)
        if j == k:
            expected = expected + g[f"e{i}{l}"]
        if i == l:
            expected = expected - g[f"e{k}{j}"]
        resid = g[a].commutator(g[b]) - expected
        report.add(f"commutator[{a},{b}]", wname, resid.is_zero(), resid.max_abs())

    c2 = element_matrix("C2", basis)
    report.add(
        "casimir2_scalar",
        wname,
        c2 == PatternMatrix.identity(basis).scaled(casimir2_value(basis.weight)),
        _residual_of_scalar(c2, casimir2_value(basis.weight)),
    )
    c3 = element_matrix("C3", basis)
    report.add(
        "casimir3_scalar",
        wname,
        c3 == PatternMatrix.identity(basis).scaled(casimir3_value(basis.weight)),
        _residual_of_scalar(c3, casimir3_value(basis.weight)),
    )

    for name, eig in (("J", j_eigenvalue), ("Y", y_eigenvalue), ("H", h_eigenvalue)):
        m = element_matrix(name, basis)
        expected = PatternMatrix.diagonal(basis, [eig(p) for p in basis])
        resid = m - expected
        report.add(f"{name}_diagonal", wname, resid.is_zero(), resid.max_abs())

    for a, b in (("e12", "e21"), ("e13", "e31"), ("e23", "e32")):
        ok = to_normalized(g[a]).equals_transpose_of(to_normalized(g[b]))
        report.add(f"star_transposition[{a},{b}]", wname, ok, 0.0 if ok else 1.0)

    spectra = {(j_eigenvalue(p), y_eigenvalue(p), h_eigenvalue(p)) for p in basis}
    report.add("joint_spectrum_separates", wname, len(spectra) == basis.dim)

    return report
