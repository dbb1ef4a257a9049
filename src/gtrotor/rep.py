"""Matrices of the sl3 generators and distinguished elements on a GT basis.

Everything is assembled in the unnormalized basis, where all entries are
exact rationals; the closed-form change-of-basis matrices of the rotations
module live in the same basis.  Transposition in the orthonormal basis is
linalg.adjoint, which needs only the rational squared norms.
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
)
from .linalg import PatternMatrix, adjoint
from .numerics import rational
from .reporting import Report

GENERATOR_NAMES = tuple(f"e{i}{j}" for i in range(1, 4) for j in range(1, 4))

ELEMENT_NAMES = GENERATOR_NAMES + ("C2", "C3", "J", "Y", "H", "H1", "H2", "h", "y")


# Action of each generator on the basis vector of one pattern, written on its
# lattice coordinates (x21, x22, x11, a, b) = (l21, l22, l11, l31, l32) - l33:
# ((shift, or None for the diagonal), numerator, denominator) per target.
# With den = l21 - l22 + 1 and 3 l33 = -(a + b), e.g. e23 sends the vector of
# p to (l31 - l21)/den times that of p + D21_UP plus (l31 - l22 + 1)/den
# times that of p + D22_UP.
_ACTIONS = {
    "e11": lambda x21, x22, x11, a, b: ((None, 3 * x11 - a - b, 3),),
    "e22": lambda x21, x22, x11, a, b: ((None, 3 * (x21 + x22 - x11) - a - b, 3),),
    "e33": lambda x21, x22, x11, a, b: ((None, 2 * (a + b) - 3 * (x21 + x22), 3),),
    "e12": lambda x21, x22, x11, a, b: ((D11_UP, (x21 - x11) * (x11 - x22 + 1), 1),),
    "e21": lambda x21, x22, x11, a, b: ((D11_DOWN, 1, 1),),
    "e23": lambda x21, x22, x11, a, b: (
        (D21_UP, a - x21, x21 - x22 + 1),
        (D22_UP, a - x22 + 1, x21 - x22 + 1),
    ),
    "e32": lambda x21, x22, x11, a, b: (
        (D21_DOWN, (x21 - b) * (x21 + 1) * (x21 - x11), x21 - x22 + 1),
        (D22_DOWN, (x11 - x22 + 1) * (b - x22 + 1) * x22, x21 - x22 + 1),
    ),
    "e13": lambda x21, x22, x11, a, b: (
        (D21_D11_UP, (x11 - x22 + 1) * (a - x21), x21 - x22 + 1),
        (D22_D11_UP, -(x21 - x11) * (a - x22 + 1), x21 - x22 + 1),
    ),
    "e31": lambda x21, x22, x11, a, b: (
        (D21_D11_DOWN, (x21 - b) * (x21 + 1), x21 - x22 + 1),
        (D22_D11_DOWN, -(b - x22 + 1) * x22, x21 - x22 + 1),
    ),
}


def generator_matrix(name: str, basis: IrrepBasis) -> PatternMatrix:
    """Exact matrix of a generator eij, columns indexed by source pattern.
    Only the requested generator's coefficients are computed; a shifted
    pattern is found by its lattice coordinates, and one that leaves the
    basis annihilates its term."""
    if name not in GENERATOR_NAMES:
        raise ValueError(f"not a generator: {name!r}")

    def build():
        action = _ACTIONS[name]
        lattice = basis.lattice
        index = {c[:3]: i for i, c in enumerate(lattice)}
        entries = {}
        for col, c in enumerate(lattice):
            x21, x22, x11 = c[:3]
            for move, num, den in action(*c):
                if num == 0:
                    continue
                if move is None:
                    row = col
                else:
                    d11, d21, d22 = move
                    row = index.get((x21 + d21, x22 + d22, x11 + d11))
                    if row is None:
                        continue
                entries[(row, col)] = rational(num, den)
        return PatternMatrix._nonzero(basis, entries)

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
        ok = adjoint(g[b]) == g[a]
        report.add(f"star_transposition[{a},{b}]", wname, ok, 0.0 if ok else 1.0)

    spectra = {(j_eigenvalue(p), y_eigenvalue(p), h_eigenvalue(p)) for p in basis}
    report.add("joint_spectrum_separates", wname, len(spectra) == basis.dim)

    return report
