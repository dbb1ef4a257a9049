"""Realization of the Racah algebra inside the represented U(sl3).

J and Jbar are the Casimir elements of the two sl2 embeddings exchanged by
the rotation T; K is their commutator.  Every identity is checked per irrep
as an exact matrix identity; the centralizer story is completed by the
Hilbert-Poincare series, computed once from the closed rational function and
once by counting the spanning monomials.
"""

from __future__ import annotations

from .gt_basis import IrrepBasis, shift
from .linalg import PatternMatrix, exact_product
from .numerics import rational
from .rep import element_matrix, generator_matrix, sl2_casimir
from .reporting import Report
from .rotations import tau, tau_inverse
from .specfun import racah_recurrence_coefficients


def jbar_matrix(basis: IrrepBasis) -> PatternMatrix:
    """Casimir of the (1,3) embedding: ((e11-e33)^2 + 2(e11-e33))/4 + e31 e13."""

    def build():
        g = lambda n: generator_matrix(n, basis)
        return sl2_casimir(g("e11") - g("e33"), g("e31"), g("e13"))

    return basis.memo(("jbar",), build)


def jbar_conjugation_residual(basis: IrrepBasis) -> PatternMatrix:
    """tau^-1 J tau - Jbar, zero by the definition of tau as the transition
    between the two embeddings; the global sign of tau drops out, so no
    oracle is involved."""
    conj = exact_product(tau_inverse(basis), element_matrix("J", basis), tau(basis))
    return conj - jbar_matrix(basis)


def k_matrix(basis: IrrepBasis) -> PatternMatrix:
    """K = [J, Jbar]; centralizer_identity_residuals checks it against the
    cubic e31 e12 e23 - e32 e21 e13."""
    return basis.memo(
        ("kmat",),
        lambda: element_matrix("J", basis).commutator(jbar_matrix(basis)),
    )


def central_data(basis: IrrepBasis):
    """Diagonal matrices (a, b+, b-) entering the Racah relations.

    b+- factor through (3y -+ h); writing u = y +- h, the bracket is
    (2 - u) C2/4 - C3/3 + u(u-2)(u+2)/8.  These are pinned by the relations
    themselves (b+ = [J,K] - 2J^2 - 2{J,Jbar} + aJ must be an identity) and
    were cross-fitted exactly over many irreps."""

    def build():
        h = element_matrix("h", basis)
        y = element_matrix("y", basis)
        c2 = element_matrix("C2", basis)
        c3 = element_matrix("C3", basis)
        ident = PatternMatrix.identity(basis)
        two = ident.scaled(rational(2))
        a = h @ h + (y @ y).scaled(rational(3)) + c2

        def b(sign: int):
            s = rational(sign)
            first = y.scaled(rational(3)) - h.scaled(s)
            u = y + h.scaled(s)
            inner = (
                ((two - u) @ c2).scaled(rational(1, 4))
                - c3.scaled(rational(1, 3))
                + (u @ (u - two) @ (u + two)).scaled(rational(1, 8))
            )
            return first @ inner

        return a, b(1), b(-1)

    return basis.memo(("central_data",), build)


def racah_relations_residual(basis: IrrepBasis) -> Report:
    """Exact residuals of the two cubic relations of the Racah algebra."""
    report = Report("racah-relations")
    wname = str(basis.weight)
    j = element_matrix("J", basis)
    jb = jbar_matrix(basis)
    k = k_matrix(basis)
    a, bp, bm = central_data(basis)
    cross = j.anticommutator(jb).scaled(rational(2))

    r1 = j.commutator(k) - ((j @ j).scaled(rational(2)) + cross - a @ j + bp)
    report.add("racah_relation_JK", wname, r1.is_zero(), r1.max_abs())

    r2 = k.commutator(jb) - ((jb @ jb).scaled(rational(2)) + cross - a @ jb + bm)
    report.add("racah_relation_KJbar", wname, r2.is_zero(), r2.max_abs())
    return report


def gamma_residual(basis: IrrepBasis) -> Report:
    """Central element of the Racah algebra minus its closed form in the
    Cartan data and Casimirs; the closed form is the tested hypothesis and
    the assembled matrix is ground truth."""
    report = Report("gamma")
    wname = str(basis.weight)
    j = element_matrix("J", basis)
    jb = jbar_matrix(basis)
    k = k_matrix(basis)
    a, bp, bm = central_data(basis)
    ident = PatternMatrix.identity(basis)

    s = j + jb
    gamma = (
        (j @ j).anticommutator(jb).scaled(rational(2))
        + j.anticommutator(jb @ jb).scaled(rational(2))
        - k @ k
        - (s @ s).scaled(rational(4))
        - a @ j.anticommutator(jb)
        + (bm + a) @ j.scaled(rational(2))
        + (bp + a) @ jb.scaled(rational(2))
    )

    h = element_matrix("h", basis)
    y = element_matrix("y", basis)
    c2 = element_matrix("C2", basis)
    c3 = element_matrix("C3", basis)
    h2, y2 = h @ h, y @ y
    q = c3.scaled(rational(1, 3)) + y.scaled(rational(2)) + y @ c2
    closed = (
        ((y2 + h2) @ (y2 + h2) @ (ident - c2)).scaled(rational(1, 2))
        - ((h2 - y2) @ (h2 - y2) @ (h2 - y2)).scaled(rational(1, 8))
        + (h2 @ y2).scaled(rational(2))
        - q @ (q - c2)
        - (y @ (h2.scaled(rational(3)) - y2.scaled(rational(11)))
           @ (c2.scaled(rational(3)) - c3.scaled(rational(2)))).scaled(rational(1, 6))
        + (c2 @ (h2 + y2.scaled(rational(3)))
           @ (h2.scaled(rational(5)) - y2 + ident.scaled(rational(4)))).scaled(
            rational(1, 8)
        )
    )
    resid = gamma - closed
    report.add("gamma_closed_form", wname, resid.is_zero(), resid.max_abs())
    return report


def centralizer_identity_residuals(basis: IrrepBasis) -> Report:
    """The five rewriting identities expressing the quadratic/cubic
    centralizer generators through J, Jbar, K, H1, H2, C2, C3."""
    report = Report("centralizer-identities")
    wname = str(basis.weight)
    g = lambda n: generator_matrix(n, basis)
    j = element_matrix("J", basis)
    jb = jbar_matrix(basis)
    k = k_matrix(basis)
    h1 = element_matrix("H1", basis)
    h2 = element_matrix("H2", basis)
    c2 = element_matrix("C2", basis)
    c3 = element_matrix("C3", basis)
    ident = PatternMatrix.identity(basis)
    h12 = h1 + h2

    checks = []
    checks.append(("e21e12", g("e21") @ g("e12") - (j - h1 @ (h1 + ident))))
    checks.append(("e31e13", g("e31") @ g("e13") - (jb - h12 @ (h12 + ident))))
    checks.append(
        (
            "e32e23",
            g("e32") @ g("e23")
            - (
                c2.scaled(rational(1, 2))
                - j
                - jb
                - h2
                + (
                    (h1 @ h2).scaled(rational(2))
                    + (h1 @ h1).scaled(rational(2))
                    - h2 @ h2
                ).scaled(rational(1, 3))
            ),
        )
    )
    checks.append(
        ("K_difference", g("e31") @ g("e12") @ g("e23") - g("e32") @ g("e21") @ g("e13") - k)
    )
    sym_sum = (
        c3.scaled(rational(1, 3))
        - (j @ (h12 + ident)).scaled(rational(2))
        - (jb @ h1).scaled(rational(2))
        + (c2 @ (h1.scaled(rational(2)) + h2)).scaled(rational(1, 3))
        + (
            (h2 + h1.scaled(rational(2)))
            @ (
                (h1 @ h1).scaled(rational(11))
                + (h1 @ h2).scaled(rational(11))
                - (h2 @ h2).scaled(rational(4))
            )
        ).scaled(rational(2, 27))
        - (
            (h1 @ h2).scaled(rational(2))
            - h1 @ h1
            + (h2 @ h2).scaled(rational(2))
            + h2.scaled(rational(2))
            + h1
        ).scaled(rational(2, 3))
    )
    checks.append(
        (
            "symmetric_cubic",
            g("e31") @ g("e12") @ g("e23") + g("e32") @ g("e21") @ g("e13") - sym_sum,
        )
    )
    for name, resid in checks:
        report.add(f"centralizer[{name}]", wname, resid.is_zero(), resid.max_abs())
    return report


def commutes_with_cartan_report(basis: IrrepBasis) -> Report:
    report = Report("cartan-commutant")
    wname = str(basis.weight)
    h1 = element_matrix("H1", basis)
    h2 = element_matrix("H2", basis)
    for name, m in (
        ("J", element_matrix("J", basis)),
        ("Jbar", jbar_matrix(basis)),
        ("K", k_matrix(basis)),
    ):
        for hname, h in (("H1", h1), ("H2", h2)):
            resid = m.commutator(h)
            report.add(f"[{name},{hname}]", wname, resid.is_zero(), resid.max_abs())
    return report


def jbar_tridiagonal_report(basis: IrrepBasis) -> Report:
    """Off-diagonal entries of Jbar inside each joint (Y, H) eigenspace equal
    minus the recurrence coefficients attached to the pattern (the algebraic
    origin of the Racah factors in tau)."""
    report = Report("jbar-tridiagonal")
    wname = str(basis.weight)
    jb = jbar_matrix(basis)
    for j, p in enumerate(basis):
        if p.l21 == p.l22:
            continue
        a, c = racah_recurrence_coefficients(p)
        up = shift(p, (0, -1, 1))
        down = shift(p, (0, 1, -1))
        if up is not None:
            entry = jb.get(basis.index_of(up), j)
            report.add(
                f"up_entry[{p}]", wname, entry == -a, abs(float(entry + a))
            )
        if down is not None:
            entry = jb.get(basis.index_of(down), j)
            report.add(
                f"down_entry[{p}]", wname, entry == -c, abs(float(entry + c))
            )
        diag_only_outside = all(
            (p.l11 == q.l11 and p.l21 + p.l22 == q.l21 + q.l22)
            for i, q in enumerate(basis)
            if jb.get(i, j) != 0
        )
        report.add(f"block_structure[{p}]", wname, diag_only_outside)
    return report


# --------------------------------------------------------------------------
# Hilbert-Poincare series of the centralizer


def _series_inverse_factor(k: int, max_degree: int):
    """Coefficients of 1/(1 - t^k) up to max_degree."""
    return [1 if d % k == 0 else 0 for d in range(max_degree + 1)]


def _series_mul(a, b, max_degree: int):
    out = [0] * (max_degree + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > max_degree:
            continue
        for j, bj in enumerate(b):
            if i + j > max_degree:
                break
            out[i + j] += ai * bj
    return out


def hilbert_series_coeffs(max_degree: int, method: str = "ClosedForm"):
    """Coefficients of the centralizer's Hilbert-Poincare series.

    ClosedForm expands (1 + t^3) / ((1-t)^2 (1-t^2)^3 (1-t^3)); Combinatorial
    counts the spanning monomials of degree a + b + 2(i+j+k) + 3l with two
    choices of cubic factor for l >= 1."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if method == "ClosedForm":
        series = [1] + [0] * max_degree
        for k, power in ((1, 2), (2, 3), (3, 1)):
            factor = _series_inverse_factor(k, max_degree)
            for _ in range(power):
                series = _series_mul(series, factor, max_degree)
        numer = [1, 0, 0, 1] + [0] * max(0, max_degree - 3)
        return _series_mul(series, numer[: max_degree + 1], max_degree)
    if method == "Combinatorial":
        pairs = [d + 1 for d in range(max_degree + 1)]  # count of a+b = d
        triples = [0] * (max_degree + 1)  # count of i+j+k = s
        for s in range(max_degree // 2 + 1):
            triples[s] = (s + 1) * (s + 2) // 2
        out = [0] * (max_degree + 1)
        for d in range(max_degree + 1):
            ell = 0
            while 3 * ell <= d:
                mult = 1 if ell == 0 else 2
                rem = d - 3 * ell
                for s in range(rem // 2 + 1):
                    out[d] += mult * triples[s] * pairs[rem - 2 * s]
                ell += 1
        return out
    raise ValueError(f"method must be ClosedForm or Combinatorial, got {method!r}")


def hilbert_series_two_ways(max_degree: int) -> dict:
    """Both expansions of the Hilbert-Poincare series through max_degree and
    whether they agree: the payload of `gtrotor hilbert`, also checked by
    the hilbert verify suite."""
    closed = hilbert_series_coeffs(max_degree, "ClosedForm")
    combi = hilbert_series_coeffs(max_degree, "Combinatorial")
    return {
        "max_degree": max_degree,
        "closed_form": closed,
        "combinatorial": combi,
        "status": "PASS" if closed == combi else "FAIL",
    }


def pbw_basis_spanning_check(max_degree: int) -> Report:
    """Count the proposed basis monomials H1^a H2^b C2^c C3^d J^i Jbar^j K^k
    (k in {0,1}) by filtered degree and compare with the series."""
    if max_degree > 8:
        raise ValueError("max_degree is capped at 8 for the monomial count")
    report = Report("pbw-basis")
    counts = [0] * (max_degree + 1)
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            base = a + b
            for c in range((max_degree - base) // 2 + 1):
                for d in range((max_degree - base - 2 * c) // 3 + 1):
                    for i in range((max_degree - base - 2 * c - 3 * d) // 2 + 1):
                        for jj in range(
                            (max_degree - base - 2 * c - 3 * d - 2 * i) // 2 + 1
                        ):
                            rest = base + 2 * (c + i + jj) + 3 * d
                            for k in (0, 1):
                                deg = rest + 3 * k
                                if deg <= max_degree:
                                    counts[deg] += 1
    closed = hilbert_series_coeffs(max_degree, "ClosedForm")
    for d in range(max_degree + 1):
        report.add(
            f"pbw_count[deg={d}: monomials={counts[d]}, series={closed[d]}]",
            None,
            counts[d] == closed[d],
            abs(counts[d] - closed[d]),
        )
    return report
