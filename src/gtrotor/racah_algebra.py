"""Realization of the Racah algebra inside the represented U(sl3).

J and Jbar are the Casimir elements of the two sl2 embeddings exchanged by
the rotation T; K is their commutator.  Each of the paper's identities (the
two Racah relations, the closed form of the central element gamma and the
five rewritings of the centralizer's quadratic and cubic generators) is an
entry of IDENTITIES: a sum of products of the assembled generator, J, Jbar
and K matrices that must equal a diagonal matrix.  That diagonal, like the
central elements a and b+- of CENTRAL, is a rational polynomial evaluated
per pattern on the Cartan data (the diagonals of the assembled h, y, H1,
H2, C2 and C3 matrices).
Every identity is checked per irrep as one exact combination.  The
centralizer story is completed by the Hilbert-Poincare series, computed once
from the closed rational function and once by counting the spanning
monomials.
"""

from __future__ import annotations

from collections import namedtuple

from .gt_basis import IrrepBasis, shift
from .linalg import PatternMatrix, exact_combination
from .rep import element_matrix, generator_matrix, linear_element, sl2_casimir
from .reporting import Report
from .rotations import tau, tau_inverse
from .specfun import racah_recurrence_coefficients


def jbar_matrix(basis: IrrepBasis) -> PatternMatrix:
    """Casimir of the (1,3) embedding: ((e11-e33)^2 + 2(e11-e33))/4 + e31 e13."""

    def build():
        g = lambda n: generator_matrix(n, basis)
        d = linear_element({"e11": 1, "e33": -1}, basis)
        return sl2_casimir(d, g("e31"), g("e13"))

    return basis.memo(("jbar",), build)


def jbar_conjugation_residual(basis: IrrepBasis) -> PatternMatrix:
    """tau^-1 J tau - Jbar, zero by the definition of tau as the transition
    between the two embeddings; the global sign of tau drops out, so no
    oracle is involved."""
    return exact_combination(
        [
            (1, (tau_inverse(basis), element_matrix("J", basis), tau(basis))),
            (-1, (jbar_matrix(basis),)),
        ]
    )


def k_matrix(basis: IrrepBasis) -> PatternMatrix:
    """K = [J, Jbar]; the centralizer[K_difference] identity checks it
    against the cubic e31 e12 e23 - e32 e21 e13."""

    def build():
        j, jb = element_matrix("J", basis), jbar_matrix(basis)
        return exact_combination([(1, (j, jb)), (-1, (jb, j))])

    return basis.memo(("kmat",), build)


# --------------------------------------------------------------------------
# closed forms per pattern, and the identities they close


CartanData = namedtuple("CartanData", "h y h1 h2 c2 c3")


def cartan_data(basis: IrrepBasis) -> list:
    """CartanData of every pattern, read off the diagonals of the assembled
    h, y, H1, H2, C2 and C3 matrices; ValueError if one of them has an
    off-diagonal entry."""

    def build():
        diagonals = []
        for name in ("h", "y", "H1", "H2", "C2", "C3"):
            m = element_matrix(name, basis)
            if any(i != j for i, j in m.entries):
                raise ValueError(f"{name} is not diagonal on {basis.weight}")
            diagonals.append([m.get(i, i) for i in range(basis.dim)])
        return [CartanData(*values) for values in zip(*diagonals)]

    return basis.memo(("cartan_data",), build)


def _b(d: CartanData, sign: int):
    """b+ (sign 1) or b- (sign -1): with u = y +- h, (3y -+ h) times
    (2 - u) C2/4 - C3/3 + u(u - 2)(u + 2)/8."""
    u = d.y + sign * d.h
    return (3 * d.y - sign * d.h) * (
        (2 - u) * d.c2 / 4 - d.c3 / 3 + u * (u - 2) * (u + 2) / 8
    )


def _gamma(d: CartanData):
    h2, y2 = d.h * d.h, d.y * d.y
    q = d.c3 / 3 + 2 * d.y + d.y * d.c2
    return (
        (y2 + h2) ** 2 * (1 - d.c2) / 2
        - (h2 - y2) ** 3 / 8
        + 2 * h2 * y2
        - q * (q - d.c2)
        - d.y * (3 * h2 - 11 * y2) * (3 * d.c2 - 2 * d.c3) / 6
        + d.c2 * (h2 + 3 * y2) * (5 * h2 - y2 + 4) / 8
    )


def _symmetric_cubic(d: CartanData):
    h1, h2 = d.h1, d.h2
    return (
        d.c3 / 3
        + d.c2 * (2 * h1 + h2) / 3
        + 2 * (h2 + 2 * h1) * (11 * h1 * h1 + 11 * h1 * h2 - 4 * h2 * h2) / 27
        - 2 * (2 * h1 * h2 - h1 * h1 + 2 * h2 * h2 + 2 * h2 + h1) / 3
    )


# The central elements a, b+ and b- of the Racah relations, per pattern.
CENTRAL = {
    "a": lambda d: d.h * d.h + 3 * d.y * d.y + d.c2,
    "b+": lambda d: _b(d, 1),
    "b-": lambda d: _b(d, -1),
}

# check name -> (terms, closed form): the sum of coefficient * product of the
# named factors equals the diagonal matrix of the closed form, a rational
# polynomial of one pattern's CartanData (zero where it is None).  A factor
# is an element matrix, Jbar, K, or a central element of CENTRAL.
IDENTITIES = {
    # [J, K] = 2 J^2 + 2 {J, Jbar} - a J + b+
    "racah_relation_JK": ([
        (1, "J K"), (-1, "K J"), (-2, "J J"), (-2, "J Jbar"), (-2, "Jbar J"),
        (1, "a J"), (-1, "b+"),
    ], None),
    # [K, Jbar] = 2 Jbar^2 + 2 {J, Jbar} - a Jbar + b-
    "racah_relation_KJbar": ([
        (1, "K Jbar"), (-1, "Jbar K"), (-2, "Jbar Jbar"), (-2, "J Jbar"),
        (-2, "Jbar J"), (1, "a Jbar"), (-1, "b-"),
    ], None),
    # gamma = 2 {J^2, Jbar} + 2 {J, Jbar^2} - K^2 - 4 (J + Jbar)^2
    #         - a {J, Jbar} + 2 (b- + a) J + 2 (b+ + a) Jbar
    "gamma_closed_form": ([
        (2, "J J Jbar"), (2, "Jbar J J"), (2, "J Jbar Jbar"), (2, "Jbar Jbar J"),
        (-1, "K K"), (-4, "J J"), (-4, "J Jbar"), (-4, "Jbar J"),
        (-4, "Jbar Jbar"), (-1, "a J Jbar"), (-1, "a Jbar J"), (2, "b- J"),
        (2, "a J"), (2, "b+ Jbar"), (2, "a Jbar"),
    ], _gamma),
    "centralizer[e21e12]": (
        [(1, "e21 e12"), (-1, "J")], lambda d: -d.h1 * (d.h1 + 1)
    ),
    "centralizer[e31e13]": (
        [(1, "e31 e13"), (-1, "Jbar")], lambda d: -(d.h1 + d.h2) * (d.h1 + d.h2 + 1)
    ),
    "centralizer[e32e23]": ([(1, "e32 e23"), (1, "J"), (1, "Jbar")], lambda d: (
        d.c2 / 2 - d.h2 + (2 * d.h1 * d.h2 + 2 * d.h1 * d.h1 - d.h2 * d.h2) / 3
    )),
    "centralizer[K_difference]": (
        [(1, "e31 e12 e23"), (-1, "e32 e21 e13"), (-1, "K")], None
    ),
    # e31 e12 e23 + e32 e21 e13 = -2 J (h1 + h2 + 1) - 2 Jbar h1 + cubic
    "centralizer[symmetric_cubic]": ([
        (1, "e31 e12 e23"), (1, "e32 e21 e13"), (2, "J H1"), (2, "J H2"),
        (2, "J"), (2, "Jbar H1"),
    ], _symmetric_cubic),
}


def _per_pattern(poly, basis: IrrepBasis) -> PatternMatrix:
    return PatternMatrix.diagonal(basis, [poly(d) for d in cartan_data(basis)])


def central_data(basis: IrrepBasis):
    """Diagonal matrices (a, b+, b-): CENTRAL evaluated per pattern on the
    Cartan data of the assembled element matrices.  The identities
    racah_relation_JK and racah_relation_KJbar pin them; a changed
    coefficient in either fails its check."""
    return basis.memo(
        ("central_data",),
        lambda: tuple(_per_pattern(poly, basis) for poly in CENTRAL.values()),
    )


def _factor(name: str, basis: IrrepBasis) -> PatternMatrix:
    if name in CENTRAL:
        return central_data(basis)[list(CENTRAL).index(name)]
    special = {"Jbar": jbar_matrix, "K": k_matrix}.get(name)
    return special(basis) if special else element_matrix(name, basis)


def identity_residual(name: str, basis: IrrepBasis) -> PatternMatrix:
    """Sum of the terms of IDENTITIES[name] minus the diagonal of its
    closed form, as one exact combination."""
    terms, closed = IDENTITIES[name]
    combo = [
        (c, tuple(_factor(f, basis) for f in word.split())) for c, word in terms
    ]
    if closed is not None:
        combo.append((-1, (_per_pattern(closed, basis),)))
    return exact_combination(combo)


def _identities_report(title: str, names, basis: IrrepBasis) -> Report:
    report = Report(title)
    for name in names:
        resid = identity_residual(name, basis)
        report.add(name, str(basis.weight), resid.is_zero(), resid.max_abs())
    return report


def racah_relations_residual(basis: IrrepBasis) -> Report:
    """Exact residuals of the two cubic relations of the Racah algebra."""
    return _identities_report(
        "racah-relations", ("racah_relation_JK", "racah_relation_KJbar"), basis
    )


def gamma_residual(basis: IrrepBasis) -> Report:
    """The central element gamma of the Racah algebra, assembled from J,
    Jbar and K, minus its closed form in the Cartan data and Casimirs."""
    return _identities_report("gamma", ("gamma_closed_form",), basis)


def centralizer_identity_residuals(basis: IrrepBasis) -> Report:
    """The five rewriting identities expressing the quadratic/cubic
    centralizer generators through J, Jbar, K, H1, H2, C2, C3."""
    return _identities_report(
        "centralizer-identities",
        [n for n in IDENTITIES if n.startswith("centralizer[")],
        basis,
    )


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
            resid = exact_combination([(1, (m, h)), (-1, (h, m))])
            report.add(f"[{name},{hname}]", wname, resid.is_zero(), resid.max_abs())
    return report


def jbar_tridiagonal_report(basis: IrrepBasis) -> Report:
    """Off-diagonal entries of Jbar inside each joint (Y, H) eigenspace equal
    minus the recurrence coefficients attached to the pattern (the algebraic
    origin of the Racah factors in tau)."""
    report = Report("jbar-tridiagonal")
    wname = str(basis.weight)
    jb = jbar_matrix(basis)
    rows_of = {}
    for i, j in jb.entries:
        rows_of.setdefault(j, []).append(i)
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
            for q in (basis.patterns[i] for i in rows_of.get(j, ()))
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
