"""Change-of-basis matrices for SO(3) rotations on sl3 irreps.

rho_z is the closed form for z-rotations (block-diagonal, Krawtchouk
entries); tau is the transition between the two sl2 embeddings (Racah
entries, closed-form global sign checked against the float oracle); sigma
is the general rotation, computed either as the five-factor product or as
the closed double sum.  For angles given as exact points on the unit circle
all of these are exact rational matrices.

Ground truth hierarchy when paths disagree: exponential oracle, then the
five-factor product, then the closed double sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .gt_basis import GTPattern, IrrepBasis, shift
from .linalg import PatternMatrix, adjoint, exact_product, orthogonality_defect
from .numerics import (
    ZERO,
    Angle,
    as_int,
    factorial,
    is_exact,
    neg_one_pow,
    rational,
    sin_cos,
)
from .rep import element_matrix, generator_matrix, h_eigenvalue, sl2_casimir
from .specfun import (
    KrawtchoukParams,
    RacahParams,
    krawtchouk,
    krawtchouk_trig,
    krawtchouk_trig_terms,
    racah_sum_exact,
    racah_tilde,
)

__all__ = [
    "EulerAngles",
    "NotSymmetricRep",
    "rho_z",
    "tau",
    "tau_sign",
    "tau_inverse",
    "sigma_product",
    "sigma_formula",
    "sigma_symmetric",
    "hybrid_sigma",
    "hybrid_polynomial",
    "hybrid_variables",
    "bispectral_residual",
    "h_recurrence_explicit_residual",
    "rotation_matrix",
    "psi_element",
    "orthogonality_defect",
]


class NotSymmetricRep(ValueError):
    """Operation needs a weight with l32 = l33."""


@dataclass(frozen=True)
class EulerAngles:
    """Angles of S = Rz(chi) . Ry(theta) . Rz(phi)."""

    chi: Angle
    theta: Angle
    phi: Angle

    def all_exact(self) -> bool:
        return self.chi.exact and self.theta.exact and self.phi.exact


# --------------------------------------------------------------------------
# rho: z-rotations


@lru_cache(maxsize=None)
def _rho_block(N: int) -> tuple:
    """Angle-free data of a rho_z block of width N.

    Entry (x, n) is (-1)^x N!/(n! (N-x)!) krawtchouk_trig(n, x, N, s, c)
    = scale * c^e * sum of num * s^power over the terms: the joint
    Krawtchouk coefficients as integer numerators over one denominator,
    which the rational scale absorbs with the factorial quotient and both
    signs.  One (x, n, scale, e, ((power, num), ...)) per entry."""
    out = []
    for x in range(N + 1):
        for n in range(N + 1):
            sign, e, terms = krawtchouk_trig_terms(n, x, N)
            den = lcm(*(coef.denominator for _, coef in terms))
            scale = (
                sign * neg_one_pow(x) * factorial(N)
                / (factorial(n) * factorial(N - x) * den)
            )
            nums = tuple(
                (sp, coef.numerator * (den // coef.denominator)) for sp, coef in terms
            )
            out.append((x, n, scale, e, nums))
    return tuple(out)


def _rho_block_values(N: int, a, b, q, exact: bool) -> dict:
    """{(x, n): value} over the nonzero entries of a rho_z block of width N
    at sin = a/q, cos = b/q, with one table of powers per angle.  Exact
    values sum on integers: each term's powers fill up to q^N, so every
    entry is one rational over q^N."""
    apow, bpow, qpow = [1], [1], [1]
    for _ in range(N):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
        qpow.append(qpow[-1] * q)
    out = {}
    for x, n, scale, e, nums in _rho_block(N):
        v = sum(num * apow[sp] * qpow[N - e - sp] for sp, num in nums) * bpow[e]
        if v:
            out[(x, n)] = (
                rational(scale.numerator * v, scale.denominator * qpow[N])
                if exact else float(scale) * v
            )
    return out


def rho_z(angle: Angle, basis: IrrepBasis) -> PatternMatrix:
    """Change of basis for a z-rotation; exact for ExactOnCircle angles,
    cos = 0 included.  Blocks of one width share their values."""
    s, c, exact = sin_cos(angle)
    if exact:
        q = lcm(s.denominator, c.denominator)
        a, b = s.numerator * (q // s.denominator), c.numerator * (q // c.denominator)
    else:
        a, b, q = s, c, 1

    def build():
        blocks = {}
        for i, (x21, x22, x11, _, _) in enumerate(basis.lattice):
            blocks.setdefault((x21, x22), {})[x11 - x22] = i
        values, entries = {}, {}
        for (x21, x22), pos in blocks.items():
            N = x21 - x22
            if N not in values:
                values[N] = _rho_block_values(N, a, b, q, exact)
            for (x, n), v in values[N].items():
                entries[(pos[x], pos[n])] = v
        return PatternMatrix(basis, entries, exact)

    if exact:
        return basis.memo(("rho_z", s, c), build)
    return build()


# --------------------------------------------------------------------------
# per-pattern factors shared by tau, sigma_formula and hybrid_sigma


def _t_factor(c):
    """Normalization factor of the tau entries at the row pattern with
    lattice coordinates c.  In the row entries (x, y, z) = (l21', l11', l22')
    it is (x - z + 1) (l31 - l32)! (l31 - l33 + 1)! (l31 - y)! (l32 - z)!
    (y - z)! over (x - l32)! (x - l33 + 1)! (x - y)! (l31 - z + 1)!
    (l31 - x)! (z - l33)!."""
    x21, x22, x11, a, b = c
    f = math.factorial
    num = (
        (x21 - x22 + 1) * f(a - b) * f(a + 1) * f(a - x11) * f(b - x22)
        * f(x11 - x22)
    )
    den = (
        f(x21 - b) * f(x21 + 1) * f(x21 - x11) * f(a - x22 + 1) * f(a - x21)
        * f(x22)
    )
    return rational(num, den)


def _t_factors(basis: IrrepBasis) -> tuple:
    """The t-factor of every pattern, in basis order."""
    return basis.memo(
        ("t_factors",), lambda: tuple(_t_factor(c) for c in basis.lattice)
    )


def _racah_params(c) -> tuple:
    """(degree, alpha, beta, gamma, delta, window) of the shifted Racah
    factor of the pattern with lattice coordinates c: degree l31 - l21 and
    the parameters of specfun.racah_pattern_params, all of them ints."""
    x21, x22, x11, a, b = c
    alpha, gamma = b - a - 1, x11 - a - 1
    beta, delta = x21 + x22 - a - b - 1, b - x21 - x22 - 1
    window = min(-alpha - 1, -beta - delta - 1, -gamma - 1)
    return a - x21, alpha, beta, gamma, delta, window


def _racah_factor(params, x: int):
    """Shifted Racah factor at the integer variable x, for a column's
    _racah_params; zero outside the window."""
    n, alpha, beta, gamma, delta, window = params
    if x < 0 or x > window or n > window:
        return ZERO
    return racah_sum_exact(n, x, alpha, beta, gamma, delta)


# --------------------------------------------------------------------------
# tau: the transition T between the two sl2 embeddings


def tau_raw(basis: IrrepBasis) -> PatternMatrix:
    """Closed-form tau with the sign convention as derived, before the
    global sign.  Row i couples only to the columns with the same l11 and
    with l21 + l22 = l'11 - l'21 - l'22, looked up by that key.  Entry
    (i, j) is (-1)^(l'22 - l21) t(row) R(col; l31 - l'21), on the lattice
    coordinates, with each column's Racah parameters built once."""

    def build():
        lattice = basis.lattice
        t = _t_factors(basis)
        cols = {}
        for j, c in enumerate(lattice):
            x21, x22, x11, _, _ = c
            cols.setdefault((x11, x21 + x22), []).append((j, x21, _racah_params(c)))
        entries = {}
        for i, (x21, x22, x11, a, b) in enumerate(lattice):
            x = a - x21
            for j, col21, params in cols.get((x11, x11 - x21 - x22 + a + b), ()):
                r = _racah_factor(params, x)
                if r:
                    v = t[i] * r
                    entries[(i, j)] = -v if (x22 - col21) % 2 else v
        return PatternMatrix._nonzero(basis, entries)

    return basis.memo(("tau_raw",), build)


def tau_sign(basis: IrrepBasis) -> int:
    """Global sign of tau, (-1)^(l31 - l33); the rotations suite checks it
    against the exponential oracle."""
    w = basis.weight
    return neg_one_pow(w.l31 - w.l33)


def tau(basis: IrrepBasis) -> PatternMatrix:
    return basis.memo(
        ("tau",), lambda: tau_raw(basis).scaled(rational(tau_sign(basis)))
    )


def tau_inverse(basis: IrrepBasis) -> PatternMatrix:
    """Inverse of tau: tau is orthogonal, so this is its adjoint (exact,
    no roots)."""
    return basis.memo(("tau_inverse",), lambda: adjoint(tau(basis)))


# --------------------------------------------------------------------------
# sigma: general rotations

# Largest height l31 - l33 at which the float product stays orthogonal to
# 1e-9 at the orthonormal scale (the rotations suite's oracle bound).  Worst
# defect over 180 random radian triples at (20, 0): 6.8e-10; at (21, 0) one
# of 150 reached 2.0e-9, and at (24, 0) 4.7e-9.  Above it the float rho_z
# sums lose their digits: 6.3e-4 at height 30, 2.3e5 at height 60.
FLOAT_HEIGHT_CAP = 20


def sigma_product(angles: EulerAngles, basis: IrrepBasis) -> PatternMatrix:
    """Five-factor product rho_phi tau^-1 rho_theta tau rho_chi.

    Exact angles multiply exactly, as one integer chain (exact_product).
    Any float factor routes the whole product through the orthonormal basis,
    where every factor is an orthogonal matrix and the factorial-sized
    entries of the raw basis cannot amplify roundoff.  Float angles are
    refused above FLOAT_HEIGHT_CAP, before any matrix is built.
    """
    if not angles.all_exact() and basis.weight.height > FLOAT_HEIGHT_CAP:
        raise ValueError(
            f"float angles lose their digits above height {FLOAT_HEIGHT_CAP} "
            f"(FLOAT_HEIGHT_CAP); {basis.weight} has height {basis.weight.height}. "
            "Use exact angles 's:c', or the float oracle (--path oracle)"
        )
    rho_phi = rho_z(angles.phi, basis)
    rho_theta = rho_z(angles.theta, basis)
    rho_chi = rho_z(angles.chi, basis)
    if angles.all_exact():
        return exact_product(
            rho_phi, tau_inverse(basis), rho_theta, tau(basis), rho_chi
        )
    t = tau(basis).zeta_numpy()
    out = rho_phi.zeta_numpy() @ t.T @ rho_theta.zeta_numpy() @ t
    return PatternMatrix.from_zeta_numpy(basis, out @ rho_chi.zeta_numpy())


def _exact_sin_cos(angle: Angle):
    """(sin, cos) of an exact angle; the closed forms take no float angles."""
    if not angle.exact:
        raise ValueError(
            f"closed forms take exact angles 's:c', got {angle}; use "
            "sigma_product or the oracle for float angles"
        )
    return angle.sin, angle.cos


def _int_range(lo, hi):
    """Unit-step values from lo to hi inclusive (rational lattice points)."""
    count = as_int(hi - lo)
    return [lo + k for k in range(count + 1)] if count >= 0 else []


def _sigma_tables(basis: IrrepBasis):
    """Angle-independent parts of the closed double sum, built once per basis.

    With S = l21 + l22, the summand of sigma[i, j] at the lattice point
    (n, ell) factors as A[i; n, ell] * M[S_i, S_j; n, ell] * B[j; n, ell]:

    - A, the row part: (-1)^(l'11 - l31) t(l'21, n + S_i, l'22), the row
      factorial quotient and the row Racah value, times K_phi(n + l'21,
      l'11 - l'22; l'21 - l'22);
    - B, the column part: t(ell, n + S_j, n - ell), the column factorial
      quotient and the column Racah value, times K_chi(l11 - l22, n + l21;
      l21 - l22);
    - M, the shared part: (-1)^(ell - n + l31) (2 ell - n)! times
      K_theta(ell + S_j, ell + S_i; 2 ell - n).

    The sign is split at l31 so that both exponents stay integers on
    fractional weights.  Lattice coordinates are shifted onto the integers:
    a point is keyed by (n + l31, l31 - ell) and a pattern's S is stored as
    s = S + l31.  The support of a row or column table is exactly that
    pattern's share of the summation window, so the sum runs over the keys
    the row and the column have in common.

    Returns (rows, cols, middle, s).  rows[i], cols[j] and
    middle[(s_i, s_j)] are lists of ((Krawtchouk degree, variable, N),
    {key: angle-free coefficient}): one item per n for A and B, one per key
    for M.  s[i] is the shifted S of pattern i.
    """

    def build():
        w = basis.weight
        l31, l32, l33 = w.l31, w.l32, w.l33
        t = _t_factors(basis)
        racah = [_racah_params(c) for c in basis.lattice]
        index = basis.index
        rows, cols = [], []
        keys_by_s = {}
        for p in basis:
            l21, l22, l11 = p.l21, p.l22, p.l11
            S = l21 + l22
            width = as_int(l21 - l22)
            row_sign = neg_one_pow(l11 - l31)
            keys = keys_by_s.setdefault(as_int(S + l31), set())
            row, col = [], []
            for n in _int_range(-l21, -l22):
                nu = as_int(n + l31)
                q = index[GTPattern(w, l21, l22, n + S)]
                row_pref = (
                    row_sign * t[q] * factorial(width)
                    / (factorial(n + l21) * factorial(l21 - l11))
                )
                col_pref = factorial(width) / (
                    factorial(l11 - l22) * factorial(-n - l22)
                )
                row_coeffs, col_coeffs = {}, {}
                lo = max(l32, n - l32, -S, n + S)
                for ell in _int_range(lo, min(l31, n - l33)):
                    lam = as_int(l31 - ell)
                    r = _racah_factor(racah[q], lam)
                    if r == 0:
                        continue
                    key = (nu, lam)
                    mid = index[GTPattern(w, ell, n - ell, n + S)]
                    row_coeffs[key] = row_pref / factorial(ell - n - S) * r
                    col_coeffs[key] = t[mid] * col_pref / factorial(ell + S) * r
                    keys.add(key)
                n_plus = as_int(n + l21)
                row.append(((n_plus, as_int(l11 - l22), width), row_coeffs))
                col.append(((as_int(l11 - l22), n_plus, width), col_coeffs))
            rows.append(row)
            cols.append(col)

        h3 = as_int(3 * l31)  # ell - n + l31 = h3 - lam - nu
        middle = {}
        for si, row_keys in keys_by_s.items():
            for sj, col_keys in keys_by_s.items():
                parts = middle[(si, sj)] = []
                for nu, lam in sorted(row_keys & col_keys):
                    N = h3 - 2 * lam - nu  # 2 ell - n
                    coeff = neg_one_pow(h3 - lam - nu) * factorial(N)
                    parts.append(((sj - lam, si - lam, N), {(nu, lam): coeff}))
        s = tuple(as_int(p.l21 + p.l22 + l31) for p in basis)
        return rows, cols, middle, s

    return basis.memo(("sigma_tables",), build)


def sigma_formula(angles: EulerAngles, basis: IrrepBasis) -> PatternMatrix:
    """Closed double sum for sigma: three Krawtchouk and two Racah factors
    per term, contracted from the per-basis tables of _sigma_tables.  Exact
    angles only.

    Each Krawtchouk factor is evaluated jointly with its tangent/cosine
    monomial (the tangent exponent is always degree + variable), which keeps
    entries finite and exact at every angle.  Per call each distinct
    argument triple is evaluated once per angle."""
    s_chi, c_chi = _exact_sin_cos(angles.chi)
    s_the, c_the = _exact_sin_cos(angles.theta)
    s_phi, c_phi = _exact_sin_cos(angles.phi)
    rows, cols, middle, s = _sigma_tables(basis)

    def kraw(sn, cs):
        """Krawtchouk factor at one angle, each argument triple once."""
        return lru_cache(maxsize=None)(lambda args: krawtchouk_trig(*args, sn, cs))

    def weigh(parts, k):
        """{key: coeff * K(args)} over the (args, {key: coeff}) parts."""
        out = {}
        for args, coeffs in parts:
            kv = k(args)
            if kv != 0:
                for key, v in coeffs.items():
                    out[key] = v * kv
        return out

    k_phi, k_the, k_chi = kraw(s_phi, c_phi), kraw(s_the, c_the), kraw(s_chi, c_chi)
    a = [weigh(parts, k_phi) for parts in rows]
    m = {pair: weigh(parts, k_the) for pair, parts in middle.items()}
    b = [weigh(parts, k_chi) for parts in cols]

    # terms are summed as integers over one denominator per row and per
    # column, so the inner loop never builds a rational
    col_classes = {}
    for j, bj in enumerate(b):
        if bj:
            col_classes.setdefault(s[j], []).append((j, _common_denominator(bj)))
    entries = {}
    for i, ai in enumerate(a):
        if not ai:
            continue
        for sj, js in col_classes.items():
            mp = m[(s[i], sj)]
            am, da = _common_denominator(
                {key: v * mp[key] for key, v in ai.items() if key in mp}
            )
            if not am:
                continue
            for j, (bj, db) in js:
                acc = 0
                for key, v in bj.items():
                    u = am.get(key)
                    if u is not None:
                        acc += u * v
                if acc != 0:
                    entries[(i, j)] = rational(acc, da * db)
    return PatternMatrix(basis, entries)


def _common_denominator(values: dict):
    """({key: integer numerator}, d) with values[key] = numerator / d."""
    d = 1
    for v in values.values():
        d = lcm(d, v.denominator)
    return {key: v.numerator * (d // v.denominator) for key, v in values.items()}, d


def sigma_symmetric(angles: EulerAngles, basis: IrrepBasis) -> PatternMatrix:
    """Single sum of three Krawtchouk factors, valid when l32 = l33.

    The prefactor is the one obtained by collapsing the five-factor product
    in the symmetric representation; the product path is the arbiter (see
    the verify suite)."""
    w = basis.weight
    if w.l32 != w.l33:
        raise NotSymmetricRep(f"{w} has l32 != l33")
    m = w.l33
    s_chi, c_chi = _exact_sin_cos(angles.chi)
    s_the, c_the = _exact_sin_cos(angles.theta)
    s_phi, c_phi = _exact_sin_cos(angles.phi)

    entries = {}
    for i, row in enumerate(basis):
        l21, l11 = row.l21, row.l11
        for j, col in enumerate(basis):
            lp21, lp11 = col.l21, col.l11
            sign = neg_one_pow((l11 - l21) + (m - l21))
            acc = rational(0)
            for ell in _int_range(max(rational(0), l21 - lp21), l21 - m):
                k1 = krawtchouk_trig(ell, l11 - m, l21 - m, s_phi, c_phi)
                if k1 == 0:
                    continue
                k2 = krawtchouk_trig(
                    ell + lp21 - l21, ell, ell - l21 - 2 * m, s_the, c_the
                )
                if k2 == 0:
                    continue
                k3 = krawtchouk_trig(
                    lp11 - m, ell + lp21 - l21, lp21 - m, s_chi, c_chi
                )
                if k3 == 0:
                    continue
                pref = (
                    factorial(ell - l21 - 2 * m)
                    * factorial(lp21 - m) ** 2
                    / (
                        factorial(ell)
                        * factorial(l21 - l11)
                        * factorial(ell + lp21 - l21)
                        * factorial(-2 * m - l21)
                        * factorial(lp11 - m)
                        * factorial(l21 - ell - m)
                    )
                )
                acc += sign * pref * k1 * k2 * k3
            if acc != 0:
                entries[(i, j)] = acc
    return PatternMatrix(basis, entries)


def hybrid_variables(row: GTPattern, col: GTPattern) -> dict:
    """Variable dictionary of the bivariate hybrid family for one entry."""
    w = row.weight
    return {
        "x1": col.l22 + col.l21 + w.l31,
        "x2": w.l31 - col.l21,
        "n1": row.l11 - row.l22,
        "n2": w.l31 - row.l21,
        "N": 2 * w.l31 - row.l21 - row.l22,
    }


def hybrid_polynomial(n1, n2, x1, x2, N, alpha, beta, delta, angle: Angle):
    """Bivariate hybrid function: Krawtchouk in (x1 - n2), shifted Racah in
    x2 with gamma tied to x1.  Exact angles only."""
    s, _ = _exact_sin_cos(angle)
    k = krawtchouk(n1, x1 - n2, KrawtchoukParams(s * s, N - 2 * n2))
    return k * racah_tilde(n2, x2, RacahParams(alpha, beta, x1 - N - 1, delta))


def hybrid_sigma(eta: Angle, basis: IrrepBasis) -> PatternMatrix:
    """Closed form for the rotation Rz(eta) . T: one Krawtchouk and one
    shifted Racah factor per entry, carrying tau's global sign.  Exact
    angles only."""
    s, c = _exact_sin_cos(eta)
    cal = rational(tau_sign(basis))
    t = _t_factors(basis)
    lattice = basis.lattice

    entries = {}
    for i, row in enumerate(basis):
        rp21, rp22, rp11 = row.l21, row.l22, row.l11
        rx21, _, rx11, a, b = lattice[i]
        for j, col in enumerate(basis):
            l21, l22, l11 = col.l21, col.l22, col.l11
            if l21 + l22 != rp11 - rp21 - rp22:
                continue
            k = krawtchouk_trig(l11 - l22, rp11 - l22, l21 - l22, s, c)
            if k == 0:
                continue
            cx21, cx22 = lattice[j][:2]
            r = _racah_factor(_racah_params((cx21, cx22, rx11, a, b)), a - rx21)
            if r == 0:
                continue
            pref = (
                cal
                * t[i]
                * neg_one_pow(2 * l21 + rp21)
                * factorial(l21 - l22)
                / (factorial(l11 - l22) * factorial(l21 - rp11))
            )
            entries[(i, j)] = pref * r * k
    return PatternMatrix(basis, entries)


# --------------------------------------------------------------------------
# the rotation matrices themselves and the bispectral residuals


def _mat3_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def rotation_matrix(angles: EulerAngles):
    """S = Rz(chi) Ry(theta) Rz(phi) as a 3x3 nested list, exact when every
    angle is exact and plain float otherwise (no mixing)."""
    exact = angles.all_exact()

    def trig(angle):
        s, c, _ = sin_cos(angle)
        return (s, c) if exact else (float(s), float(c))

    zero, one = (rational(0), rational(1)) if exact else (0.0, 1.0)

    def rz(angle):
        s, c = trig(angle)
        return [[c, s, zero], [-s, c, zero], [zero, zero, one]]

    def ry(angle):
        s, c = trig(angle)
        return [[c, zero, -s], [zero, one, zero], [s, zero, c]]

    return _mat3_mul(_mat3_mul(rz(angles.chi), ry(angles.theta)), rz(angles.phi))


def transpose3(m):
    return [[m[j][i] for j in range(3)] for i in range(3)]


def _psi_generator(s3, i: int, j: int, basis: IrrepBasis) -> PatternMatrix:
    out = PatternMatrix.zeros(basis, exact=is_exact(s3[0][0]))
    for k in range(1, 4):
        for l in range(1, 4):
            coeff = s3[k - 1][i - 1] * s3[l - 1][j - 1]
            if coeff != 0:
                out = out + generator_matrix(f"e{k}{l}", basis).scaled(coeff)
    return out


def psi_element(s3, name: str, basis: IrrepBasis) -> PatternMatrix:
    """Represented image of H, Y or J under the inner automorphism of the
    rotation with defining matrix s3."""
    p = lambda i, j: _psi_generator(s3, i, j, basis)
    if name == "H":
        return p(1, 1) - p(2, 2)
    if name == "Y":
        return (p(1, 1) + p(2, 2) - p(3, 3).scaled(rational(2))).scaled(
            rational(1, 3)
        )
    if name == "J":
        return sl2_casimir(p(1, 1) - p(2, 2), p(2, 1), p(1, 2))
    raise ValueError(f"bispectral residuals are defined for H, Y, J; got {name!r}")


def bispectral_residual(
    g: str,
    kind: str,
    angles: EulerAngles,
    basis: IrrepBasis,
    sigma: PatternMatrix = None,
) -> PatternMatrix:
    """Recurrence: sigma Psi_S(g) - g sigma.  Difference: sigma g -
    Psi_{S^t}(g) sigma.  Both contracts are the zero matrix."""
    if sigma is None:
        sigma = sigma_product(angles, basis)
    s3 = rotation_matrix(angles)
    gm = element_matrix(g, basis)
    if kind == "Recurrence":
        return sigma @ psi_element(s3, g, basis) - gm @ sigma
    if kind == "Difference":
        return sigma @ gm - psi_element(transpose3(s3), g, basis) @ sigma
    raise ValueError(f"kind must be Recurrence or Difference, got {kind!r}")


def h_recurrence_explicit_residual(
    angles: EulerAngles, basis: IrrepBasis, sigma: PatternMatrix = None
) -> PatternMatrix:
    """The explicit nine-group recurrence for g = H, assembled term by term
    from the entries of S and the shifted columns of sigma; must equal the
    mechanical residual, i.e. vanish."""
    if sigma is None:
        sigma = sigma_product(angles, basis)
    s3 = rotation_matrix(angles)
    s = lambda i, j: s3[i - 1][j - 1]
    w = basis.weight
    zero = rational(0) if sigma.exact else 0.0

    def sig(i, pattern):
        if pattern is None:
            return zero
        j = basis.index.get(pattern)
        return zero if j is None else sigma.get(i, j)

    entries = {}
    for jcol, p in enumerate(basis):
        l21, l22, l11 = p.l21, p.l22, p.l11
        den = l21 - l22 + 1
        moves = {
            name: shift(p, mv)
            for name, mv in {
                "+11": (1, 0, 0), "-11": (-1, 0, 0),
                "+21": (0, 1, 0), "-21": (0, -1, 0),
                "+22": (0, 0, 1), "-22": (0, 0, -1),
                "+11+21": (1, 1, 0), "+11+22": (1, 0, 1),
                "-11-21": (-1, -1, 0), "-11-22": (-1, 0, -1),
            }.items()
        }
        for irow, rp in enumerate(basis):
            total = (
                (s(1, 1) ** 2 - s(1, 2) ** 2) * l11
                + (s(2, 1) ** 2 - s(2, 2) ** 2) * (l21 + l22 - l11)
                - (s(3, 1) ** 2 - s(3, 2) ** 2) * (l21 + l22)
            ) * sigma.get(irow, jcol)
            total += (
                (s(1, 1) * s(2, 1) - s(1, 2) * s(2, 2))
                * (l21 - l11)
                * (l11 - l22 + 1)
                * sig(irow, moves["+11"])
            )
            total += (s(2, 1) * s(1, 1) - s(2, 2) * s(1, 2)) * sig(irow, moves["-11"])
            total += (s(2, 1) * s(3, 1) - s(2, 2) * s(3, 2)) * (
                (w.l31 - l21) / den * sig(irow, moves["+21"])
                + (w.l31 - l22 + 1) / den * sig(irow, moves["+22"])
            )
            total += (s(3, 1) * s(2, 1) - s(3, 2) * s(2, 2)) * (
                (l21 - w.l32) * (l21 - w.l33 + 1) * (l21 - l11) / den
                * sig(irow, moves["-21"])
                + (l11 - l22 + 1) * (w.l32 - l22 + 1) * (l22 - w.l33) / den
                * sig(irow, moves["-22"])
            )
            total += (s(1, 1) * s(3, 1) - s(1, 2) * s(3, 2)) * (
                (l11 - l22 + 1) * (w.l31 - l21) / den * sig(irow, moves["+11+21"])
                - (l21 - l11) * (w.l31 - l22 + 1) / den * sig(irow, moves["+11+22"])
            )
            total += (s(3, 1) * s(1, 1) - s(3, 2) * s(1, 2)) * (
                (l21 - w.l32) * (l21 - w.l33 + 1) / den * sig(irow, moves["-11-21"])
                - (w.l32 - l22 + 1) * (l22 - w.l33) / den * sig(irow, moves["-11-22"])
            )
            total -= h_eigenvalue(rp) * sigma.get(irow, jcol)
            if total != 0:
                entries[(irow, jcol)] = total
    return PatternMatrix(basis, entries, sigma.exact)
