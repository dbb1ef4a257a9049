import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gtrotor.gt_basis import (
    GTPattern,
    HighestWeight,
    enumerate_patterns,
    shift,
    weights_up_to_height,
)
from gtrotor.numerics import (
    Radians,
    as_int,
    exact_angle,
    factorial,
    neg_one_pow,
    rational,
)
import gtrotor
from gtrotor.oracle import (
    T_MATRIX,
    calibrate_tau_sign,
    rho_oracle,
    rho_z_oracle,
    tau_sign_residual,
)
from gtrotor.rep import element_matrix, j_eigenvalue, y_eigenvalue
from gtrotor.rotations import (
    EulerAngles,
    NotSymmetricRep,
    _t_factors,
    bispectral_residual,
    h_recurrence_explicit_residual,
    hybrid_polynomial,
    hybrid_sigma,
    hybrid_variables,
    orthogonality_defect,
    rho_z,
    rotation_matrix,
    sigma_formula,
    sigma_product,
    sigma_symmetric,
    tau,
    tau_inverse,
    tau_raw,
    tau_sign,
)
from gtrotor.specfun import krawtchouk_trig, racah_pattern_params, racah_tilde

A0 = exact_angle(0, 1)
A35 = exact_angle(rational(3, 5), rational(4, 5))
A513 = exact_angle(rational(5, 13), rational(12, 13))
POLE = exact_angle(1, 0)
NEG_POLE = exact_angle(-1, 0)


def basis_of(*triple):
    return enumerate_patterns(HighestWeight.of(*triple))


@pytest.fixture(scope="module")
def adjoint():
    return basis_of(1, 0, -1)


@pytest.fixture(scope="module")
def defining():
    return basis_of(rational(2, 3), rational(-1, 3), rational(-1, 3))


# -- references: the defining Fraction formulas of tau's set-up ---------------


def reference_t_factor(w, x, y, z):
    """Normalization factor of the tau entries in the row pattern
    (x, y, z) = (l21', l11', l22'), on Fractions."""
    num = (
        (x - z + 1)
        * factorial(w.l31 - w.l32)
        * factorial(w.l31 - w.l33 + 1)
        * factorial(w.l31 - y)
        * factorial(w.l32 - z)
        * factorial(y - z)
    )
    den = (
        factorial(x - w.l32)
        * factorial(x - w.l33 + 1)
        * factorial(x - y)
        * factorial(w.l31 - z + 1)
        * factorial(w.l31 - x)
        * factorial(z - w.l33)
    )
    return num / den


def reference_tau_raw(basis):
    """tau before its global sign, entry by entry over all (row, column)
    pairs: (-1)^(l'22 - l21) t(row) times the shifted Racah value of degree
    l31 - l21 at l31 - l'21 with the column's Racah parameters."""
    w = basis.weight
    entries = {}
    for i, row in enumerate(basis):
        t = reference_t_factor(w, row.l21, row.l11, row.l22)
        for j, col in enumerate(basis):
            if col.l11 != row.l11 or col.l21 + col.l22 != row.l11 - row.l21 - row.l22:
                continue
            r = racah_tilde(
                as_int(w.l31 - col.l21), w.l31 - row.l21, racah_pattern_params(col)
            )
            v = t * neg_one_pow(row.l22 - col.l21) * r
            if v != 0:
                entries[(i, j)] = v
    return entries


TAU_REFERENCE_WEIGHTS = [str(w) for w in weights_up_to_height(6)] + [
    "6,0,-6",
    "14/3,2/3,-16/3",
]


@pytest.mark.parametrize("text", [str(w) for w in weights_up_to_height(6)])
def test_t_factors_equal_the_fraction_formula(text):
    basis = enumerate_patterns(HighestWeight.parse(text))
    w = basis.weight
    assert _t_factors(basis) == tuple(
        reference_t_factor(w, p.l21, p.l11, p.l22) for p in basis
    )


@pytest.mark.parametrize("text", TAU_REFERENCE_WEIGHTS)
def test_tau_raw_equals_the_fraction_formula(text):
    basis = enumerate_patterns(HighestWeight.parse(text))
    assert tau_raw(basis).entries == reference_tau_raw(basis)


# -- rho ---------------------------------------------------------------------


def test_rho_zero_angle_is_identity(adjoint):
    assert rho_z(A0, adjoint).is_identity()


def test_rho_block_structure(adjoint):
    m = rho_z(A35, adjoint)
    for (i, j) in m.entries:
        assert (adjoint[i].l21, adjoint[i].l22) == (adjoint[j].l21, adjoint[j].l22)


def test_rho_tan_pole(adjoint, defining):
    """At cos = 0, where tan has its pole, rho_z is exact, orthogonal and
    agrees with the exponential at the orthonormal scale."""
    for angle in (POLE, NEG_POLE):
        for basis in (adjoint, defining, basis_of(3, 0, -3)):
            m = rho_z(angle, basis)
            assert m.exact
            assert orthogonality_defect(m).is_zero()
            oracle = rho_z_oracle(angle.radians(), basis)
            assert np.max(np.abs(m.zeta_numpy() - oracle.zeta_numpy())) < 1e-12


def test_rho_entries_match_the_direct_sum():
    """rho_z on per-angle power tables equals the entrywise closed form
    (-1)^x N!/(n! (N-x)!) krawtchouk_trig(n, x, N, s, c), exactly."""
    fractional = basis_of(rational(4, 3), rational(1, 3), rational(-5, 3))
    for basis in (basis_of(1, 0, -1), basis_of(3, 1, -4), fractional):
        for angle in FLIPPED:
            s, c = angle.sin, angle.cos
            expected = {}
            for i, row in enumerate(basis):
                for j, col in enumerate(basis):
                    if (row.l21, row.l22) != (col.l21, col.l22):
                        continue
                    N = int(row.l21 - row.l22)
                    x, n = int(row.l11 - row.l22), int(col.l11 - col.l22)
                    v = (
                        (-1) ** x * factorial(N) / (factorial(n) * factorial(N - x))
                        * krawtchouk_trig(n, x, N, s, c)
                    )
                    if v != 0:
                        expected[(i, j)] = v
            assert rho_z(angle, basis).entries == expected


def test_rho_matches_oracle_on_defining(defining):
    closed = rho_z(A35, defining).to_float()
    oracle = rho_oracle(
        np.array([[0.8, 0.6, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]), defining
    )
    assert closed.max_abs_diff(oracle) < 1e-12


def test_rho_satisfies_h_constraint(adjoint):
    """Three-term relation in the column pattern tying rho's entries to the
    conjugated Cartan element (the source of the Krawtchouk recurrence)."""
    s, c = rational(3, 5), rational(4, 5)
    m = rho_z(A35, adjoint)

    def entry(i, p):
        if p is None:
            return rational(0)
        return m.get(i, adjoint.index_of(p))

    for jcol, p in enumerate(adjoint):
        for irow, q in enumerate(adjoint):
            lhs = (2 * q.l11 - q.l21 - q.l22) * m.get(irow, jcol)
            rhs = (
                -2 * c * s * (p.l21 - p.l11) * (p.l11 - p.l22 + 1)
                * entry(irow, shift(p, (1, 0, 0)))
                + (c * c - s * s) * (2 * p.l11 - p.l21 - p.l22) * m.get(irow, jcol)
                - 2 * c * s * entry(irow, shift(p, (-1, 0, 0)))
            )
            assert lhs == rhs


# -- tau ---------------------------------------------------------------------


def symmetric_tau_entry(w, row, col):
    """Closed form for the symmetric representation, written independently."""
    from gtrotor.numerics import factorial, neg_one_pow

    m = w.l32
    if row.l11 != col.l11 or col.l21 + 2 * m != row.l11 - row.l21:
        return rational(0)
    if row.l22 != m or col.l22 != m:
        return rational(0)
    return (
        neg_one_pow(m - col.l21)
        * factorial(col.l21 - m)
        / factorial(col.l11 - col.l21 - 3 * m)
    )


def test_tau_symmetric_rep_reduction():
    for triple in (
        (rational(2, 3), rational(-1, 3), rational(-1, 3)),
        (rational(4, 3), rational(-2, 3), rational(-2, 3)),
        (2, -1, -1),
    ):
        basis = basis_of(*triple)
        t = tau_raw(basis)
        for i, row in enumerate(basis):
            for j, col in enumerate(basis):
                assert t.get(i, j) == symmetric_tau_entry(basis.weight, row, col)


def test_tau_defining_coefficient_one(defining):
    t = tau_raw(defining)
    src = GTPattern(defining.weight, rational(-1, 3), rational(-1, 3), rational(-1, 3))
    dst = GTPattern(defining.weight, rational(2, 3), rational(-1, 3), rational(-1, 3))
    assert t.get(defining.index_of(dst), defining.index_of(src)) == 1


def two_row_tau_entry(w, row, col):
    from gtrotor.numerics import factorial, neg_one_pow

    l31 = w.l31
    if row.l11 != col.l11 or row.l22 != col.l11 - col.l22 - 2 * l31:
        return rational(0)
    if row.l21 != l31 or col.l21 != l31:
        return rational(0)
    return (
        neg_one_pow(row.l22 - l31)
        * factorial(col.l22 + 2 * l31)
        / factorial(col.l11 - col.l22)
    )


def test_tau_two_row_reduction():
    for triple in (
        (rational(1, 3), rational(1, 3), rational(-2, 3)),
        (rational(2, 3), rational(2, 3), rational(-4, 3)),
        (1, 1, -2),
    ):
        basis = basis_of(*triple)
        t = tau_raw(basis)
        for i, row in enumerate(basis):
            for j, col in enumerate(basis):
                assert t.get(i, j) == two_row_tau_entry(basis.weight, row, col)


@pytest.mark.parametrize("triple", [(1, 0, -1), (2, 0, -2)])
def test_tau_inverse_identities(triple):
    basis = basis_of(*triple)
    t, ti = tau(basis), tau_inverse(basis)
    assert (ti @ t).is_identity()
    assert (t @ ti).is_identity()


def test_tau_trivial_rep():
    basis = basis_of(0, 0, 0)
    assert tau(basis).is_identity()
    assert tau_inverse(basis).is_identity()


def test_tau_squared_represents_t_squared(adjoint):
    t2 = (tau(adjoint) @ tau(adjoint)).to_float()
    target = rho_oracle(T_MATRIX @ T_MATRIX, adjoint)
    assert t2.max_abs_diff(target) < 1e-10


def test_tau_carries_calibrated_sign(adjoint):
    assert tau(adjoint) == tau_raw(adjoint).scaled(rational(tau_sign(adjoint)))


def test_tau_sign_matches_oracle_height_12():
    """Height 12 (6,0,-6, dim 343), where the former relative comparison
    on the unnormalized basis failed: the closed sign agrees with the
    exponential oracle."""
    basis = basis_of(6, 0, -6)
    assert calibrate_tau_sign(basis) == tau_sign(basis)
    assert tau_sign_residual(basis) < 1e-12


# -- sigma: three paths --------------------------------------------------------


def test_sigma_product_identity_at_zero(adjoint):
    assert sigma_product(EulerAngles(A0, A0, A0), adjoint).is_identity()


def test_sigma_formula_equals_product(adjoint):
    for angles in (
        EulerAngles(A35, A35, A35),
        EulerAngles(A35, A513, A0),
        EulerAngles(A513, A0, A35),
    ):
        assert sigma_formula(angles, adjoint) == sigma_product(angles, adjoint)


# sign-flipped pool angles (every quadrant), the zero angle and both poles
FLIPPED = (
    exact_angle(rational(-3, 5), rational(4, 5)),
    exact_angle(rational(5, 13), rational(-12, 13)),
    exact_angle(rational(-8, 17), rational(-15, 17)),
    A0,
    POLE,
    NEG_POLE,
)
FLIPPED_TRIPLES = [
    EulerAngles(FLIPPED[0], FLIPPED[1], FLIPPED[2]),
    EulerAngles(FLIPPED[1], FLIPPED[2], FLIPPED[3]),
    EulerAngles(FLIPPED[3], FLIPPED[0], FLIPPED[1]),
    EulerAngles(FLIPPED[2], FLIPPED[3], FLIPPED[0]),
    EulerAngles(FLIPPED[4], FLIPPED[0], FLIPPED[5]),
    EulerAngles(FLIPPED[1], FLIPPED[5], FLIPPED[4]),
    EulerAngles(FLIPPED[5], FLIPPED[4], FLIPPED[2]),
]


@pytest.mark.parametrize(
    "triple", [(3, 0, -3), (rational(4, 3), rational(1, 3), rational(-5, 3))]
)
def test_sigma_formula_equals_product_beyond_gate(triple):
    """Exact cross-path equality above the acceptance gate's height 5
    (3,0,-3 is dim 64, height 6) and on a fractional weight, with every
    angle slot also taken by a pole."""
    basis = basis_of(*triple)
    for angles in FLIPPED_TRIPLES:
        assert sigma_formula(angles, basis) == sigma_product(angles, basis)


def test_sigma_product_equals_pairwise_fold():
    """The one integer chain of sigma_product equals the pairwise @ fold on
    every weight of height <= 4 (4/3,1/3,-5/3 among them), with every angle
    slot also taken by 1:0, 0:1 and -1:0."""
    for w in weights_up_to_height(4):
        basis = enumerate_patterns(w)
        for angles in FLIPPED_TRIPLES:
            fold = (
                rho_z(angles.phi, basis) @ tau_inverse(basis)
                @ rho_z(angles.theta, basis) @ tau(basis) @ rho_z(angles.chi, basis)
            )
            assert sigma_product(angles, basis) == fold, (str(w), angles)


def test_sigma_orthogonality_exact(adjoint):
    angles = EulerAngles(A35, A513, A35)
    for m in (
        rho_z(A35, adjoint),
        tau(adjoint),
        sigma_product(angles, adjoint),
    ):
        assert orthogonality_defect(m).is_zero()


def test_sigma_float_path_consistent_with_exact(adjoint):
    exact = sigma_product(EulerAngles(A35, A513, A35), adjoint)
    rads = EulerAngles(
        Radians(math.atan2(0.6, 0.8)),
        Radians(math.atan2(5 / 13, 12 / 13)),
        Radians(math.atan2(0.6, 0.8)),
    )
    approx = sigma_product(rads, adjoint)
    assert not approx.exact
    assert np.max(np.abs(exact.zeta_numpy() - approx.zeta_numpy())) < 1e-12


def test_sigma_product_exact_at_cos_zero(adjoint):
    angles = EulerAngles(POLE, A35, A0)
    m = sigma_product(angles, adjoint)
    assert m.exact
    assert orthogonality_defect(m).is_zero()
    s3 = np.array(rotation_matrix(angles), dtype=float)
    assert np.max(np.abs(m.zeta_numpy() - rho_oracle(s3, adjoint).zeta_numpy())) < 1e-10


def test_sigma_formula_tan_pole(adjoint):
    angles = EulerAngles(POLE, A35, A35)
    m = sigma_formula(angles, adjoint)
    assert m.exact
    assert m == sigma_product(angles, adjoint)


def test_sigma_at_t_angles_reproduces_tau(adjoint, defining):
    """The angle triple (pi/2, pi/2, -pi/2) realizes the axis-exchange
    rotation itself; the product path lands on tau exactly."""
    angles = EulerAngles(POLE, POLE, NEG_POLE)
    assert rotation_matrix(angles) == T_MATRIX.tolist()
    for basis in (adjoint, defining, basis_of(2, 1, -3)):
        assert sigma_product(angles, basis) == tau(basis)


def test_closed_forms_reject_float_angles(adjoint, defining):
    r = Radians(0.3)
    with pytest.raises(ValueError):
        sigma_formula(EulerAngles(A35, r, A35), adjoint)
    with pytest.raises(ValueError):
        sigma_symmetric(EulerAngles(r, A35, A35), defining)
    with pytest.raises(ValueError):
        hybrid_sigma(r, adjoint)
    with pytest.raises(ValueError):
        hybrid_polynomial(0, 0, rational(2), rational(1), 4, rational(-5),
                          rational(-4), rational(0), r)


def test_rotations_runs_without_the_oracle():
    """rotations needs no oracle, cos = 0 included: a fresh interpreter that
    loads it (bypassing the package __init__, which exports the oracle) and
    computes an exact product at the poles never imports gtrotor.oracle."""
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('gtrotor'); pkg.__path__ = [sys.argv[1]]\n"
        "sys.modules['gtrotor'] = pkg\n"
        "from gtrotor.gt_basis import HighestWeight, enumerate_patterns\n"
        "from gtrotor.numerics import exact_angle\n"
        "from gtrotor.rotations import EulerAngles, sigma_product\n"
        "pole = exact_angle(1, 0)\n"
        "basis = enumerate_patterns(HighestWeight.of(1, 0, -1))\n"
        "assert sigma_product(EulerAngles(pole, pole, pole), basis).exact\n"
        "assert 'gtrotor.oracle' not in sys.modules, 'oracle was imported'\n"
    )
    pkg_dir = str(Path(gtrotor.__file__).parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, pkg_dir], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# -- symmetric and hybrid specializations --------------------------------------


def test_sigma_symmetric_matches_product():
    for triple in (
        (rational(2, 3), rational(-1, 3), rational(-1, 3)),
        (rational(4, 3), rational(-2, 3), rational(-2, 3)),
    ):
        basis = basis_of(*triple)
        for angles in (
            EulerAngles(A35, A513, A35),
            EulerAngles(A0, A35, A513),
            EulerAngles(POLE, A35, NEG_POLE),
            EulerAngles(A513, POLE, POLE),
        ):
            assert sigma_symmetric(angles, basis) == sigma_product(angles, basis)


def test_sigma_symmetric_identity_at_zero():
    basis = basis_of(rational(4, 3), rational(-2, 3), rational(-2, 3))
    assert sigma_symmetric(EulerAngles(A0, A0, A0), basis).is_identity()


def test_sigma_symmetric_orthogonality():
    basis = basis_of(2, -1, -1)
    m = sigma_symmetric(EulerAngles(A35, A513, A0), basis)
    assert orthogonality_defect(m).is_zero()


def test_sigma_symmetric_rejects_general_weight(adjoint):
    with pytest.raises(NotSymmetricRep):
        sigma_symmetric(EulerAngles(A35, A35, A35), adjoint)


def test_hybrid_equals_tau_times_rho(adjoint, defining):
    for basis in (adjoint, defining):
        for eta in (A35, A513, POLE, NEG_POLE):
            assert hybrid_sigma(eta, basis) == tau(basis) @ rho_z(eta, basis)


def test_hybrid_at_zero_angle_reduces_to_tau(adjoint):
    assert hybrid_sigma(A0, adjoint) == tau(adjoint)


def test_hybrid_polynomial_degree_zero():
    assert (
        hybrid_polynomial(0, 0, rational(2), rational(1), 4, rational(-5),
                          rational(-4), rational(0), A35)
        == 1
    )


def test_hybrid_variables_dictionary(adjoint):
    row, col = adjoint[6], adjoint[3]
    v = hybrid_variables(row, col)
    w = adjoint.weight
    assert v["x1"] == col.l22 + col.l21 + w.l31
    assert v["x2"] == w.l31 - col.l21
    assert v["n1"] == row.l11 - row.l22
    assert v["n2"] == w.l31 - row.l21
    assert v["N"] == 2 * w.l31 - row.l21 - row.l22


# -- bispectral relations -------------------------------------------------------


@pytest.mark.parametrize("g", ["H", "Y", "J"])
@pytest.mark.parametrize("kind", ["Recurrence", "Difference"])
def test_bispectral_residuals_vanish(adjoint, g, kind):
    angles = EulerAngles(A35, A513, A35)
    resid = bispectral_residual(g, kind, angles, adjoint)
    assert resid.exact and resid.is_zero()


def test_bispectral_j_difference_spin2():
    basis = basis_of(2, 0, -2)
    resid = bispectral_residual("J", "Difference", EulerAngles(A35, A35, A35), basis)
    assert resid.is_zero()


def test_bispectral_identity_rotation_trivial(adjoint):
    for g in ("H", "Y", "J"):
        for kind in ("Recurrence", "Difference"):
            assert bispectral_residual(
                g, kind, EulerAngles(A0, A0, A0), adjoint
            ).is_zero()


def test_h_recurrence_explicit_term_by_term(adjoint):
    angles = EulerAngles(A513, A35, A513)
    sigma = sigma_product(angles, adjoint)
    explicit = h_recurrence_explicit_residual(angles, adjoint, sigma=sigma)
    assert explicit.is_zero()
    mechanical = bispectral_residual("H", "Recurrence", angles, adjoint, sigma=sigma)
    assert explicit == mechanical


def test_recurrence_eigenvalue_forms(adjoint):
    """The recurrence couples sigma rows through the diagonal eigenvalue of
    g: linear in the row pattern for Y, quadratic for J."""
    angles = EulerAngles(A35, A513, A0)
    sigma = sigma_product(angles, adjoint)
    for name, eig in (("Y", y_eigenvalue), ("J", j_eigenvalue)):
        lhs = element_matrix(name, adjoint) @ sigma
        for (i, j), v in lhs.entries.items():
            assert v == eig(adjoint[i]) * sigma.get(i, j)


def test_float_sigma_product_height_cap():
    """Float angles are refused above FLOAT_HEIGHT_CAP before any matrix is
    built; at the cap the product is orthogonal to 1e-9; exact angles are
    not capped."""
    from gtrotor.rotations import FLOAT_HEIGHT_CAP

    at_cap = enumerate_patterns(HighestWeight.from_row_lengths(FLOAT_HEIGHT_CAP, 0))
    for rads in ((0.3, 0.7, 1.1), (1.7, -2.2, 2.8), (0.05, 3.0, -1.4)):
        z = sigma_product(EulerAngles(*map(Radians, rads)), at_cap).zeta_numpy()
        assert np.max(np.abs(z.T @ z - np.eye(at_cap.dim))) <= 1e-9
    above = enumerate_patterns(HighestWeight.from_row_lengths(FLOAT_HEIGHT_CAP + 1, 0))
    with pytest.raises(ValueError, match=f"height {FLOAT_HEIGHT_CAP}"):
        sigma_product(EulerAngles(Radians(0.3), A35, A35), above)
    assert not above._cache
    assert sigma_product(EulerAngles(A35, A513, A35), above).exact
