import math

import numpy as np
import pytest

from gtrotor.gt_basis import HighestWeight, enumerate_patterns
from gtrotor.linalg import PatternMatrix, norm_vector
from gtrotor.numerics import rational
from gtrotor.oracle import (
    NotARotation,
    SignCalibrationFailed,
    T_MATRIX,
    calibrate_tau_sign,
    euler_decompose,
    exp_matrix,
    rho_oracle,
    rho_z_oracle,
    require_rotation,
    tau_oracle,
)
from gtrotor.rep import generator_matrix
from gtrotor.rotations import rotation_matrix


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


@pytest.fixture(scope="module")
def adjoint():
    return enumerate_patterns(HighestWeight.of(1, 0, -1))


@pytest.fixture(scope="module")
def defining():
    return enumerate_patterns(
        HighestWeight.of(rational(2, 3), rational(-1, 3), rational(-1, 3))
    )


def test_exp_of_zero_is_identity(adjoint):
    zero = PatternMatrix.from_numpy(adjoint, np.zeros((adjoint.dim, adjoint.dim)))
    assert exp_matrix(zero, 1.0).max_abs_diff(PatternMatrix.identity(adjoint)) == 0.0


def test_exp_of_antisymmetric_is_orthogonal(adjoint):
    d = norm_vector(adjoint)
    lz = generator_matrix("e12", adjoint).to_numpy() - generator_matrix(
        "e21", adjoint
    ).to_numpy()
    lz = d[:, None] * lz / d[None, :]
    assert np.max(np.abs(lz + lz.T)) < 1e-12  # antisymmetric in this basis
    e = exp_matrix(PatternMatrix.from_numpy(adjoint, lz), 0.7).to_numpy()
    assert np.max(np.abs(e.T @ e - np.eye(adjoint.dim))) < 1e-12


def test_exp_inverse_property(adjoint):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(adjoint.dim, adjoint.dim))
    m = PatternMatrix.from_numpy(adjoint, a)
    prod = exp_matrix(m, 0.5).to_numpy() @ exp_matrix(m, -0.5).to_numpy()
    assert np.max(np.abs(prod - np.eye(adjoint.dim))) < 1e-12


def test_require_rotation_gate():
    require_rotation(np.eye(3))
    with pytest.raises(NotARotation):
        require_rotation(np.diag([1.0, 1.0, -1.0]))  # det -1
    with pytest.raises(NotARotation):
        require_rotation(np.eye(3) * 1.001)


def test_euler_identity():
    angles = euler_decompose(np.eye(3))
    assert (angles.chi.value, angles.theta.value, angles.phi.value) == (0.0, 0.0, 0.0)


def test_euler_of_T():
    angles = euler_decompose(T_MATRIX)
    assert angles.chi.value == pytest.approx(math.pi / 2)
    assert angles.theta.value == pytest.approx(math.pi / 2)
    assert angles.phi.value == pytest.approx(-math.pi / 2)


def test_euler_roundtrip_random():
    rng = np.random.default_rng(19)
    for _ in range(40):
        r = random_rotation(rng)
        rec = np.array(rotation_matrix(euler_decompose(r)), dtype=float)
        assert np.max(np.abs(rec - r)) < 1e-12


def test_euler_gimbal_lock_convention():
    for r in (np.eye(3), np.diag([-1.0, -1.0, 1.0])):
        angles = euler_decompose(r)
        assert angles.phi.value == 0.0
    flip = np.diag([1.0, -1.0, -1.0])  # theta = pi
    angles = euler_decompose(flip)
    assert angles.phi.value == 0.0
    rec = np.array(rotation_matrix(angles), dtype=float)
    assert np.max(np.abs(rec - flip)) < 1e-12


def test_rho_oracle_identity(adjoint):
    m = rho_oracle(np.eye(3), adjoint)
    assert m.max_abs_diff(PatternMatrix.identity(adjoint)) < 1e-12


def test_rho_oracle_matches_closed_form_anchor(adjoint):
    from gtrotor.numerics import exact_angle
    from gtrotor.rotations import rho_z

    s, c = rational(3, 5), rational(4, 5)
    closed = rho_z(exact_angle(s, c), adjoint)
    direct = rho_z_oracle(math.atan2(0.6, 0.8), adjoint)
    assert closed.max_abs_diff(direct) < 1e-12
    # and through the full Euler machinery
    rz = np.array(
        [[0.8, 0.6, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]
    )
    assert closed.max_abs_diff(rho_oracle(rz, adjoint)) < 1e-12


def test_rho_oracle_defining_is_reversed_transpose(defining):
    """On the defining irrep the orthonormal-basis oracle matrix is R^-1
    conjugated by the order-reversing permutation (GT order lists the
    standard basis backwards)."""
    rng = np.random.default_rng(23)
    rev = np.eye(3)[::-1]
    for _ in range(10):
        r = random_rotation(rng)
        got = rho_oracle(r, defining)
        expected = rev @ r.T @ rev
        d = norm_vector(defining)
        zeta = d[:, None] * got.to_numpy() / d[None, :]
        assert np.max(np.abs(zeta - expected)) < 1e-12


def test_rho_oracle_contravariant(adjoint):
    rng = np.random.default_rng(29)
    for _ in range(5):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        lhs = rho_oracle(r1 @ r2, adjoint).to_numpy()
        rhs = rho_oracle(r2, adjoint).to_numpy() @ rho_oracle(r1, adjoint).to_numpy()
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_conjugation_consistency(adjoint):
    rng = np.random.default_rng(31)
    r = random_rotation(rng)
    rho = rho_oracle(r, adjoint).to_numpy()
    rho_inv = np.linalg.inv(rho)
    for i in range(1, 4):
        for j in range(1, 4):
            psi = psi_element_generator(r, i, j, adjoint)
            target = rho_inv @ generator_matrix(f"e{i}{j}", adjoint).to_numpy() @ rho
            scale = max(1.0, np.max(np.abs(target)))
            assert np.max(np.abs(psi - target)) / scale < 1e-9


def psi_element_generator(r, i, j, basis):
    out = np.zeros((basis.dim, basis.dim))
    for k in range(1, 4):
        for l in range(1, 4):
            out += r[k - 1][i - 1] * r[l - 1][j - 1] * generator_matrix(
                f"e{k}{l}", basis
            ).to_numpy()
    return out


def test_rho_oracle_orthogonal_in_normalized_basis(adjoint):
    rng = np.random.default_rng(37)
    r = random_rotation(rng)
    zeta = rho_oracle(r, adjoint).zeta_numpy()
    assert np.max(np.abs(zeta.T @ zeta - np.eye(adjoint.dim))) < 1e-10


@pytest.mark.parametrize(
    "triple",
    [
        (rational(2, 3), rational(-1, 3), rational(-1, 3)),
        (1, 0, -1),
        (0, 0, 0),
    ],
)
def test_calibrate_tau_sign_definite_and_stable(triple):
    basis = enumerate_patterns(HighestWeight.of(*triple))
    s1 = calibrate_tau_sign(basis)
    s2 = calibrate_tau_sign(basis)
    assert s1 == s2 and s1 in (1, -1)


def test_trivial_rep_sign_is_plus_one():
    basis = enumerate_patterns(HighestWeight.of(0, 0, 0))
    assert calibrate_tau_sign(basis) == 1
    assert tau_oracle(basis).get(0, 0) == pytest.approx(1.0)


def test_calibrate_tau_sign_rejects_the_opposite_sign(monkeypatch):
    import gtrotor.rotations as R

    basis = enumerate_patterns(HighestWeight.of(2, 0, -2))
    monkeypatch.setattr(R, "tau_sign", lambda b: -((-1) ** b.weight.height))
    with pytest.raises(SignCalibrationFailed):
        calibrate_tau_sign(basis)
