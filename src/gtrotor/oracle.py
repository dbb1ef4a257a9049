"""Independent floating-point ground truth for the closed-form matrices.

Represented so(3) generators are exponentiated in the orthonormal basis,
where they are antisymmetric and their exponentials orthogonal; results are
conjugated back to the unnormalized basis for comparison.  The convention
tying a defining rotation exp(t A) to the represented operator exp(-t M(a))
reproduces the closed forms at first order in the angle and is frozen here.
"""

from __future__ import annotations

import math

import numpy as np

from .gt_basis import IrrepBasis
from .linalg import PatternMatrix
from .rep import generator_matrix
from .rotations import EulerAngles, tau, tau_sign
from .numerics import Radians


class NotARotation(ValueError):
    """3x3 array fails orthogonality or has determinant -1."""


class SignCalibrationFailed(RuntimeError):
    """The closed-form tau does not match the oracle."""


def require_rotation(r, tol: float = 1e-12) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if arr.shape != (3, 3):
        raise NotARotation(f"expected 3x3, got shape {arr.shape}")
    if float(np.max(np.abs(arr.T @ arr - np.eye(3)))) > tol:
        raise NotARotation("matrix is not orthogonal")
    if abs(float(np.linalg.det(arr)) - 1.0) > tol:
        raise NotARotation("determinant is not +1")
    return arr


def _expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with Taylor summation (backward error ~1e-16
    at the scaled norm; dimensions here stay below a few hundred)."""
    norm = float(np.linalg.norm(a, 1))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    b = a / (2.0**squarings)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 64):
        term = term @ b / k
        out = out + term
        if float(np.linalg.norm(term, 1)) < 1e-18 * float(np.linalg.norm(out, 1)):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def exp_matrix(m: PatternMatrix, scale: float = 1.0) -> PatternMatrix:
    """exp(scale * m) for a float-mode matrix."""
    return PatternMatrix.from_numpy(m.basis, _expm(scale * m.to_numpy()))


def _lz(basis: IrrepBasis) -> np.ndarray:
    return (generator_matrix("e12", basis) - generator_matrix("e21", basis)).zeta_numpy()


def _lt(basis: IrrepBasis) -> np.ndarray:
    return (generator_matrix("e23", basis) - generator_matrix("e32", basis)).zeta_numpy()


def _tau_zeta(basis: IrrepBasis) -> np.ndarray:
    def build():
        return _expm(-(math.pi / 2.0) * _lt(basis))

    return basis.memo(("tau_zeta",), build)


def rho_z_oracle(phi: float, basis: IrrepBasis) -> PatternMatrix:
    """Operator representing the inverse z-rotation, by exponential."""
    return PatternMatrix.from_zeta_numpy(basis, _expm(-phi * _lz(basis)))


def tau_oracle(basis: IrrepBasis) -> PatternMatrix:
    """Operator representing T^-1, by exponential."""
    return PatternMatrix.from_zeta_numpy(basis, _tau_zeta(basis))


def euler_decompose(r) -> EulerAngles:
    """Angles (chi, theta, phi) with theta in [0, pi] reproducing r; at
    gimbal lock the convention phi = 0 resolves the degeneracy."""
    arr = require_rotation(r)
    ct = min(1.0, max(-1.0, float(arr[2, 2])))
    theta = math.acos(ct)
    st = math.sin(theta)
    if st > 1e-9:
        chi = math.atan2(float(arr[1, 2]), -float(arr[0, 2]))
        phi = math.atan2(float(arr[2, 1]), float(arr[2, 0]))
    elif ct > 0:
        chi, phi = math.atan2(float(arr[0, 1]), float(arr[0, 0])), 0.0
    else:
        chi, phi = math.atan2(float(arr[0, 1]), -float(arr[0, 0])), 0.0
    return EulerAngles(Radians(chi), Radians(theta), Radians(phi))


def rho_oracle(r, basis: IrrepBasis) -> PatternMatrix:
    """Float matrix of the operator representing r^-1, via the Euler
    factorization of the exponentials (no matrix logarithm involved)."""
    angles = euler_decompose(r)
    lz = _lz(basis)
    t = _tau_zeta(basis)
    out = _expm(-angles.phi.value * lz)
    out = out @ t.T @ _expm(-angles.theta.value * lz) @ t
    out = out @ _expm(-angles.chi.value * lz)
    return PatternMatrix.from_zeta_numpy(basis, out)


T_MATRIX = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


TAU_SIGN_TOL = 1e-9


def tau_sign_residual(basis: IrrepBasis) -> float:
    """Largest entry of |tau - exp(-pi/2 Lt)| at the orthonormal scale, where
    both matrices are orthogonal and entries are O(1); a wrong sign of the
    closed form shows up as a residual near 2."""
    return float(np.max(np.abs(tau(basis).zeta_numpy() - _tau_zeta(basis))))


def calibrate_tau_sign(basis: IrrepBasis) -> int:
    """Check the closed-form sign of tau against the exponential oracle and
    return it; SignCalibrationFailed when they disagree beyond TAU_SIGN_TOL."""
    residual = tau_sign_residual(basis)
    if residual > TAU_SIGN_TOL:
        raise SignCalibrationFailed(
            f"closed-form tau differs from the oracle by {residual:.3g} "
            f"for {basis.weight}"
        )
    return tau_sign(basis)
