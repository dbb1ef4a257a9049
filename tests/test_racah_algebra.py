import numpy as np
import pytest

from gtrotor.gt_basis import HighestWeight, InvalidWeight, enumerate_patterns
from gtrotor.numerics import rational
from gtrotor.racah_algebra import (
    central_data,
    centralizer_identity_residuals,
    commutes_with_cartan_report,
    gamma_residual,
    hilbert_series_coeffs,
    jbar_conjugation_residual,
    jbar_matrix,
    jbar_tridiagonal_report,
    k_matrix,
    pbw_basis_spanning_check,
    racah_relations_residual,
)
from gtrotor.rep import element_matrix


def basis_of(*triple):
    return enumerate_patterns(HighestWeight.of(*triple))


@pytest.fixture(scope="module")
def adjoint():
    return basis_of(1, 0, -1)


def test_jbar_conjugation_check_runs(adjoint):
    assert jbar_conjugation_residual(adjoint).is_zero()
    fractional = basis_of(rational(4, 3), rational(1, 3), rational(-5, 3))
    assert jbar_conjugation_residual(fractional).is_zero()


def test_jbar_spectrum_is_permutation_of_j():
    basis = basis_of(rational(2, 3), rational(-1, 3), rational(-1, 3))
    j = element_matrix("J", basis).to_numpy()
    jb = jbar_matrix(basis).to_numpy()
    ev_j = sorted(np.linalg.eigvals(j).real)
    ev_jb = sorted(np.linalg.eigvals(jb).real)
    assert np.allclose(ev_j, ev_jb, atol=1e-10)


def test_jbar_trivial_rep():
    basis = basis_of(0, 0, 0)
    assert jbar_matrix(basis).is_zero()
    assert k_matrix(basis).is_zero()


@pytest.mark.parametrize("triple", [(1, 0, -1), (2, 0, -2)])
def test_k_matrix_cubic_identity(triple):
    report = centralizer_identity_residuals(basis_of(*triple))
    (check,) = [c for c in report.checks if c.name == "centralizer[K_difference]"]
    assert check.passed and check.residual == 0.0


@pytest.mark.parametrize(
    "triple",
    [
        (1, 0, -1),
        (rational(4, 3), rational(-2, 3), rational(-2, 3)),
        (0, 0, 0),
    ],
)
def test_racah_relations_exact(triple):
    report = racah_relations_residual(basis_of(*triple))
    assert report.passed, [c.line() for c in report.failures]


@pytest.mark.parametrize(
    "triple",
    [
        (1, 0, -1),
        (rational(5, 3), rational(-1, 3), rational(-4, 3)),
    ],
)
def test_gamma_closed_form_exact(triple):
    report = gamma_residual(basis_of(*triple))
    assert report.passed, [c.line() for c in report.failures]


def test_weight_gate_rejects_bad_triple():
    with pytest.raises(InvalidWeight):
        HighestWeight.of(2, 1, -2)  # sum nonzero


@pytest.mark.parametrize("triple", [(1, 0, -1), (2, 0, -2), (0, 0, 0)])
def test_centralizer_identities_exact(triple):
    report = centralizer_identity_residuals(basis_of(*triple))
    assert len(report.checks) == 5
    assert report.passed, [c.line() for c in report.failures]


def test_generators_commute_with_cartan(adjoint):
    assert commutes_with_cartan_report(adjoint).passed


def test_central_data_commute_with_generators(adjoint):
    j = element_matrix("J", adjoint)
    jb = jbar_matrix(adjoint)
    k = k_matrix(adjoint)
    for m in central_data(adjoint):
        for g in (j, jb, k):
            assert m.commutator(g).is_zero()


def test_jbar_tridiagonal_matches_recurrence_coefficients(adjoint):
    report = jbar_tridiagonal_report(adjoint)
    assert report.passed, [c.line() for c in report.failures]


def test_hilbert_series_first_coefficients():
    assert hilbert_series_coeffs(3, "ClosedForm") == [1, 2, 6, 12]
    assert hilbert_series_coeffs(3, "Combinatorial") == [1, 2, 6, 12]
    assert hilbert_series_coeffs(0, "ClosedForm") == [1]


def test_hilbert_series_methods_agree_deep():
    closed = hilbert_series_coeffs(20, "ClosedForm")
    combi = hilbert_series_coeffs(20, "Combinatorial")
    assert closed == combi


def test_hilbert_series_monotone_growth():
    coeffs = hilbert_series_coeffs(12, "ClosedForm")
    assert all(b > a for a, b in zip(coeffs, coeffs[1:]))


def test_pbw_count_matches_series():
    report = pbw_basis_spanning_check(8)
    assert report.passed, [c.line() for c in report.failures]


def test_pbw_guard():
    with pytest.raises(ValueError):
        pbw_basis_spanning_check(9)
