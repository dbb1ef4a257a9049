import numpy as np
import pytest

from gtrotor.gt_basis import HighestWeight, InvalidWeight, enumerate_patterns
from gtrotor.numerics import rational
from gtrotor.racah_algebra import (
    CENTRAL,
    IDENTITIES,
    cartan_data,
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
from gtrotor.linalg import exact_combination
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
            assert exact_combination([(1, (m, g)), (-1, (g, m))]).is_zero()


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


# -- non-vacuity: one changed coefficient on the closed-form side fails --------

IDENTITY_REPORTS = (
    racah_relations_residual,
    gamma_residual,
    centralizer_identity_residuals,
)


def _check(name, basis):
    (check,) = [
        c for report in IDENTITY_REPORTS for c in report(basis).checks if c.name == name
    ]
    return check


def _mutant(name):
    """(table, key, value): the identity `name` with one coefficient of its
    closed-form side changed."""
    if name == "racah_relation_JK":  # a: 3 y^2 -> 2 y^2
        a = CENTRAL["a"]
        return CENTRAL, "a", lambda d: a(d) - d.y * d.y
    if name == "racah_relation_KJbar":  # b-: (3y + h)(... - C3/3 ...) -> C3/4
        bm = CENTRAL["b-"]
        return CENTRAL, "b-", lambda d: bm(d) + (3 * d.y + d.h) * d.c3 / 12
    terms, closed = IDENTITIES[name]
    if name == "centralizer[K_difference]":  # K = e31 e12 e23 - 2 e32 e21 e13
        terms = [(2 * c if w == "e32 e21 e13" else c, w) for c, w in terms]
        return IDENTITIES, name, (terms, closed)
    delta = {
        # -(h^2 - y^2)^3 / 8 -> / 7
        "gamma_closed_form": lambda d: -((d.h * d.h - d.y * d.y) ** 3) / 56,
        # -h1 (h1 + 1) -> -h1 (h1 + 2)
        "centralizer[e21e12]": lambda d: -d.h1,
        # -h12 (h12 + 1) -> -h12 (h12 + 2)
        "centralizer[e31e13]": lambda d: -(d.h1 + d.h2),
        # C2/2 -> C2/3
        "centralizer[e32e23]": lambda d: -d.c2 / 6,
        # 2/27 (h2 + 2 h1)(11 h1^2 + 11 h1 h2 - 4 h2^2) -> 1/27
        "centralizer[symmetric_cubic]": lambda d: -(d.h2 + 2 * d.h1)
        * (11 * d.h1 * d.h1 + 11 * d.h1 * d.h2 - 4 * d.h2 * d.h2)
        / 27,
    }[name]
    return IDENTITIES, name, (terms, lambda d: closed(d) + delta(d))


@pytest.mark.parametrize(
    "triple", [(2, 0, -2), (rational(4, 3), rational(1, 3), rational(-5, 3))]
)
@pytest.mark.parametrize("name", list(IDENTITIES))
def test_changed_coefficient_fails_its_identity(name, triple, monkeypatch):
    assert _check(name, basis_of(*triple)).passed
    monkeypatch.setitem(*_mutant(name))
    check = _check(name, basis_of(*triple))
    assert not check.passed and check.residual > 0


def test_every_identity_has_a_report():
    basis = basis_of(1, 0, -1)
    names = {c.name for report in IDENTITY_REPORTS for c in report(basis).checks}
    assert names == set(IDENTITIES) and len(IDENTITIES) == 8


def test_cartan_data_rejects_off_diagonal(monkeypatch):
    import gtrotor.racah_algebra as ra

    def element(name, basis):
        return element_matrix("e12" if name == "h" else name, basis)

    monkeypatch.setattr(ra, "element_matrix", element)
    with pytest.raises(ValueError, match="not diagonal"):
        cartan_data(basis_of(1, 0, -1))


# -- beyond the acceptance height --------------------------------------------


@pytest.mark.parametrize("text", ["14/3,-7/3,-7/3", "10/3,1/3,-11/3"])
def test_racah_algebra_suite_at_height_7(text):
    from gtrotor.verify import _racah_weight

    weight = HighestWeight.parse(text)
    assert weight.height == 7
    report = _racah_weight(weight)
    assert len(report.checks) > 8
    assert report.passed, [c.line() for c in report.failures]
