import numpy as np
import pytest

from gtrotor import linalg
from gtrotor.gt_basis import HighestWeight, enumerate_patterns, shift, weights_up_to_height
from gtrotor.linalg import PatternMatrix, exact_combination
from gtrotor.numerics import exact_angle, rational
from gtrotor.rep import (
    GENERATOR_NAMES,
    casimir2_value,
    casimir3_value,
    element_matrix,
    generator_matrix,
    h_eigenvalue,
    j_eigenvalue,
    verify_structure,
    y_eigenvalue,
)


@pytest.fixture(scope="module")
def adjoint():
    return enumerate_patterns(HighestWeight.of(1, 0, -1))


def reference_column_action(p):
    """Action of all nine generators on the basis vector of pattern p, on
    Fractions: name -> [(shift or None for the diagonal, coefficient)]."""
    w = p.weight
    l21, l22, l11 = p.l21, p.l22, p.l11
    den = l21 - l22 + 1
    return {
        "e11": [(None, l11)],
        "e22": [(None, l21 + l22 - l11)],
        "e33": [(None, -(l21 + l22))],
        "e12": [((1, 0, 0), (l21 - l11) * (l11 - l22 + 1))],
        "e21": [((-1, 0, 0), rational(1))],
        "e23": [
            ((0, 1, 0), (w.l31 - l21) / den),
            ((0, 0, 1), (w.l31 - l22 + 1) / den),
        ],
        "e32": [
            ((0, -1, 0), (l21 - w.l32) * (l21 - w.l33 + 1) * (l21 - l11) / den),
            ((0, 0, -1), (l11 - l22 + 1) * (w.l32 - l22 + 1) * (l22 - w.l33) / den),
        ],
        "e13": [
            ((1, 1, 0), (l11 - l22 + 1) * (w.l31 - l21) / den),
            ((1, 0, 1), -(l21 - l11) * (w.l31 - l22 + 1) / den),
        ],
        "e31": [
            ((-1, -1, 0), (l21 - w.l32) * (l21 - w.l33 + 1) / den),
            ((-1, 0, -1), -(w.l32 - l22 + 1) * (l22 - w.l33) / den),
        ],
    }


def reference_generator_entries(name, basis):
    entries = {}
    for col, p in enumerate(basis):
        for move, coeff in reference_column_action(p)[name]:
            if coeff == 0:
                continue
            q = p if move is None else shift(p, move)
            if q is not None:
                key = (basis.index_of(q), col)
                entries[key] = entries.get(key, rational(0)) + coeff
    return {k: v for k, v in entries.items() if v != 0}


@pytest.mark.parametrize("text", [str(w) for w in weights_up_to_height(6)])
def test_generators_equal_the_fraction_column_action(text):
    basis = enumerate_patterns(HighestWeight.parse(text))
    for name in GENERATOR_NAMES:
        assert generator_matrix(name, basis).entries == reference_generator_entries(
            name, basis
        )


def test_e21_columns_are_single_shifts(adjoint):
    m = generator_matrix("e21", adjoint)
    for col, p in enumerate(adjoint):
        q = shift(p, (-1, 0, 0))
        expected = {} if q is None else {(adjoint.index_of(q), col): rational(1)}
        col_entries = {k: v for k, v in m.entries.items() if k[1] == col}
        assert col_entries == expected


def test_e11_is_diagonal_with_l11(adjoint):
    m = generator_matrix("e11", adjoint)
    for (i, j), v in m.entries.items():
        assert i == j and v == adjoint[i].l11


def test_gl2_commutator(adjoint):
    g = lambda n: generator_matrix(n, adjoint)
    lhs = exact_combination([(1, (g("e12"), g("e21"))), (-1, (g("e21"), g("e12")))])
    rhs = exact_combination([(1, (g("e11"),)), (-1, (g("e22"),))])
    assert lhs == rhs


def test_casimirs_are_scalars(adjoint):
    # scalar values evaluated from the eigenvalue formulas
    assert casimir2_value(adjoint.weight) == 6
    assert casimir3_value(adjoint.weight) == 9
    # the matrices are built from the generator products, independently
    for name, value in (("C2", 6), ("C3", 9)):
        scalar = PatternMatrix.diagonal(adjoint, [rational(value)] * adjoint.dim)
        assert element_matrix(name, adjoint) == scalar


def test_j_eigenvalue_example(adjoint):
    m = element_matrix("J", adjoint)
    for i, p in enumerate(adjoint):
        if (p.l11, p.l21, p.l22) == (1, 1, 0):
            assert m.get(i, i) == rational(3, 4)
            break
    else:
        pytest.fail("pattern (1,1,0) not found")


def test_diagonal_eigenvalues(adjoint):
    for name, eig in (("J", j_eigenvalue), ("Y", y_eigenvalue), ("H", h_eigenvalue)):
        m = element_matrix(name, adjoint)
        assert m == PatternMatrix.diagonal(adjoint, [eig(p) for p in adjoint])


def test_adjoint_transposition_exact(adjoint):
    """e_ij and e_ji are each other's adjoint, exactly, on an integral and a
    fractional weight; the adjoint is the transpose at the orthonormal
    scale, and a diagonal element is its own adjoint."""
    fractional = enumerate_patterns(
        HighestWeight.of(rational(4, 3), rational(1, 3), rational(-5, 3))
    )
    for basis in (adjoint, fractional):
        for a, b in (("e12", "e21"), ("e13", "e31"), ("e23", "e32")):
            ga, gb = generator_matrix(a, basis), generator_matrix(b, basis)
            assert linalg.adjoint(gb) == ga
            assert linalg.adjoint(ga) == gb
            assert np.allclose(ga.zeta_numpy(), gb.zeta_numpy().T, atol=1e-12)
        j = element_matrix("J", basis)
        assert linalg.adjoint(j) == j


def test_adjoint_of_rho_is_its_inverse(adjoint):
    from gtrotor.rotations import rho_z

    rho = rho_z(exact_angle(rational(3, 5), rational(4, 5)), adjoint)
    inv = linalg.adjoint(rho)
    assert inv.exact
    assert (inv @ rho).is_identity() and (rho @ inv).is_identity()
    assert linalg.orthogonality_defect(rho).is_zero()
    assert not linalg.orthogonality_defect(exact_combination([(2, (rho,))])).is_zero()
    # the float counterpart is the transpose in the orthonormal basis, in numpy
    approx = PatternMatrix.from_zeta_numpy(adjoint, rho.zeta_numpy().T)
    assert not approx.exact
    assert approx.max_abs_diff(inv) < 1e-12


@pytest.mark.parametrize("triple", [(1, 0, -1), (2, 0, -2), (0, 0, 0)])
def test_verify_structure_exact(triple):
    basis = enumerate_patterns(HighestWeight.of(*triple))
    report = verify_structure(basis)
    assert report.passed, [c.line() for c in report.failures]


def test_joint_spectrum_separates_patterns():
    for w in weights_up_to_height(5):
        basis = enumerate_patterns(w)
        spectra = {(j_eigenvalue(p), y_eigenvalue(p), h_eigenvalue(p)) for p in basis}
        assert len(spectra) == basis.dim


def test_cartan_traceless(adjoint):
    total = exact_combination(
        (1, (generator_matrix(f"e{i}{i}", adjoint),)) for i in range(1, 4)
    )
    assert total.is_zero()
