import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gtrotor import numerics
from gtrotor.gt_basis import HighestWeight, enumerate_patterns
from gtrotor.linalg import PatternMatrix, exact_product, norm_vector
from gtrotor.numerics import Exact, rational


def basis_of(*triple):
    return enumerate_patterns(HighestWeight.of(*triple))


@pytest.fixture(scope="module")
def adjoint():
    return basis_of(1, 0, -1)


@pytest.fixture(scope="module")
def dim27():
    return basis_of(2, 0, -2)


def frac(v) -> Fraction:
    """Any exact scalar (int, Fraction, gmpy2 mpq) as a Fraction."""
    return Fraction(int(v.numerator), int(v.denominator))


def reference_product(*factors):
    """Left fold of plain Fraction matmuls, reduced after every step."""
    acc = {key: frac(v) for key, v in factors[0].entries.items()}
    for f in factors[1:]:
        rows = {}
        for (j, k), v in f.entries.items():
            rows.setdefault(j, []).append((k, frac(v)))
        nxt = {}
        for (i, j), a in acc.items():
            for k, b in rows.get(j, ()):
                nxt[(i, k)] = nxt.get((i, k), 0) + a * b
        acc = {key: v for key, v in nxt.items() if v != 0}
    return acc


def random_matrix(rng, basis, density, denominators=(1, 2, 3, 4, 7, 12)):
    dim = basis.dim
    entries = {}
    for i in range(dim):
        for j in range(dim):
            if rng.random() < density:
                num = rng.randint(-20, 20)
                if num:
                    entries[(i, j)] = rational(num, rng.choice(denominators))
    return PatternMatrix(basis, entries)


def assert_matches_reference(product, factors):
    assert product.exact
    assert all(isinstance(v, Exact) and v != 0 for v in product.entries.values())
    assert {k: frac(v) for k, v in product.entries.items()} == reference_product(
        *factors
    )


@pytest.mark.parametrize("seed", range(6))
def test_exact_product_matches_reference_fold(adjoint, dim27, seed):
    rng = random.Random(seed)
    for basis in (adjoint, dim27):
        for count in (2, 3, 5):
            factors = [
                random_matrix(rng, basis, rng.choice((0.05, 0.2, 0.6)))
                for _ in range(count)
            ]
            assert_matches_reference(exact_product(*factors), factors)


def test_exact_product_drops_cancelled_entries(adjoint):
    """Terms that cancel to an exact zero leave no stored entry."""
    a = PatternMatrix(adjoint, {(0, 0): rational(1, 3), (0, 1): rational(1, 6)})
    b = PatternMatrix(
        adjoint,
        {(0, 2): rational(1, 2), (1, 2): rational(-1), (1, 3): rational(5, 7)},
    )
    product = exact_product(a, b)
    assert (0, 2) not in product.entries
    assert product.entries == {(0, 3): rational(5, 42)}
    assert_matches_reference(product, [a, b])


def test_exact_product_zero_and_identity(adjoint):
    rng = random.Random(7)
    m = random_matrix(rng, adjoint, 0.4)
    zero = PatternMatrix.zeros(adjoint)
    one = PatternMatrix.identity(adjoint)
    assert exact_product(zero, m).is_zero()
    assert exact_product(m, zero, m).is_zero()
    assert exact_product(one, m) == m
    assert exact_product(m, one, one) == m
    assert exact_product(one, one).is_identity()


def test_exact_product_integer_entries(adjoint):
    """Plain int entries read as rationals and come back as rationals."""
    rng = random.Random(3)
    ints = [
        PatternMatrix(
            adjoint,
            {(i, j): rng.randint(-5, 5) for i in range(8) for j in range(8)
             if rng.random() < 0.3},
        )
        for _ in range(3)
    ]
    mixed = [ints[0], random_matrix(rng, adjoint, 0.3), ints[1]]
    for factors in (ints, mixed):
        assert_matches_reference(exact_product(*factors), factors)


def test_exact_product_single_factor(adjoint):
    rng = random.Random(5)
    m = random_matrix(rng, adjoint, 0.4)
    assert exact_product(m) == m
    as_ints = PatternMatrix(adjoint, {(0, 1): 3, (2, 2): -1})
    single = exact_product(as_ints)
    assert single.entries == {(0, 1): rational(3), (2, 2): rational(-1)}
    assert all(isinstance(v, Exact) for v in single.entries.values())


def test_matmul_is_the_kernel(adjoint):
    rng = random.Random(11)
    a, b = random_matrix(rng, adjoint, 0.3), random_matrix(rng, adjoint, 0.3)
    assert a @ b == exact_product(a, b)


def test_exact_product_rejects_bad_input(adjoint, dim27):
    m = PatternMatrix.identity(adjoint)
    with pytest.raises(ValueError):
        exact_product()
    with pytest.raises(ValueError):
        exact_product(m, PatternMatrix.identity(dim27))
    with pytest.raises(TypeError):
        exact_product(m, m.to_float())


def _mpq_backend():
    return pytest.importorskip("gmpy2").mpq


@pytest.mark.parametrize("backend", [lambda: Fraction, _mpq_backend], ids=["Fraction", "mpq"])
def test_norm_vector_past_float_range(monkeypatch, backend):
    """At 40,-20,-20 squared norms reach 1645 bits, past the float range;
    the norms themselves do not, and come out finite under either
    backend's rational."""
    monkeypatch.setattr(numerics, "_mpq", backend())
    basis = enumerate_patterns(HighestWeight.parse("40,-20,-20"))
    nsq = basis.norms_sq()
    assert max(int(v.numerator).bit_length() for v in nsq) > 1024
    d = norm_vector(basis)
    assert d.shape == (basis.dim,) and np.isfinite(d).all()
    for v, n in zip(nsq, d):
        log_sq = math.log(int(v.numerator)) - math.log(int(v.denominator))
        assert math.isclose(2 * math.log(n), log_sq, rel_tol=1e-13)


def test_norm_vector_in_float_range_is_the_plain_square_root(dim27):
    d = norm_vector(dim27)
    assert d.tolist() == [math.sqrt(float(v)) for v in dim27.norms_sq()]


def test_numpy_round_trip_keeps_entries_and_order(dim27):
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((dim27.dim, dim27.dim))
    arr[rng.random(arr.shape) < 0.6] = 0.0
    arr[0, 1] = -0.0
    m = PatternMatrix.from_numpy(dim27, arr)
    expected = {
        (i, j): float(arr[i, j])
        for i in range(dim27.dim)
        for j in range(dim27.dim)
        if arr[i, j] != 0.0
    }
    assert list(m.entries.items()) == list(expected.items())
    assert not m.exact
    assert np.array_equal(m.to_numpy(), arr)
    exact = PatternMatrix(dim27, {(2, 5): rational(1, 3), (7, 0): rational(-4)})
    out = exact.to_numpy()
    assert out[2, 5] == 1 / 3 and out[7, 0] == -4.0 and np.count_nonzero(out) == 2
    assert not PatternMatrix.zeros(dim27).to_numpy().any()
