import pytest

from gtrotor.gt_basis import (
    GTPattern,
    HighestWeight,
    InvalidWeight,
    enumerate_patterns,
    lattice_coords,
    norm_squared,
    shift,
    weights_up_to_height,
    weyl_dimension,
)
from gtrotor.numerics import as_int, factorial, rational


def brute_force_patterns(weight):
    """Independent enumeration: scan the integer offset box and keep the
    triples satisfying every interlacing difference."""
    out = []
    height = as_int(weight.l31 - weight.l33)
    for i in range(height + 1):
        l21 = weight.l33 + i
        for j in range(height + 1):
            l22 = weight.l33 + j
            for k in range(height + 1):
                l11 = weight.l33 + k
                diffs = (
                    weight.l31 - l21,
                    l21 - weight.l32,
                    weight.l32 - l22,
                    l22 - weight.l33,
                    l21 - l11,
                    l11 - l22,
                )
                if all(d >= 0 for d in diffs):
                    out.append((l21, l22, l11))
    return sorted(out)


def norm_squared_oracle(p):
    """The defining factorial product, written out independently."""
    w = p.weight
    return (
        factorial(p.l21 - p.l11)
        * factorial(w.l31 - p.l21)
        * factorial(w.l31 - p.l22 + 1)
        * factorial(w.l31 - w.l32)
        * factorial(w.l32 - w.l33)
        * factorial(p.l22 - w.l33)
        * factorial(w.l31 - w.l33 + 1)
        * factorial(p.l21 - w.l32)
        * factorial(p.l21 - w.l33 + 1)
        / ((p.l21 - p.l22 + 1) * factorial(p.l11 - p.l22) * factorial(w.l32 - p.l22))
    )


@pytest.mark.parametrize(
    "triple, dim",
    [
        ((1, 0, -1), 8),
        ((rational(2, 3), rational(-1, 3), rational(-1, 3)), 3),
        ((0, 0, 0), 1),
    ],
)
def test_enumeration_sizes(triple, dim):
    w = HighestWeight.of(*triple)
    basis = enumerate_patterns(w)
    assert basis.dim == dim
    brute = brute_force_patterns(w)
    assert len(brute) == dim
    assert [(p.l21, p.l22, p.l11) for p in basis] == brute


def test_dimension_matches_weyl_formula_up_to_height_8():
    for w in weights_up_to_height(8):
        assert enumerate_patterns(w).dim == weyl_dimension(w)


def test_invalid_weights_rejected():
    with pytest.raises(InvalidWeight):
        HighestWeight.of(2, 1, -2)  # sum is 1
    with pytest.raises(InvalidWeight):
        HighestWeight.of(0, 1, -1)  # l31 - l32 negative
    with pytest.raises(InvalidWeight):
        HighestWeight.of(rational(1, 2), 0, -rational(1, 2))  # non-integer gap


def test_shift_examples_adjoint():
    w = HighestWeight.of(1, 0, -1)
    p = GTPattern(w, rational(1), rational(0), rational(1))  # (l21,l22,l11)=(1,0,1)
    assert shift(p, (1, 0, 0)) is None  # l11 would exceed l21
    down = shift(p, (-1, 0, 0))
    assert (down.l21, down.l22, down.l11) == (1, 0, 0)
    q = GTPattern(w, rational(1), rational(-1), rational(0))
    up = shift(q, (0, 0, 1))
    assert (up.l21, up.l22, up.l11) == (1, 0, 0)


def test_shift_roundtrip_property():
    for w in weights_up_to_height(4):
        basis = enumerate_patterns(w)
        for p in basis:
            for move in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)):
                q = shift(p, move)
                if q is not None:
                    back = shift(q, tuple(-d for d in move))
                    assert back == p


def test_norm_squared_adjoint_value():
    w = HighestWeight.of(1, 0, -1)
    p = GTPattern(w, rational(1), rational(0), rational(1))
    assert norm_squared(p) == norm_squared_oracle(p) == 36


def test_norm_squared_trivial_rep():
    w = HighestWeight.of(0, 0, 0)
    (p,) = enumerate_patterns(w).patterns
    assert norm_squared(p) == norm_squared_oracle(p) == 1


def test_norm_squared_positive_everywhere():
    for w in weights_up_to_height(5):
        for p in enumerate_patterns(w):
            val = norm_squared(p)
            assert val == norm_squared_oracle(p)
            assert val > 0


def test_norms_sq_equal_the_fraction_formula_to_height_6():
    """The integer lattice norms equal the defining Fraction product on
    every weight of height <= 6, fractional weights included."""
    for w in weights_up_to_height(6):
        basis = enumerate_patterns(w)
        assert basis.norms_sq() == tuple(norm_squared_oracle(p) for p in basis)


def test_lattice_coords_match_the_patterns():
    for w in weights_up_to_height(4):
        basis = enumerate_patterns(w)
        for p, c in zip(basis, basis.lattice):
            assert c == lattice_coords(p)
            x21, x22, x11, a, b = c
            l33 = w.l33
            assert (p.l21, p.l22, p.l11) == (l33 + x21, l33 + x22, l33 + x11)
            assert (w.l31, w.l32) == (l33 + a, l33 + b)
            assert 3 * l33 == -(a + b)


def test_enumeration_deterministic():
    w = HighestWeight.of(2, 0, -2)
    a = [str(p) for p in enumerate_patterns(w)]
    b = [str(p) for p in enumerate_patterns(w)]
    assert a == b


def test_pattern_serialization():
    w = HighestWeight.of(1, 0, -1)
    p = GTPattern(w, rational(1), rational(0), rational(1))
    assert str(p) == "[1 0 -1 / 1 0 / 1]"
    wf = HighestWeight.of(rational(2, 3), rational(-1, 3), rational(-1, 3))
    q = enumerate_patterns(wf)[0]
    assert str(q) == "[2/3 -1/3 -1/3 / -1/3 -1/3 / -1/3]"
