import random

import pytest

from gtrotor.numerics import (
    ExactOnCircle,
    InvalidFactorialArgument,
    NotOnUnitCircle,
    Radians,
    as_int,
    exact_angle,
    factorial,
    format_rational,
    neg_one_pow,
    parse_angle,
    parse_rational,
    pochhammer,
    rational,
    sin_cos,
)


def test_factorial_base_cases():
    assert factorial(0) == 1
    assert factorial(5) == 120


def test_factorial_negative_rejected():
    with pytest.raises(InvalidFactorialArgument):
        factorial(-1)


def test_factorial_recurrence():
    for n in range(41):
        assert factorial(n + 1) == (n + 1) * factorial(n)


def test_pochhammer_empty_product():
    assert pochhammer(rational(3), 0) == 1


def test_pochhammer_half():
    # direct product (1/2)(3/2)(5/2)
    expected = rational(1, 2) * rational(3, 2) * rational(5, 2)
    assert pochhammer(rational(1, 2), 3) == expected == rational(15, 8)


def test_pochhammer_hits_zero():
    assert pochhammer(rational(-2), 3) == 0


def test_pochhammer_recurrence():
    rng = random.Random(11)
    for _ in range(50):
        a = rational(rng.randint(-9, 9), rng.randint(1, 7))
        k = rng.randint(0, 6)
        assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


def test_rational_field_axioms_sampled():
    rng = random.Random(5)
    vals = [rational(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(12)]
    for a in vals[:4]:
        for b in vals[4:8]:
            for c in vals[8:]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a + b == b + a and a * b == b * a


def test_lowest_terms_and_formatting():
    assert format_rational(rational(6, 4)) == "3/2"
    assert format_rational(rational(-6, 3)) == "-2"
    assert format_rational(-7) == "-7"
    assert format_rational(rational(-10**40, 3)) == f"-{10**40}/3"
    assert rational(2, 4) == rational(1, 2)
    assert parse_rational("-7/3") == rational(-7, 3)


def test_exact_angle_accepts_pythagorean():
    a = exact_angle(rational(3, 5), rational(4, 5))
    assert a == ExactOnCircle(rational(3, 5), rational(4, 5))
    assert exact_angle(0, 1) == ExactOnCircle(rational(0), rational(1))


def test_exact_angle_rejects_off_circle():
    with pytest.raises(NotOnUnitCircle):
        exact_angle(rational(1, 2), rational(1, 2))


def test_trig_monomials_exact():
    # tan^k cos^m stays rational whenever cos != 0
    s, c = rational(3, 5), rational(4, 5)
    for k in range(-2, 5):
        for m in range(-3, 4):
            value = (s / c) ** k * c**m
            assert value.denominator >= 1


def test_angle_parsing_roundtrip():
    a = parse_angle("3/5:4/5")
    assert a.exact and str(a) == "3/5:4/5"
    b = parse_angle("rad=0.25")
    assert not b.exact and isinstance(b, Radians)
    s, c, exact = sin_cos(b)
    assert not exact and abs(s**2 + c**2 - 1.0) < 1e-15


def test_as_int_and_sign():
    assert as_int(rational(12, 3)) == 4
    with pytest.raises(ValueError):
        as_int(rational(1, 3))
    assert neg_one_pow(rational(7)) == -1
    assert neg_one_pow(rational(-4)) == 1
