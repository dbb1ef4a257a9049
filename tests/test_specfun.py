import random

import pytest

from gtrotor.gt_basis import HighestWeight, enumerate_patterns, weights_up_to_height
from gtrotor.numerics import rational
from gtrotor.specfun import (
    DenominatorPoleBeforeTermination,
    KrawtchoukParams,
    NonTerminating,
    RacahParams,
    check_krawtchouk_orthogonality,
    check_racah_contiguity,
    hyp_terminating,
    krawtchouk,
    krawtchouk_recurrence_residual,
    krawtchouk_symmetry_residual,
    krawtchouk_trig,
    racah_pattern_params,
    racah_pattern_recurrence_residuals,
    racah_tilde,
    racah_tilde_raw,
)

P_GRID = (rational(1, 4), rational(1, 2), rational(9, 25))


def test_hyp_zero_numerator_parameter():
    assert hyp_terminating([rational(0), rational(5)], [rational(3)], rational(2), 10) == 1


def test_hyp_two_term_sum():
    # 2F1(-1,-1;-2;2) = 1 + (-1)(-1)/(-2) * 2 = 0
    value = hyp_terminating(
        [rational(-1), rational(-1)], [rational(-2)], rational(2), 10
    )
    assert value == 0


def test_hyp_4f3_two_terms():
    value = hyp_terminating(
        [rational(-1), rational(-6), rational(-1), rational(-2)],
        [rational(-3), rational(-3), rational(-3)],
        rational(1),
        10,
    )
    assert value == 1 + rational(12, -27) == rational(5, 9)


def test_hyp_nonterminating_raises():
    with pytest.raises(NonTerminating):
        hyp_terminating([rational(1, 2)], [rational(3)], rational(1, 2), 12)


def test_hyp_denominator_pole_raises():
    with pytest.raises(DenominatorPoleBeforeTermination):
        hyp_terminating([rational(-5), rational(1)], [rational(-2)], rational(1), 10)


def test_krawtchouk_degree_zero():
    params = KrawtchoukParams(rational(1, 2), 4)
    for x in range(5):
        assert krawtchouk(0, rational(x), params) == 1


def test_krawtchouk_two_term_example():
    assert krawtchouk(1, rational(1), KrawtchoukParams(rational(1, 2), 2)) == 0


def test_krawtchouk_out_of_range_convention():
    params = KrawtchoukParams(rational(1, 2), 2)
    assert krawtchouk(3, rational(1), params) == 0
    assert krawtchouk(-1, rational(1), params) == 0
    assert krawtchouk(1, rational(-1), params) == 0
    assert krawtchouk(1, rational(5), params) == 0


def test_krawtchouk_matches_hypergeometric_form():
    params = KrawtchoukParams(rational(9, 25), 5)
    for n in range(6):
        for x in range(6):
            direct = krawtchouk(n, rational(x), params)
            via_hyp = hyp_terminating(
                [rational(-n), rational(-x)], [rational(-5)], 1 / params.p, 8
            )
            assert direct == via_hyp


def test_krawtchouk_p_zero_rejected():
    with pytest.raises(ValueError):
        KrawtchoukParams(rational(0), 3)


def test_krawtchouk_recurrence_grid():
    for p in P_GRID:
        for N in range(7):
            params = KrawtchoukParams(p, N)
            for n in range(N + 1):
                for x in range(N + 1):
                    assert krawtchouk_recurrence_residual(n, rational(x), params) == 0


def test_krawtchouk_symmetry_grid():
    for p in P_GRID:
        for N in range(7):
            params = KrawtchoukParams(p, N)
            for n in range(N + 1):
                for x in range(N + 1):
                    assert krawtchouk_symmetry_residual(n, x, params) == 0


def test_krawtchouk_duality():
    for p in P_GRID:
        params = KrawtchoukParams(p, 6)
        for n in range(7):
            for x in range(7):
                assert krawtchouk(n, rational(x), params) == krawtchouk(
                    x, rational(n), params
                )


def test_krawtchouk_trig_equals_monomial_times_value():
    s, c = rational(3, 5), rational(4, 5)
    params = KrawtchoukParams(s * s, 5)
    for n in range(6):
        for x in range(6):
            joint = krawtchouk_trig(n, x, 5, s, c)
            expected = (s / c) ** (n + x) * c**5 * krawtchouk(n, rational(x), params)
            assert joint == expected


def test_krawtchouk_trig_zero_angle_is_delta():
    from gtrotor.numerics import factorial, neg_one_pow

    for n in range(4):
        for x in range(4):
            joint = krawtchouk_trig(n, x, 3, rational(0), rational(1))
            if n != x:
                assert joint == 0
            else:
                pref = neg_one_pow(x) * factorial(3) / (factorial(n) * factorial(3 - x))
                assert pref * joint == 1


def test_racah_degree_zero_and_conventions():
    params = RacahParams(rational(-4), rational(-4), rational(-4), rational(0))
    assert params.window == 3
    assert racah_tilde(0, rational(2), params) == 1
    assert racah_tilde(-1, rational(1), params) == 0
    assert racah_tilde(4, rational(1), params) == 0
    assert racah_tilde(1, rational(5), params) == 0


def test_racah_explicit_value():
    params = RacahParams(rational(-4), rational(-4), rational(-4), rational(0))
    assert racah_tilde(1, rational(1), params) == rational(5, 9)


def test_racah_integer_sum_matches_termwise_series():
    """The exact Racah sum on integers equals the termwise rational 4F3,
    on integral and fractional parameters (x >= 0, where the negative-index
    convention does not apply), including denominator poles."""
    rng = random.Random(4)
    for _ in range(400):
        n = rng.randint(0, 7)
        x, a, b, c, d = (
            rational(rng.randint(lo, 9), rng.choice((1, 1, 2, 3)))
            for lo in (0, -9, -9, -9, -9)
        )
        try:
            expected = hyp_terminating(
                [-n, n + a + b + 1, -x, x + c + d + 1], [a + 1, b + d + 1, c + 1],
                rational(1), n,
            )
        except DenominatorPoleBeforeTermination:
            with pytest.raises(DenominatorPoleBeforeTermination):
                racah_tilde_raw(n, x, a, b, c, d)
            continue
        assert racah_tilde_raw(n, x, a, b, c, d) == expected


def test_krawtchouk_orthogonality_spec_cases():
    for p, N in ((rational(1, 2), 4), (rational(3, 25), 3)):
        report = check_krawtchouk_orthogonality(KrawtchoukParams(p, N))
        assert report.passed, [c.line() for c in report.failures]


def test_krawtchouk_orthogonality_normalization():
    # m = n = 0 reduces to the binomial theorem
    report = check_krawtchouk_orthogonality(KrawtchoukParams(rational(1, 4), 5))
    head = [c for c in report.checks if "m=0,n=0" in c.name]
    assert head and head[0].passed


def test_racah_contiguity_window3():
    params = RacahParams(rational(-4), rational(-4), rational(-4), rational(0))
    for which in ("Wilson413", "FourTerm"):
        report = check_racah_contiguity(params, which)
        assert len(report.checks) == 16
        assert report.passed, [c.line() for c in report.failures]


def test_racah_contiguity_degenerate_window():
    params = RacahParams(rational(-1), rational(-3), rational(-1), rational(2))
    assert params.window == 0
    for which in ("Wilson413", "FourTerm"):
        assert check_racah_contiguity(params, which).passed


def test_racah_contiguity_edge_uses_negative_degree_convention():
    params = RacahParams(rational(-4), rational(-4), rational(-4), rational(0))
    report = check_racah_contiguity(params, "FourTerm")
    edge = [c for c in report.checks if "[n=0," in c.name]
    assert edge and all(c.passed for c in edge)


def test_racah_pattern_recurrence_up_to_height_5():
    for w in weights_up_to_height(5):
        for p in enumerate_patterns(w):
            for resid in racah_pattern_recurrence_residuals(p):
                assert resid == 0


def test_racah_pattern_contiguity_sampled():
    w = HighestWeight.of(2, 0, -2)
    seen = set()
    for p in enumerate_patterns(w):
        params = racah_pattern_params(p)
        if params in seen:
            continue
        seen.add(params)
        for which in ("Wilson413", "FourTerm"):
            assert check_racah_contiguity(params, which).passed


def test_hyp_rejects_float_input():
    with pytest.raises(TypeError):
        hyp_terminating([rational(-1), rational(-1)], [rational(-2)], 2.0, 10)


def test_krawtchouk_rejects_float_input():
    params = KrawtchoukParams(rational(1, 2), 4)
    for x in (1.0, 7.0):  # in range and out of range
        with pytest.raises(TypeError):
            krawtchouk(1, x, params)
    with pytest.raises(TypeError):
        krawtchouk(1, rational(1), KrawtchoukParams(0.5, 4))


def test_racah_tilde_rejects_float_input():
    params = RacahParams(rational(-4), rational(-4), rational(-4), rational(0))
    for x in (1.0, 9.0):  # inside and outside the window
        with pytest.raises(TypeError):
            racah_tilde(1, x, params)
    with pytest.raises(TypeError):
        racah_tilde(1, rational(1), RacahParams(-4.0, rational(-4), rational(-4), 0))
