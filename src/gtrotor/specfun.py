"""Terminating hypergeometric series, Krawtchouk and Racah polynomials.

All series are summed term by term; termination is detected by a numerator
Pochhammer factor hitting zero, never by a magnitude test.  Evaluation is
exact-only: the values are exact checks and closed-form entries (float work
belongs to the numpy oracle), and krawtchouk, racah_tilde and
hyp_terminating raise TypeError on float input.

Out-of-range conventions: a Krawtchouk value is zero when the degree or the
variable leaves [0, N]; the shifted Racah value is zero outside the window
N = min(-alpha-1, -beta-delta-1, -gamma-1).  The contiguity checks evaluate
shifted-parameter families through the raw series, where only the
negative-degree/variable part of the convention applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .gt_basis import GTPattern
from .numerics import ONE, ZERO, Exact, as_int, is_exact, neg_one_pow, rational
from .reporting import Report


class NonTerminating(ArithmeticError):
    """No numerator parameter terminates the series within max_terms."""


class DenominatorPoleBeforeTermination(ZeroDivisionError):
    """A denominator Pochhammer vanished at a live term."""


def _require_exact(*values) -> None:
    if not all(map(is_exact, values)):
        raise TypeError(f"specfun takes exact (rational) input only, got {values}")


def hyp_terminating(numerator_params, denominator_params, z, max_terms: int):
    """Sum of the terminating series pFq(a; b; z), exact input only.

    A zero numerator factor at step k kills every term past k; a zero
    denominator factor before that is an error surfaced to the caller.
    """
    a = list(numerator_params)
    b = list(denominator_params)
    _require_exact(z, *a, *b)
    term = total = ONE
    for k in range(max_terms + 1):
        num = term
        for ai in a:
            num = num * (ai + k)
        if num == 0:
            return total
        den = ONE
        for bj in b:
            den = den * (bj + k)
        if den == 0:
            raise DenominatorPoleBeforeTermination(
                f"denominator parameter hit zero at term {k + 1}"
            )
        term = num / den * z / (k + 1)
        total = total + term
    raise NonTerminating(f"series did not terminate within {max_terms} terms")


@dataclass(frozen=True)
class KrawtchoukParams:
    p: Exact
    N: int

    def __post_init__(self):
        if as_int(self.N) < 0:
            raise ValueError(f"N must be a nonnegative integer, got {self.N}")
        if self.p == 0:
            raise ValueError("p = 0 is outside the Krawtchouk parameter range")


@lru_cache(maxsize=None)
def _kraw_sum(n: int, x, N: int, p):
    """2F1(-n, -x; -N; 1/p) for 0 <= n <= N; terminates through -n."""
    term = total = ONE
    for k in range(n):
        term = term * (k - n) * (k - x) / ((k - N) * (k + 1) * p)
        if term == 0:
            break
        total = total + term
    return total


def krawtchouk(n, x, params: KrawtchoukParams):
    """Krawtchouk polynomial K_n(x; p, N), zero outside [0, N]; exact
    input only."""
    _require_exact(x, params.p)
    N = as_int(params.N)
    n = as_int(n)
    if n < 0 or n > N or x < 0 or x > N:
        return ZERO
    return _kraw_sum(n, rational(x), N, rational(params.p))


@lru_cache(maxsize=None)
def krawtchouk_trig_terms(n: int, x: int, N: int):
    """(sign, e, ((sin power, coefficient), ...)) for in-range n, x:
    krawtchouk_trig(n, x, N, s, c) = sign * c^e * sum of coefficient * s^power.
    When n + x > N the reflection K(n, x) = (-1)^(n+x-N) K(N-n, N-x) is
    applied, so the cosine power e is never negative."""
    sign = 1
    if n + x > N:
        sign = neg_one_pow(n + x - N)
        n, x = N - n, N - x
    coeffs = []
    term = rational(1)
    for k in range(min(n, x) + 1):
        if k > 0:
            term = term * (k - 1 - n) * (k - 1 - x) / rational((k - 1 - N) * k)
        coeffs.append((n + x - 2 * k, term))
    return sign, N - n - x, tuple(coeffs)


def krawtchouk_trig(n, x, N, s, c):
    """tan^(n+x) * cos^N * K_n(x; sin^2, N) expanded into monomials in sin
    and cos, a polynomial on the whole circle.

    The joint expansion stays exact at sin = 0, where the bare Krawtchouk
    value diverges termwise against the vanishing tangent power.  The
    reflection of krawtchouk_trig_terms keeps the cosine power nonnegative:
    the value stays finite and exact at cos = 0, and fewer terms are
    summed.  Out-of-range degree or variable gives zero, as for the bare
    polynomial."""
    n, x, N = as_int(n), as_int(x), as_int(N)
    if n < 0 or n > N or x < 0 or x > N:
        return ZERO
    sign, e, terms = krawtchouk_trig_terms(n, x, N)
    total = sum(coef * s**sp for sp, coef in terms)
    return sign * total * c**e


@dataclass(frozen=True)
class RacahParams:
    alpha: Exact
    beta: Exact
    gamma: Exact
    delta: Exact

    @property
    def window(self):
        """Largest admissible degree/variable; values outside read as zero."""
        return min(
            -self.alpha - 1, -self.beta - self.delta - 1, -self.gamma - 1
        )


@lru_cache(maxsize=None)
def racah_sum_exact(n: int, x, a, b, c, d):
    """4F3(-n, n+a+b+1, -x, x+c+d+1; a+1, b+d+1, c+1; 1), terminating in -n,
    on exact input, summed on integers.  Ints and equal rationals hash
    alike, so int arguments share cache entries with rational ones.

    Scaled by L, the lcm of the parameters' denominators, every factor of
    the term ratio is an integer (the powers of L cancel), so term k is
    T_k / S_k with integers; the partial sum is carried as one integer over
    S_k and divided once at the end."""
    L = lcm(*(v.denominator for v in (x, a, b, c, d)))
    X, A, B, C, D = (v.numerator * (L // v.denominator) for v in (x, a, b, c, d))
    term = total = den = 1
    for k in range(n):
        j = (k + 1) * L
        t = (k - n) * L * ((n + k + 1) * L + A + B) * (k * L - X) * (j + X + C + D)
        if t == 0:
            break
        u = (j + A) * (j + B + D) * (j + C) * j
        if u == 0:
            raise DenominatorPoleBeforeTermination(
                f"Racah denominator vanished at term {k + 1}"
            )
        term *= t
        total = total * u + term
        den *= u
    return rational(total, den)


def racah_tilde_raw(n, x, alpha, beta, gamma, delta):
    """Shifted Racah value with only the negative-index convention applied;
    exact input only, passed to the cached sum as it is (ints and equal
    rationals share its cache entries)."""
    _require_exact(x, alpha, beta, gamma, delta)
    if n < 0 or x < 0:
        return ZERO
    return racah_sum_exact(as_int(n), x, alpha, beta, gamma, delta)


def racah_tilde(n, x, params: RacahParams):
    """Shifted Racah polynomial with the full out-of-window convention;
    exact input only."""
    args = (x, params.alpha, params.beta, params.gamma, params.delta)
    _require_exact(*args)
    N = params.window
    if n < 0 or x < 0 or n > N or x > N:
        return ZERO
    return racah_tilde_raw(n, *args)


def check_krawtchouk_orthogonality(params: KrawtchoukParams) -> Report:
    """Binomial-weighted orthogonality of K_m, K_n over the full index range."""
    from .numerics import binomial

    report = Report("krawtchouk-orthogonality")
    p, N = rational(params.p), as_int(params.N)
    values = {
        (n, X): krawtchouk(n, rational(X), params)
        for n in range(N + 1)
        for X in range(N + 1)
    }
    for m in range(N + 1):
        for n in range(N + 1):
            acc = rational(0)
            for X in range(N + 1):
                acc += (
                    binomial(N, X)
                    * p ** (X + n)
                    * (1 - p) ** (N - X - n)
                    * values[(m, X)]
                    * values[(n, X)]
                )
            total = binomial(N, n) * acc
            expected = rational(1 if m == n else 0)
            report.add(
                f"orthogonality[m={m},n={n},p={p},N={N}]",
                None,
                total == expected,
                abs(float(total - expected)),
            )
    return report


def krawtchouk_recurrence_residual(n: int, x, params: KrawtchoukParams):
    """Three-term recurrence defect; zero for every in-range (n, x)."""
    p, N = rational(params.p), as_int(params.N)
    k = lambda m: krawtchouk(m, x, params)
    lhs = -x * k(n)
    rhs = (
        p * (N - n) * k(n + 1)
        - (p * (N - n) + n * (1 - p)) * k(n)
        + n * (1 - p) * k(n - 1)
    )
    return lhs - rhs


def krawtchouk_symmetry_residual(n: int, x: int, params: KrawtchoukParams):
    """Reflection symmetry n -> N-n, x -> N-x.

    K_n(x; p, N) = ((p-1)/p)^(n+x-N) K_{N-n}(N-x; p, N).
    """
    p, N = rational(params.p), as_int(params.N)
    factor = ((p - 1) / p) ** (as_int(n) + as_int(x) - N)
    return krawtchouk(n, rational(x), params) - factor * krawtchouk(
        N - n, rational(N - x), params
    )


def racah_pattern_params(p: GTPattern) -> RacahParams:
    """Racah parameters attached to a GT pattern (the tau column data)."""
    w = p.weight
    return RacahParams(
        alpha=w.l32 - w.l31 - 1,
        beta=p.l21 + p.l22 + w.l33 - 1,
        gamma=p.l11 - w.l31 - 1,
        delta=-p.l21 - p.l22 - w.l31 - 1,
    )


def racah_recurrence_coefficients(p: GTPattern):
    """The tridiagonal coefficients (A, C) attached to a pattern; defined
    only when l21 > l22."""
    w = p.weight
    if p.l21 == p.l22:
        raise ValueError("recurrence coefficients need l21 > l22")
    a = (
        (p.l21 - w.l32)
        * (w.l31 - p.l22 + 1)
        * (p.l21 - p.l11)
        * (p.l21 - w.l33 + 1)
        / ((p.l21 - p.l22 + 1) * (p.l21 - p.l22))
    )
    c = (
        (p.l11 - p.l22 + 1)
        * (p.l22 - w.l33)
        * (w.l32 - p.l22 + 1)
        * (w.l31 - p.l21)
        / ((p.l21 - p.l22 + 1) * (p.l21 - p.l22 + 2))
    )
    return a, c


def racah_pattern_recurrence_residuals(p: GTPattern):
    """Defects of the degree recurrence at one pattern, over the whole
    variable window.  The pattern fixes the degree n = l31 - l21 and the
    parameters; A and C vanish exactly at the window edges, so the
    out-of-window convention never contributes a spurious term."""
    if p.l21 == p.l22:
        return []
    w = p.weight
    params = racah_pattern_params(p)
    a, c = racah_recurrence_coefficients(p)
    n = as_int(w.l31 - p.l21)
    gd1 = params.gamma + params.delta + 1
    out = []
    for x in range(as_int(params.window) + 1):
        lhs = (
            a * racah_tilde(n + 1, rational(x), params)
            - (a + c) * racah_tilde(n, rational(x), params)
            + c * racah_tilde(n - 1, rational(x), params)
        )
        rhs = x * (x + gd1) * racah_tilde(n, rational(x), params)
        out.append(lhs - rhs)
    return out


def _wilson_residual(n, x, params: RacahParams):
    a, b, c, d = params.alpha, params.beta, params.gamma, params.delta
    r = lambda nn, xx, cc: racah_tilde_raw(nn, xx, a, b, cc, d)
    lhs = (2 * x + c + d + 1) * (n + c) * (n - c + a + b + 1) * r(n, x, c)
    rhs = c * (
        (x + a + 1) * (x + b + d + 1) * r(n, x + 1, c - 1)
        - (x - a + c + d) * (x - b + c) * r(n, x, c - 1)
    )
    return lhs - rhs


def _four_term_residual(n, x, params: RacahParams):
    a, b, c, d = params.alpha, params.beta, params.gamma, params.delta
    lhs = (2 * x + c + d + 1) * (
        n * racah_tilde_raw(n - 1, x, a, b, c, d)
        + (n + a + b) * racah_tilde_raw(n, x, a, b, c, d)
    )
    rhs = (2 * n + a + b) * (
        x * racah_tilde_raw(n, x - 1, a, b - 1, c, d + 1)
        + (x + c + d + 1) * racah_tilde_raw(n, x, a, b - 1, c, d + 1)
    )
    return lhs - rhs


def check_racah_contiguity(params: RacahParams, which: str) -> Report:
    """Exact check of a contiguity relation over the full (n, x) window.

    which: 'Wilson413' for the gamma-lowering relation, 'FourTerm' for the
    four-term relation.  Both are checked with denominators cleared.
    """
    report = Report(f"racah-contiguity-{which}")
    N = params.window
    if N < 0:
        report.add(f"{which}[empty-window]", None, True)
        return report
    residual = {"Wilson413": _wilson_residual, "FourTerm": _four_term_residual}[which]
    for n in range(as_int(N) + 1):
        for x in range(as_int(N) + 1):
            res = residual(n, x, params)
            report.add(
                f"{which}[n={n},x={x}]", None, res == 0, abs(float(res))
            )
    return report
