"""The four benchmark workloads: seeded inputs, the timed operation, and the
correctness check that runs outside the timed span.

Every call into the package goes through a module attribute looked up at
call time (``R.sigma_product``, not a name bound at import), so the tracer
in ``tracer.py`` sees the benchmark's own calls as well as the package's
internal ones.

Angles for the exact workloads come from a fixed pool of primitive
Pythagorean points.  The per-operation cost depends on the bit size of the
angle, so the pool fixes which magnitudes go into which slot; the seed only
flips signs and orders the operations.  That keeps the cost mix identical
for every seed while the inputs differ.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

import gtrotor
from gtrotor import gt_basis as G
from gtrotor import numerics as NU
from gtrotor import oracle as O
from gtrotor import racah_algebra as RA
from gtrotor import rotations as R
from gtrotor import verify as V

# (a, b, c) with a^2 + b^2 = c^2: the angle a/c : b/c (sin : cos)
POOL = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29), (9, 40, 41))

# the ROADMAP weight ladder as (l31-l32, l32-l33): dims 8, 27, 64, 125, 210
LADDER = ((1, 1), (2, 2), (3, 3), (4, 4), (6, 4))
SMOKE_LADDER = ((1, 1), (2, 2))
# ops per rung and pass: three at the middle rung put the median op inside
# one rung's group, so it has several samples per pass instead of one
LADDER_REPS = (1, 1, 3, 1, 1)

CROSSPATH_WEIGHTS = ("1,0,-1", "4/3,1/3,-5/3", "2,0,-2")
SMOKE_CROSSPATH_WEIGHTS = ("1,0,-1",)

# known defects, run once per process outside every timing
TAU_PROBE_WEIGHT = "6,-2,-4"
COS0_PROBE = ("2,0,-2", ("1:0", "3/5:4/5", "5/13:12/13"))

ORACLE_TOL = 1e-9


@dataclass
class Op:
    """One timed operation; ``check`` maps its result to (name, ok, residual)
    triples and never runs inside the timed span."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    ops: List[Op]
    # passes of the op list every timed phase makes at least
    min_passes: int
    # the CLI command matching the workload, and its expected stdout
    cli_argv: List[str] = field(default_factory=list)
    cli_expected: Callable[[], str] = None
    # untimed known-defect probes (ladder): each returns (name, ok, detail)
    probes: List[Callable[[], tuple]] = field(default_factory=list)


# -- helpers ------------------------------------------------------------------


def weight(text: str):
    return G.HighestWeight.parse(text)


def ladder_weight(a: int, b: int):
    return G.HighestWeight.from_row_lengths(a, b)


def angle(text: str):
    return NU.parse_angle(text)


def triple(texts):
    return R.EulerAngles(*(angle(t) for t in texts))


def point(k: int, sign_s: int, sign_c: int) -> str:
    a, b, c = POOL[k]
    return f"{sign_s * a}/{c}:{sign_c * b}/{c}"


def magnitudes(start: int, i: int):
    """Pool indices of triple ``i`` from ``start``: points i, i+1, i+2
    (cyclically) go into chi, theta, phi, so over five consecutive triples
    each slot sees each pool point once."""
    return [(start + i + d) % len(POOL) for d in range(3)]


def pool_triples(rng: random.Random, start: int, count: int):
    """``count`` exact triples with seeded sign flips of sin and cos."""
    return [
        tuple(point(k, rng.choice((1, -1)), rng.choice((1, -1))) for k in magnitudes(start, i))
        for i in range(count)
    ]


def canonical_entries(m) -> list:
    """Entries as the CLI writes them: sorted (i, j) with 'p/q' or float repr."""
    fmt = NU.format_rational if m.exact else (lambda v: repr(float(v)))
    return [[i, j, fmt(v)] for (i, j), v in sorted(m.entries.items())]


def cli_sigma_json(w, texts, path: str, m) -> str:
    """The documented JSON of ``gtrotor sigma`` for matrix ``m``."""
    angles = triple(texts)
    payload = {
        "weight": str(w),
        "angles": {
            "chi": str(angles.chi),
            "theta": str(angles.theta),
            "phi": str(angles.phi),
            "mode": "exact" if angles.all_exact() else "float",
        },
        "path": path,
        "order": "l21,l22,l11-lex",
        "entries": canonical_entries(m),
    }
    return json.dumps(payload, indent=2) + "\n"


def digest(m) -> str:
    return hashlib.sha256(json.dumps(canonical_entries(m)).encode()).hexdigest()


def is_all_exact(m) -> bool:
    return m.exact and all(isinstance(v, NU.Exact) for v in m.entries.values())


def oracle_residual(m, angles) -> float:
    """Distance to the float oracle at the orthonormal scale, where both
    matrices are orthogonal and entries are O(1)."""
    r = np.array(R.rotation_matrix(angles), dtype=float)
    target = O.rho_oracle(r, m.basis)
    return float(np.max(np.abs(m.zeta_numpy() - target.zeta_numpy())))


def angle_args(texts) -> str:
    return ",".join(texts)


def sigma_argv(w, texts, path: str) -> list:
    # '=' keeps a leading minus sign from reading as an option
    return ["sigma", f"--weight={w}", f"--angles={angle_args(texts)}", f"--path={path}"]


# -- crosspath ----------------------------------------------------------------


def crosspath(seed: int, smoke: bool) -> Workload:
    """Criterion 3 on a seeded slice: formula and product, exactly equal."""
    rng = random.Random(seed)
    weights = SMOKE_CROSSPATH_WEIGHTS if smoke else CROSSPATH_WEIGHTS
    ops = []
    first = None
    for w_text in weights:
        basis = G.enumerate_patterns(weight(w_text))
        R.tau(basis)
        R.tau_inverse(basis)
        for texts in pool_triples(rng, 0, len(POOL)):
            angles = triple(texts)
            for a in (angles.chi, angles.theta, angles.phi):
                R.rho_z(a, basis)
            if first is None:
                first = (basis, texts)

            def run(angles=angles, basis=basis):
                return R.sigma_formula(angles, basis), R.sigma_product(angles, basis)

            def check(result):
                formula, product = result
                return [("formula_equals_product", formula.exact and formula == product, 0.0)]

            ops.append(Op(f"{w_text}|{angle_args(texts)}", run, check))
    rng.shuffle(ops)

    basis, texts = first

    def expected():
        m = R.sigma_formula(triple(texts), basis)
        return cli_sigma_json(basis.weight, texts, "formula", m)

    return Workload(
        ops, min_passes=2,
        cli_argv=sigma_argv(basis.weight, texts, "formula"),
        cli_expected=expected,
    )


# -- ladder -------------------------------------------------------------------


def _tau_probe():
    basis = G.enumerate_patterns(weight(TAU_PROBE_WEIGHT))
    t = R.tau(basis)
    return R.orthogonality_defect(t).is_zero(), "tau is norm-orthogonal"


def _cos0_probe():
    w_text, texts = COS0_PROBE
    basis = G.enumerate_patterns(weight(w_text))
    angles = triple(texts)
    m = R.sigma_product(angles, basis)
    if not is_all_exact(m):
        return False, "exact angles gave a float matrix"
    return oracle_residual(m, angles) <= ORACLE_TOL, "exact and matches the oracle"


def run_probe(name: str, fn) -> tuple:
    """A probe's outcome; an exception is its failure, recorded by type."""
    try:
        ok, detail = fn()
    except Exception as exc:  # the probe boundary reports, never aborts
        return name, False, f"{type(exc).__name__}: {exc}"
    return name, bool(ok), detail


def ladder_inputs(rng: random.Random, rungs):
    """(rung, angle texts) of one pass, in rung order."""
    for r, rung in enumerate(rungs):
        for texts in pool_triples(rng, r, LADDER_REPS[r]):
            yield rung, texts


def ladder_label(rung, texts) -> str:
    return f"{rung[0]},{rung[1]}|{angle_args(texts)}"


def ladder(seed: int, smoke: bool, digests: dict) -> Workload:
    """Cold exact sigma_product: a fresh IrrepBasis per op, as one CLI call.
    Each result must be exact, match the oracle, and match the digest of the
    same product recorded from the seed commit (record_digests.py)."""
    rng = random.Random(seed)
    rungs = SMOKE_LADDER if smoke else LADDER
    ops = []
    cli = None
    for rung, texts in ladder_inputs(rng, rungs):
        w = ladder_weight(*rung)
        angles = triple(texts)
        label = ladder_label(rung, texts)

        def run(w=w, angles=angles):
            return R.sigma_product(angles, G.enumerate_patterns(w))

        def check(m, angles=angles, label=label):
            exact = is_all_exact(m)
            resid = oracle_residual(m, angles) if exact else math.inf
            return [
                ("entries_exact", exact, 0.0),
                ("product_vs_oracle", resid <= ORACLE_TOL, resid),
                ("seed_commit_digest", exact and digest(m) == digests.get(label), 0.0),
            ]

        ops.append(Op(label, run, check))
        if cli is None and (rung == (3, 3) or rung == rungs[-1]):
            cli = (w, texts, angles)

    w, texts, angles = cli

    def expected():
        m = R.sigma_product(angles, G.enumerate_patterns(w))
        return cli_sigma_json(w, texts, "product", m)

    return Workload(
        ops, min_passes=3,
        cli_argv=sigma_argv(w, texts, "product"),
        cli_expected=expected,
        probes=[
            lambda: run_probe(f"tau[{TAU_PROBE_WEIGHT}]", _tau_probe),
            lambda: run_probe("exact_product_at_cos0", _cos0_probe),
        ],
    )


# -- float --------------------------------------------------------------------


def float_paths(seed: int, smoke: bool) -> Workload:
    """Float sigma_product against rho_oracle on random radian triples."""
    rng = random.Random(seed)
    rungs = SMOKE_LADDER if smoke else LADDER
    per_rung = 2 if smoke else 4
    ops = []
    cli = None
    for a, b in rungs:
        basis = G.enumerate_patterns(ladder_weight(a, b))
        R.tau(basis)
        for _ in range(per_rung):
            texts = tuple(f"rad={rng.uniform(-math.pi, math.pi)!r}" for _ in range(3))
            angles = triple(texts)

            def run(angles=angles, basis=basis):
                r = np.array(R.rotation_matrix(angles), dtype=float)
                return R.sigma_product(angles, basis), O.rho_oracle(r, basis)

            def check(result):
                product, target = result
                resid = float(np.max(np.abs(product.zeta_numpy() - target.zeta_numpy())))
                return [("product_vs_oracle", resid <= ORACLE_TOL, resid)]

            ops.append(Op(f"{a},{b}|{angle_args(texts)}", run, check))
            if cli is None and basis.dim >= 27:
                cli = (basis, texts, angles)
    rng.shuffle(ops)

    basis, texts, angles = cli

    def expected():
        return cli_sigma_json(basis.weight, texts, "product", R.sigma_product(angles, basis))

    return Workload(
        ops, min_passes=3,
        cli_argv=sigma_argv(basis.weight, texts, "product"),
        cli_expected=expected,
    )


# -- verify -------------------------------------------------------------------

VERIFY_SUITES = (
    ("suite_rep", 6),
    ("suite_polys", 5),
    ("suite_racah_algebra", 6),
    ("suite_bispectral", 4),
    ("suite_hilbert", 20),
)
SMOKE_VERIFY_SUITES = (
    ("suite_rep", 2),
    ("suite_polys", 2),
    ("suite_racah_algebra", 2),
    ("suite_bispectral", 2),
    ("suite_hilbert", 6),
)
HILBERT_DEGREE = 20


def verify_suites(seed: int, smoke: bool) -> Workload:
    """The acceptance-gate suites at threads=1; inputs are fixed, so the seed
    does not enter."""
    ops = []
    for fn_name, size in SMOKE_VERIFY_SUITES if smoke else VERIFY_SUITES:

        def run(fn_name=fn_name, size=size):
            return getattr(V, fn_name)(size, threads=1)

        def check(report, fn_name=fn_name):
            return [(f"{fn_name}.passed", report.passed, float(len(report.failures)))]

        ops.append(Op(fn_name, run, check))

    def expected():
        closed = RA.hilbert_series_coeffs(HILBERT_DEGREE, "ClosedForm")
        combi = RA.hilbert_series_coeffs(HILBERT_DEGREE, "Combinatorial")
        payload = {
            "max_degree": HILBERT_DEGREE,
            "closed_form": closed,
            "combinatorial": combi,
            "status": "PASS" if closed == combi else "FAIL",
        }
        return json.dumps(payload, indent=2) + "\n"

    return Workload(
        ops, min_passes=1,
        cli_argv=["hilbert", "--max-degree", str(HILBERT_DEGREE)],
        cli_expected=expected,
    )


def build(name: str, seed: int, smoke: bool, digests: dict) -> Workload:
    if name == "crosspath":
        return crosspath(seed, smoke)
    if name == "ladder":
        return ladder(seed, smoke, digests)
    if name == "float":
        return float_paths(seed, smoke)
    if name == "verify":
        return verify_suites(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")


def backend() -> str:
    """Arithmetic backend of the exact tower, e.g. 'fractions.Fraction'."""
    return f"{NU.Exact.__module__}.{NU.Exact.__qualname__}"


def versions() -> dict:
    return {"gtrotor": gtrotor.__version__, "numpy": np.__version__}

