"""Verification suites behind `gtrotor verify` and the acceptance tests.

Each suite returns a Report with one entry per check; suites accept the
height cap l31 - l33 <= max_height, up to the suite's entry in HEIGHT_CAPS
(a greater height raises ValueError), and default to their acceptance
height in ACCEPTANCE_HEIGHTS.  Weight-level work parallelizes across
processes, capped by the GTROTOR_THREADS environment variable.
"""

from __future__ import annotations

import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .gt_basis import basis_for, weights_up_to_height, weyl_dimension
from .numerics import Radians, exact_angle, rational
from .oracle import TAU_SIGN_TOL, rho_oracle, tau_sign_residual
from .rep import verify_structure
from .reporting import Report
from .rotations import (
    EulerAngles,
    bispectral_residual,
    h_recurrence_explicit_residual,
    hybrid_sigma,
    orthogonality_defect,
    rho_z,
    rotation_matrix,
    sigma_formula,
    sigma_product,
    sigma_symmetric,
    tau,
)
from . import racah_algebra, specfun

PYTHAGOREAN_ANGLES = (
    exact_angle(0, 1),
    exact_angle(rational(3, 5), rational(4, 5)),
    exact_angle(rational(5, 13), rational(12, 13)),
)

KRAWTCHOUK_PS = (rational(1, 4), rational(1, 2), rational(9, 25))


# Largest max_height each suite accepts: the heights its per-weight work was
# sized for (the rotations suite's float oracle check among them).
HEIGHT_CAPS = {"polys": 5, "rotations": 5, "bispectral": 4}

# The height each suite runs at unless one is given: the acceptance sizes.
ACCEPTANCE_HEIGHTS = {
    "rep": 6, "polys": 5, "rotations": 5, "bispectral": 4, "racah-algebra": 6,
}


def check_height(suite: str, max_height: int) -> None:
    cap = HEIGHT_CAPS.get(suite)
    if cap is not None and max_height > cap:
        raise ValueError(
            f"suite {suite} is capped at height {cap}; max_height {max_height} "
            "is above it"
        )


def thread_count() -> int:
    cap = os.environ.get("GTROTOR_THREADS")
    if cap is not None:
        return max(1, int(cap))
    return max(1, os.cpu_count() or 1)


def _pmap(fn, items, threads: int):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def _merge(suite: str, reports) -> Report:
    out = Report(suite)
    for r in reports:
        out.extend(r)
    return out


# -- rep suite --------------------------------------------------------------


def _rep_weight(weight) -> Report:
    basis = basis_for(weight)
    report = verify_structure(basis)
    report.add(
        "dimension_vs_weyl", str(weight), basis.dim == weyl_dimension(weight)
    )
    return report


def suite_rep(
    max_height: int = ACCEPTANCE_HEIGHTS["rep"], threads: int = 1
) -> Report:
    reports = _pmap(_rep_weight, weights_up_to_height(max_height), threads)
    out = _merge("rep", reports)
    # the dimension oracle is cheap; always push it to height 8
    for w in weights_up_to_height(max(8, max_height)):
        if w.height <= max_height:
            continue
        out.add("dimension_vs_weyl", str(w), basis_for(w).dim == weyl_dimension(w))
    return out


# -- polynomial suite -------------------------------------------------------


def _polys_krawtchouk() -> Report:
    report = Report("polys")
    for p in KRAWTCHOUK_PS:
        for N in range(0, 7):
            params = specfun.KrawtchoukParams(p, N)
            ortho = specfun.check_krawtchouk_orthogonality(params)
            report.add(
                f"krawtchouk_orthogonality[p={p},N={N}]",
                None,
                ortho.passed,
                max((c.residual for c in ortho.checks), default=0.0),
            )
            worst_rec = 0.0
            worst_sym = 0.0
            rec_ok = sym_ok = dual_ok = True
            for n in range(N + 1):
                for x in range(N + 1):
                    r = specfun.krawtchouk_recurrence_residual(n, rational(x), params)
                    rec_ok &= r == 0
                    worst_rec = max(worst_rec, abs(float(r)))
                    r = specfun.krawtchouk_symmetry_residual(n, x, params)
                    sym_ok &= r == 0
                    worst_sym = max(worst_sym, abs(float(r)))
                    dual_ok &= specfun.krawtchouk(
                        n, rational(x), params
                    ) == specfun.krawtchouk(x, rational(n), params)
            report.add(f"krawtchouk_recurrence[p={p},N={N}]", None, rec_ok, worst_rec)
            report.add(f"krawtchouk_symmetry[p={p},N={N}]", None, sym_ok, worst_sym)
            report.add(f"krawtchouk_duality[p={p},N={N}]", None, dual_ok)
    return report


def _polys_weight(weight) -> Report:
    report = Report("polys")
    basis = basis_for(weight)
    wname = str(weight)
    rec_ok = True
    worst = 0.0
    for p in basis:
        for resid in specfun.racah_pattern_recurrence_residuals(p):
            rec_ok &= resid == 0
            worst = max(worst, abs(float(resid)))
    report.add(f"racah_recurrence", wname, rec_ok, worst)

    seen = set()
    for p in basis:
        params = specfun.racah_pattern_params(p)
        if params in seen:
            continue
        seen.add(params)
        for which in ("Wilson413", "FourTerm"):
            sub = specfun.check_racah_contiguity(params, which)
            report.add(
                f"racah_contiguity_{which}[{params.alpha},{params.beta},"
                f"{params.gamma},{params.delta}]",
                wname,
                sub.passed,
                max((c.residual for c in sub.checks), default=0.0),
            )
    return report


def suite_polys(
    max_height: int = ACCEPTANCE_HEIGHTS["polys"], threads: int = 1
) -> Report:
    check_height("polys", max_height)
    reports = [_polys_krawtchouk()]
    reports += _pmap(_polys_weight, weights_up_to_height(max_height), threads)
    return _merge("polys", reports)


# -- rotations suite --------------------------------------------------------


def _random_angle_triples(weight, count: int = 20):
    # crc32 keeps the stream reproducible across runs and processes
    rng = np.random.default_rng(zlib.crc32(str(weight).encode()))
    for _ in range(count):
        chi, theta, phi = rng.uniform(-np.pi, np.pi, size=3)
        yield EulerAngles(Radians(float(chi)), Radians(float(theta)), Radians(float(phi)))


def _rotations_weight(weight) -> Report:
    report = Report("rotations")
    basis = basis_for(weight)
    wname = str(weight)

    cross_ok = True
    worst = 0.0
    t0 = time.perf_counter()
    for chi in PYTHAGOREAN_ANGLES:
        for theta in PYTHAGOREAN_ANGLES:
            for phi in PYTHAGOREAN_ANGLES:
                angles = EulerAngles(chi, theta, phi)
                sp = sigma_product(angles, basis)
                sf = sigma_formula(angles, basis)
                if sp != sf:
                    cross_ok = False
                    worst = max(worst, sp.max_abs_diff(sf))
    report.add(
        "sigma_formula_vs_product[27 triples]", wname, cross_ok, worst,
        time.perf_counter() - t0,
    )

    a = PYTHAGOREAN_ANGLES[1]
    b = PYTHAGOREAN_ANGLES[2]
    rho = rho_z(a, basis)
    report.add("orthogonality_rho", wname, orthogonality_defect(rho).is_zero())
    report.add("orthogonality_tau", wname, orthogonality_defect(tau(basis)).is_zero())
    residual = tau_sign_residual(basis)
    report.add("tau_sign_matches_oracle", wname, residual <= TAU_SIGN_TOL, residual)
    sig = sigma_product(EulerAngles(a, b, a), basis)
    report.add("orthogonality_sigma_product", wname, orthogonality_defect(sig).is_zero())
    ident = EulerAngles(*([PYTHAGOREAN_ANGLES[0]] * 3))
    report.add(
        "sigma_identity_at_zero", wname,
        sigma_product(ident, basis).is_identity()
        and rho_z(PYTHAGOREAN_ANGLES[0], basis).is_identity(),
    )

    t0 = time.perf_counter()
    oracle_ok = True
    worst_rel = 0.0
    for angles in _random_angle_triples(weight):
        sp = sigma_product(angles, basis)
        target = rho_oracle(np.array(rotation_matrix(angles)), basis)
        # compare at the scale of the orthonormal basis, where both matrices
        # are orthogonal and entries are O(1): there, absolute is relative
        rel = float(np.max(np.abs(sp.zeta_numpy() - target.zeta_numpy())))
        worst_rel = max(worst_rel, rel)
        oracle_ok &= rel <= 1e-9
    report.add(
        "sigma_product_vs_oracle[20 random]", wname, oracle_ok, worst_rel,
        time.perf_counter() - t0,
    )

    for eta in (PYTHAGOREAN_ANGLES[1], PYTHAGOREAN_ANGLES[0]):
        hs = hybrid_sigma(eta, basis)
        prod = tau(basis) @ rho_z(eta, basis)
        report.add(
            f"hybrid_vs_tau_rho[{eta}]", wname, hs == prod, hs.max_abs_diff(prod)
        )

    if basis.weight.l32 == basis.weight.l33:
        sym_ok = True
        worst_sym = 0.0
        for angles in (
            EulerAngles(a, b, a),
            EulerAngles(PYTHAGOREAN_ANGLES[0], a, b),
        ):
            ss = sigma_symmetric(angles, basis)
            sp = sigma_product(angles, basis)
            if ss != sp:
                sym_ok = False
                worst_sym = max(worst_sym, ss.max_abs_diff(sp))
        report.add("sigma_symmetric_vs_product", wname, sym_ok, worst_sym)
    return report


def suite_rotations(
    max_height: int = ACCEPTANCE_HEIGHTS["rotations"], threads: int = 1
) -> Report:
    check_height("rotations", max_height)
    reports = _pmap(_rotations_weight, weights_up_to_height(max_height), threads)
    return _merge("rotations", reports)


# -- bispectral suite -------------------------------------------------------


def _bispectral_weight(weight) -> Report:
    report = Report("bispectral")
    basis = basis_for(weight)
    wname = str(weight)
    angles = EulerAngles(
        PYTHAGOREAN_ANGLES[1], PYTHAGOREAN_ANGLES[2], PYTHAGOREAN_ANGLES[1]
    )
    sigma = sigma_product(angles, basis)
    for g in ("H", "Y", "J"):
        for kind in ("Recurrence", "Difference"):
            resid = bispectral_residual(g, kind, angles, basis, sigma=sigma)
            report.add(
                f"bispectral[{g},{kind}]", wname, resid.is_zero(), resid.max_abs()
            )
    disp = h_recurrence_explicit_residual(angles, basis, sigma=sigma)
    report.add("h_recurrence_explicit", wname, disp.is_zero(), disp.max_abs())
    return report


def suite_bispectral(
    max_height: int = ACCEPTANCE_HEIGHTS["bispectral"], threads: int = 1
) -> Report:
    check_height("bispectral", max_height)
    reports = _pmap(_bispectral_weight, weights_up_to_height(max_height), threads)
    return _merge("bispectral", reports)


# -- racah algebra suite ----------------------------------------------------


def _racah_weight(weight) -> Report:
    report = Report("racah-algebra")
    basis = basis_for(weight)
    wname = str(weight)
    resid = racah_algebra.jbar_conjugation_residual(basis)
    report.add("jbar_tau_conjugation", wname, resid.is_zero(), resid.max_abs())
    for sub in (
        racah_algebra.racah_relations_residual(basis),
        racah_algebra.gamma_residual(basis),
        racah_algebra.centralizer_identity_residuals(basis),
        racah_algebra.commutes_with_cartan_report(basis),
        racah_algebra.jbar_tridiagonal_report(basis),
    ):
        report.extend(sub)
    return report


def suite_racah_algebra(
    max_height: int = ACCEPTANCE_HEIGHTS["racah-algebra"], threads: int = 1
) -> Report:
    reports = _pmap(_racah_weight, weights_up_to_height(max_height), threads)
    return _merge("racah-algebra", reports)


# -- hilbert suite ----------------------------------------------------------


def suite_hilbert(max_degree: int = 20, threads: int = 1) -> Report:
    report = Report("hilbert")
    series = racah_algebra.hilbert_series_two_ways(max_degree)
    closed, combi = series["closed_form"], series["combinatorial"]
    report.add(
        f"closed_vs_combinatorial[deg<={max_degree}]", None,
        series["status"] == "PASS",
        max((abs(a - b) for a, b in zip(closed, combi)), default=0),
    )
    report.add("first_coefficients", None, closed[:4] == [1, 2, 6, 12])
    report.extend(racah_algebra.pbw_basis_spanning_check(min(8, max_degree)))
    return report


SUITES = {
    "rep": suite_rep,
    "polys": suite_polys,
    "rotations": suite_rotations,
    "bispectral": suite_bispectral,
    "racah-algebra": suite_racah_algebra,
    "hilbert": suite_hilbert,
}


def suite_heights(names, max_height: int = None) -> dict:
    """{suite: height} for the requested suites, in run order: max_height
    for every suite, or each suite's acceptance height when it is None
    (None for hilbert, which runs by degree).  Every height is checked
    against the caps before anything runs."""
    if "all" in names:
        names = list(SUITES)
    heights = {}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        height = ACCEPTANCE_HEIGHTS.get(name) if max_height is None else max_height
        check_height(name, height)
        heights[name] = height
    return heights


def run_suites(heights: dict, threads: int = None) -> list:
    """Reports of the suites in heights (from suite_heights), in its order."""
    threads = thread_count() if threads is None else threads
    out = []
    for name, height in heights.items():
        if name == "hilbert":
            out.append(suite_hilbert(20, threads))
        else:
            out.append(SUITES[name](height, threads))
    return out
