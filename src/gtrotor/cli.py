"""Command-line front end: pattern enumeration, represented matrices, sigma
by any computation path, polynomial evaluation, and the verification suites.

Output is JSON by default (rationals rendered as "p/q" strings so nothing is
ever mangled through floats); matrices also accept --format csv.  Exit codes:
0 success, 1 verification failure, 2 usage, domain, arithmetic or
out-of-memory error (an `error:` line on stderr, never a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

import numpy as np

from .gt_basis import HighestWeight, InvalidWeight, basis_for
from .linalg import PatternMatrix
from .numerics import (
    NotOnUnitCircle,
    format_rational,
    is_exact,
    parse_angle,
    parse_rational,
)
from .oracle import SignCalibrationFailed, rho_oracle
from .racah_algebra import hilbert_series_two_ways
from .rep import ELEMENT_NAMES, element_matrix
from .rotations import EulerAngles, rotation_matrix, sigma_formula, sigma_product, tau
from .specfun import KrawtchoukParams, RacahParams, krawtchouk, racah_tilde
from .verify import run_suites

CANONICAL_ORDER = "l21,l22,l11-lex"


class DomainError(Exception):
    pass


def _emit(payload) -> None:
    """Print payload as indented JSON (the text of json.dumps), written in
    slices of 2^16 encoder chunks so the document is never one string."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while True:
        part = list(islice(chunks, 1 << 16))
        if not part:
            break
        sys.stdout.write("".join(part))
    sys.stdout.write("\n")


def _format_value(v) -> str:
    return format_rational(v) if is_exact(v) else repr(float(v))


def _matrix_entries(m: PatternMatrix):
    return [
        [i, j, _format_value(v)]
        for (i, j), v in sorted(m.entries.items())
    ]


def _matrix_csv(m: PatternMatrix) -> str:
    dim = m.basis.dim
    lines = []
    for i in range(dim):
        lines.append(",".join(_format_value(m.get(i, j)) for j in range(dim)))
    return "\n".join(lines)


def _print_matrix(m: PatternMatrix, fmt: str, header: dict) -> None:
    if fmt == "csv":
        print(_matrix_csv(m))
        return
    payload = dict(header)
    payload["order"] = CANONICAL_ORDER
    payload["entries"] = _matrix_entries(m)
    _emit(payload)


def _parse_weight(text: str) -> HighestWeight:
    try:
        return HighestWeight.parse(text)
    except (InvalidWeight, ValueError) as exc:
        raise DomainError(str(exc)) from exc


def _parse_angles(text: str) -> EulerAngles:
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError("--angles takes chi,theta,phi")
    try:
        chi, theta, phi = (parse_angle(p) for p in parts)
    except (NotOnUnitCircle, ValueError) as exc:
        raise DomainError(str(exc)) from exc
    return EulerAngles(chi, theta, phi)


def cmd_patterns(args) -> int:
    basis = basis_for(_parse_weight(args.weight))
    _emit(
        {
            "weight": str(basis.weight),
            "dimension": basis.dim,
            "order": CANONICAL_ORDER,
            "patterns": [str(p) for p in basis],
        }
    )
    return 0


def cmd_rep_matrix(args) -> int:
    if args.element not in ELEMENT_NAMES:
        raise DomainError(
            f"unknown element {args.element!r}; choose from {', '.join(ELEMENT_NAMES)}"
        )
    basis = basis_for(_parse_weight(args.weight))
    m = element_matrix(args.element, basis)
    _print_matrix(
        m, args.format, {"weight": str(basis.weight), "element": args.element}
    )
    return 0


def cmd_tau(args) -> int:
    basis = basis_for(_parse_weight(args.weight))
    _print_matrix(tau(basis), args.format, {"weight": str(basis.weight), "element": "tau"})
    return 0


def cmd_sigma(args) -> int:
    basis = basis_for(_parse_weight(args.weight))
    angles = _parse_angles(args.angles)
    mode = "exact" if angles.all_exact() else "float"
    if args.path == "formula":
        if mode != "exact":
            raise DomainError(
                "--path formula takes exact angles 's:c'; "
                "use --path product or --path oracle for rad= angles"
            )
        m = sigma_formula(angles, basis)
    elif args.path == "product":
        m = sigma_product(angles, basis)
    else:
        m = rho_oracle(np.array(rotation_matrix(angles), dtype=float), basis)
    header = {
        "weight": str(basis.weight),
        "angles": {
            "chi": str(angles.chi),
            "theta": str(angles.theta),
            "phi": str(angles.phi),
            "mode": mode,
        },
        "path": args.path,
    }
    _print_matrix(m, args.format, header)
    return 0


def cmd_polys(args) -> int:
    if args.action != "eval":
        raise DomainError("polys supports the 'eval' action")
    n = int(args.n)
    x = parse_rational(args.x)
    if args.family == "krawtchouk":
        if args.p is None or args.N is None:
            raise DomainError("krawtchouk needs --p and --N")
        params = KrawtchoukParams(parse_rational(args.p), int(args.N))
        value = krawtchouk(n, x, params)
        payload = {
            "family": "krawtchouk",
            "n": n,
            "x": format_rational(x),
            "p": format_rational(params.p),
            "N": params.N,
            "value": _format_value(value),
        }
    else:
        needed = (args.alpha, args.beta, args.gamma, args.delta)
        if any(v is None for v in needed):
            raise DomainError("racah needs --alpha --beta --gamma --delta")
        params = RacahParams(*(parse_rational(v) for v in needed))
        value = racah_tilde(n, x, params)
        payload = {
            "family": "racah",
            "n": n,
            "x": format_rational(x),
            "alpha": format_rational(params.alpha),
            "beta": format_rational(params.beta),
            "gamma": format_rational(params.gamma),
            "delta": format_rational(params.delta),
            "value": _format_value(value),
        }
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    reports = run_suites([args.suite], args.max_height, args.threads)
    all_pass = True
    for report in reports:
        for check in report.checks:
            print(check.line())
        print(report.summary())
        all_pass &= report.passed
    if args.format == "json":
        _emit([r.as_dict() for r in reports])
    return 0 if all_pass else 1


def cmd_hilbert(args) -> int:
    result = hilbert_series_two_ways(args.max_degree)
    _emit(result)
    return 0 if result["status"] == "PASS" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtrotor",
        description="Exact sl3 GT-basis irreps and SO(3) matrix elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("patterns", help="enumerate GT patterns of a weight")
    p.add_argument("--weight", required=True, help="comma-separated rationals, e.g. 1,0,-1")
    p.set_defaults(fn=cmd_patterns)

    p = sub.add_parser("rep-matrix", help="matrix of a represented element")
    p.add_argument("--weight", required=True)
    p.add_argument("--element", required=True, help="eij | C2 | C3 | J | Y | H | H1 | H2 | h | y")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_rep_matrix)

    p = sub.add_parser("tau", help="closed-form transition matrix for T")
    p.add_argument("--weight", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("sigma", help="change of basis for a general rotation")
    p.add_argument("--weight", required=True)
    p.add_argument(
        "--angles", required=True,
        help="chi,theta,phi with each angle 's:c' (exact) or 'rad=<float>'",
    )
    p.add_argument("--path", choices=("formula", "product", "oracle"), default="product")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("polys", help="evaluate a polynomial family")
    p.add_argument("action", choices=("eval",))
    p.add_argument("--family", choices=("krawtchouk", "racah"), required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--p")
    p.add_argument("--N")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--gamma")
    p.add_argument("--delta")
    p.set_defaults(fn=cmd_polys)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=("rep", "polys", "rotations", "bispectral", "racah-algebra", "hilbert", "all"),
        default="all",
    )
    p.add_argument("--max-height", type=int, default=4)
    p.add_argument("--threads", type=int, default=None,
                   help="defaults to GTROTOR_THREADS or the CPU count")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("hilbert", help="Hilbert-Poincare series both ways")
    p.add_argument("--max-degree", type=int, default=20)
    p.set_defaults(fn=cmd_hilbert)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError, SignCalibrationFailed) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
