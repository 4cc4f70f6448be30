"""Command-line front end.

Exit codes: 0 on success, 2 when a hypothesis or admissibility condition is
violated, 3 on numeric failure (including failed verification checks).
"""

from __future__ import annotations

import argparse
import sys

from .config import RunConfig
from .errors import FocklabError
from .quadrature import QuadratureSpec
from .report import Report, run


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--abs-tol", type=float, default=1e-10)
    parser.add_argument("--rel-tol", type=float, default=1e-8)
    parser.add_argument("--max-radius", type=float, default=40.0)
    parser.add_argument("--grid-radius", type=float, default=6.0)
    parser.add_argument("--matrix-order", type=int, default=64)


def _add_operator_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--psi", required=True, help="weight symbol, e.g. '(1+0i)*exp((0.5-1i)*z)'")
    parser.add_argument("--phi", required=True, help="affine map as 'a,b' with complex literals")
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--q", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Classify and measure weighted composition operators between Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="Fock norm of a symbol")
    p_norm.add_argument("--symbol", required=True)
    p_norm.add_argument("--p", type=float, required=True)
    _add_common(p_norm)

    for name in ("classify", "opnorm", "essnorm", "component"):
        sp = sub.add_parser(name)
        _add_operator_args(sp)
        _add_common(sp)

    p_diff = sub.add_parser("diff", help="compactness of the difference of two operators")
    p_diff.add_argument("--psi1", required=True)
    p_diff.add_argument("--phi1", required=True)
    p_diff.add_argument("--psi2", required=True)
    p_diff.add_argument("--phi2", required=True)
    p_diff.add_argument("--p", type=float, required=True)
    p_diff.add_argument("--q", type=float, required=True)
    _add_common(p_diff)

    p_iso = sub.add_parser("isolated", help="isolation of a composition operator")
    p_iso.add_argument("--phi", required=True)
    p_iso.add_argument("--p", type=float, required=True)
    p_iso.add_argument("--q", type=float, required=True)
    _add_common(p_iso)

    p_path = sub.add_parser("path", help="increment profile along a connecting path")
    p_path.add_argument("--kind", choices=("dilate", "translate", "weight"), required=True)
    p_path.add_argument("--steps", type=int, default=8)
    p_path.add_argument("--phi")
    p_path.add_argument("--psi1")
    p_path.add_argument("--psi2")
    p_path.add_argument("--b1")
    p_path.add_argument("--b2")
    p_path.add_argument("--p", type=float, required=True)
    p_path.add_argument("--q", type=float, required=True)
    _add_common(p_path)

    p_prof = sub.add_parser("profile-m", help="annulus suprema of the gauge")
    p_prof.add_argument("--psi", required=True)
    p_prof.add_argument("--phi", required=True)
    p_prof.add_argument("--radii", default="2,4,8,16,32,64,128,256,512,1024")
    _add_common(p_prof)

    p_verify = sub.add_parser("verify", help="run the acceptance check suite")
    p_verify.add_argument("--fast", action="store_true", help="reduced sample counts")
    _add_common(p_verify)

    return parser


def _emit(report: Report, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(report.to_csv())
    elif fmt == "text":
        sys.stdout.write(report.to_text())
    else:
        print(report.to_json())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    options = {k: v for k, v in vars(args).items() if v is not None}
    command = options.pop("command")
    fmt = options.pop("format")
    try:
        config = RunConfig(
            quadrature=QuadratureSpec(
                abs_tol=options.pop("abs_tol"),
                rel_tol=options.pop("rel_tol"),
                max_radius=options.pop("max_radius"),
            ),
            matrix_order=options.pop("matrix_order", 64),
            grid_radius=options.pop("grid_radius", 6.0),
            seed=options.pop("seed", 0),
        )
        report = run(command, options, config)
    except FocklabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    _emit(report, fmt)
    if command == "verify" and report.results["failed"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
