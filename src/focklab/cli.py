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

# the settings each handler reads, by subcommand; an unset one keeps the
# default of QuadratureSpec or RunConfig
_QUADRATURE = ("abs_tol", "rel_tol", "max_radius")
_RUN = ("matrix_order", "grid_radius", "seed")
_TYPES = {"matrix_order": int, "seed": int}
_SETTINGS = {
    "norm": _QUADRATURE,
    "classify": _QUADRATURE + ("grid_radius",),
    "opnorm": _QUADRATURE + ("grid_radius", "matrix_order"),
    "path": _QUADRATURE + ("matrix_order",),
    "verify": ("seed",),
}
_TABULAR = ("path", "profile-m")


class _Parser(argparse.ArgumentParser):
    """argparse, except that a flag taking a value takes the next token even
    when it starts with '-' (a map such as -0.5,0), and that a usage error
    is one ``error:`` line on stderr with exit code 2."""

    def parse_known_args(self, args=None, namespace=None):
        flags = self._option_string_actions
        joined: list[str] = []
        for token in sys.argv[1:] if args is None else args:
            action = flags.get(joined[-1]) if joined else None
            if action is not None and action.nargs is None and token not in flags:
                joined[-1] += "=" + token
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _add_operator_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--psi", required=True, help="weight symbol, e.g. '(1+0i)*exp((0.5-1i)*z)'")
    parser.add_argument("--phi", required=True, help="affine map as 'a,b' with complex literals")
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--q", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="focklab",
        description="Classify and measure weighted composition operators between Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="Fock norm of a symbol")
    p_norm.add_argument("--symbol", required=True)
    p_norm.add_argument("--p", type=float, required=True)

    for name in ("classify", "opnorm", "essnorm", "component"):
        _add_operator_args(sub.add_parser(name))

    p_diff = sub.add_parser("diff", help="compactness of the difference of two operators")
    p_diff.add_argument("--psi1", required=True)
    p_diff.add_argument("--phi1", required=True)
    p_diff.add_argument("--psi2", required=True)
    p_diff.add_argument("--phi2", required=True)
    p_diff.add_argument("--p", type=float, required=True)
    p_diff.add_argument("--q", type=float, required=True)

    p_iso = sub.add_parser("isolated", help="isolation of a composition operator")
    p_iso.add_argument("--phi", required=True)
    p_iso.add_argument("--p", type=float, required=True)
    p_iso.add_argument("--q", type=float, required=True)

    p_path = sub.add_parser("path", help="increment profile along a connecting path")
    p_path.add_argument("--kind", choices=("dilate", "translate", "weight"), required=True)
    p_path.add_argument("--steps", type=int)
    p_path.add_argument("--phi")
    p_path.add_argument("--psi1")
    p_path.add_argument("--psi2")
    p_path.add_argument("--b1")
    p_path.add_argument("--b2")
    p_path.add_argument("--p", type=float, required=True)
    p_path.add_argument("--q", type=float, required=True)

    p_prof = sub.add_parser("profile-m", help="annulus suprema of the gauge")
    p_prof.add_argument("--psi", required=True)
    p_prof.add_argument("--phi", required=True)
    p_prof.add_argument("--radii", help="comma-separated radii (default 2,4,...,1024)")

    p_verify = sub.add_parser("verify", help="run the acceptance check suite")
    p_verify.add_argument("--fast", action="store_true", help="reduced sample counts")

    for name, sp in sub.choices.items():
        for key in _SETTINGS.get(name, ()):
            sp.add_argument("--" + key.replace("_", "-"), type=_TYPES.get(key, float))
        formats = ("json", "csv", "text") if name in _TABULAR else ("json", "text")
        sp.add_argument("--format", choices=formats, default="json")
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
        quadrature = QuadratureSpec(**{k: options.pop(k) for k in _QUADRATURE if k in options})
        config = RunConfig(quadrature, **{k: options.pop(k) for k in _RUN if k in options})
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
