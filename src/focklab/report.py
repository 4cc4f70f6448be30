"""Machine-readable reports over all subcommands.

Reports are schema-stable JSON (``focklab.report/1``): identical inputs and
seed produce byte-identical output.  Extended reals are encoded as
``{"value": <number or "inf">, "finite": <bool>}`` since JSON has no
infinity literal; complex scalars as ``{"re": ..., "im": ...}``.  CSV output
exists for the two tabular commands (``profile-m`` and ``path``), whose
row cells are plain numbers unless not finite.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from . import symbols
from .config import RunConfig
from .criteria import (
    ANNULUS_RADII,
    RULE_EMPIRICAL_LOWER,
    RULE_ESS_BRACKET,
    RULE_ESS_UNIT,
    Verdict,
    annulus_sups,
    classify,
    essential_norm_bracket,
    gauge_profile,
)
from .fock import NormValue, fock_norm
from .operators import (
    FamilySpec,
    WeightedCompositionOperator,
    empirical_norm,
    f2_matrix,
    matrix_sigma_max,
)
from .parsing import parse_affine, parse_complex, parse_radii, parse_symbol, render
from .symbols import AffineMap
from .topology import (
    RULE_COMPONENTS,
    RULE_DIFF_BOTH_COMPACT,
    RULE_DIFF_SAME_MAP,
    RULE_FULL_CONNECTED,
    RULE_ISOLATION,
    DifferenceReason,
    ComponentKind,
    compact_difference,
    component_id,
    is_isolated,
    path_profile,
)
from .verification import run_all

SCHEMA = "focklab.report/1"


@dataclass(frozen=True)
class Report:
    command: str
    inputs: dict[str, Any]
    results: dict[str, Any]
    citations: tuple[str, ...]
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "citations": list(self.citations),
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        rows = self.results.get("rows")
        if rows is None:
            raise ValueError(f"command {self.command!r} has no CSV form")
        header = self.results["columns"]
        lines = [",".join(header)]
        # a non-finite cell is ereal's object in JSON and a bare inf here
        lines += [",".join(repr(float(x["value"] if isinstance(x, dict) else x)) for x in row)
                  for row in rows]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.results.items():
            lines.append(f"{key}: {value}")
        if self.citations:
            lines.append("citations: " + ", ".join(self.citations))
        return "\n".join(lines) + "\n"


def ereal(x: float | None) -> Any:
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return {"value": "inf" if x > 0 else "-inf", "finite": False}
    return {"value": x, "finite": True}


def _cell(x: float) -> Any:
    """A table cell: a plain number, or ``ereal``'s object when not finite."""
    return x if math.isfinite(x) else ereal(x)


def _complex(z: complex | None) -> Any:
    if z is None:
        return None
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _map(phi: AffineMap) -> dict[str, Any]:
    return {"a": _complex(phi.a), "b": _complex(phi.b)}


def _operator_inputs(op: WeightedCompositionOperator) -> dict[str, Any]:
    return {"psi": render(op.psi), "phi": _map(op.phi), "p": op.p, "q": op.q}


def _operator(options: dict[str, Any], psi_key: str = "psi",
              phi_key: str = "phi") -> WeightedCompositionOperator:
    psi = parse_symbol(options[psi_key])
    phi = parse_affine(options[phi_key])
    return WeightedCompositionOperator(psi, phi, float(options["p"]), float(options["q"]))


def _handle_norm(options, config: RunConfig) -> Report:
    f = parse_symbol(options["symbol"])
    p = float(options["p"])
    diagnostics: dict[str, Any] = {}
    if f.is_zero:
        diagnostics["warning"] = "symbol is identically zero"
    nv = fock_norm(f, p, config.quadrature)
    diagnostics["error_estimate"] = nv.error_estimate
    diagnostics["truncation_radius"] = nv.truncation_radius
    return Report(
        "norm",
        {"symbol": render(f), "p": p},
        {"value": nv.value, "error_estimate": nv.error_estimate},
        (),
        diagnostics,
    )


def _handle_classify(options, config: RunConfig) -> Report:
    op = _operator(options)
    c = classify(op, config.quadrature, FamilySpec(kernel_radius=config.grid_radius))
    results = {
        "verdict": c.verdict.value,
        "witness_direction": _complex(c.witness),
        "norm_lower": ereal(c.norm_lower),
        "norm_upper": ereal(c.norm_upper),
        "ess_lower": ereal(c.ess_lower),
        "ess_upper": ereal(c.ess_upper),
        "ls_norm": ereal(c.ls_norm),
    }
    return Report(
        "classify",
        _operator_inputs(op),
        results,
        c.rules,
    )


def _rank_one_lower(b: complex, weight_norm: NormValue) -> float:
    """e^{|b|^2/2} (||psi||_q - estimate) for a = 0: the operator f -> psi f(b)
    has rank one, and the kernel at b attains its norm e^{|b|^2/2} ||psi||_q.

    The product is taken in logs, since e^{|b|^2/2} alone can overflow;
    past the float range float_info.max stays a lower bound."""
    lower = weight_norm.lower
    if lower <= 0.0:
        return 0.0
    log_value = symbols.square(abs(b)) / 2.0 + math.log(lower)
    return min(symbols.safe_exp(log_value), sys.float_info.max)


def _handle_opnorm(options, config: RunConfig) -> Report:
    op = _operator(options)
    family = FamilySpec(kernel_radius=config.grid_radius)
    c = classify(op, config.quadrature, family)
    if op.phi.is_constant_map:
        empirical = _rank_one_lower(op.phi.b, c.weight_norm)
    elif c.verdict is Verdict.UNBOUNDED or RULE_EMPIRICAL_LOWER in c.rules:
        # classify's lower side already is the answer: inf for an unbounded
        # operator, and for compact q < p this family's empirical norm
        empirical = c.norm_lower
    else:
        empirical = empirical_norm(op, family, config.quadrature)
    results: dict[str, Any] = {
        "empirical_lower": ereal(empirical),
        "theory_lower": ereal(c.norm_lower),
        "theory_upper": ereal(c.norm_upper),
    }
    diagnostics: dict[str, Any] = {}
    if op.p == 2.0 and op.q == 2.0:
        matrix = f2_matrix(op, config.matrix_order, check_tail=False)
        results["matrix_sigma"] = ereal(matrix_sigma_max(matrix))
        diagnostics["matrix_order"] = config.matrix_order
        diagnostics["max_column_tail_fraction"] = max(matrix.column_tail_fractions)
    return Report(
        "opnorm",
        _operator_inputs(op),
        results,
        c.rules,
        diagnostics,
    )


def _handle_essnorm(options, config: RunConfig) -> Report:
    op = _operator(options)
    lo, hi = essential_norm_bracket(op)
    rules = [RULE_ESS_BRACKET]
    if op.phi.is_unit_modulus:
        rules.append(RULE_ESS_UNIT)
    return Report(
        "essnorm",
        _operator_inputs(op),
        {"ess_lower": ereal(lo), "ess_upper": ereal(hi)},
        tuple(rules),
    )


def _handle_diff(options, config: RunConfig) -> Report:
    first = _operator(options, "psi1", "phi1")
    second = _operator(options, "psi2", "phi2")
    verdict = compact_difference(first, second)
    if verdict.reason is DifferenceReason.BOTH_COMPACT:
        rules = (RULE_DIFF_BOTH_COMPACT,)
    elif verdict.reason is DifferenceReason.SAME_SYMBOL_VANISHING:
        rules = (RULE_DIFF_SAME_MAP,)
    else:
        rules = (RULE_DIFF_BOTH_COMPACT, RULE_DIFF_SAME_MAP)
    return Report(
        "diff",
        {"psi1": render(first.psi), "phi1": _map(first.phi),
         "psi2": render(second.psi), "phi2": _map(second.phi), "p": first.p, "q": first.q},
        {"compact": verdict.compact, "reason": verdict.reason.value, "detail": verdict.detail},
        rules,
    )


def _handle_component(options, config: RunConfig) -> Report:
    op = _operator(options)
    cid = component_id(op)
    rule = RULE_FULL_CONNECTED if cid.kind is ComponentKind.ALL_CONNECTED else RULE_COMPONENTS
    return Report(
        "component",
        _operator_inputs(op),
        {"kind": cid.kind.value,
         "leaf_key": None if cid.leaf_key is None else
         {"a": _complex(cid.leaf_key[0]), "b": _complex(cid.leaf_key[1])}},
        (rule,),
    )


def _handle_isolated(options, config: RunConfig) -> Report:
    phi = parse_affine(options["phi"])
    p, q = float(options["p"]), float(options["q"])
    return Report(
        "isolated",
        {"phi": _map(phi), "p": p, "q": q},
        {"isolated": is_isolated(phi, p, q)},
        (RULE_ISOLATION,),
    )


def _handle_path(options, config: RunConfig) -> Report:
    kind = options["kind"]
    steps = int(options.get("steps", 8))
    kwargs: dict[str, Any] = {
        "steps": steps,
        "p": float(options["p"]),
        "q": float(options["q"]),
        "spec": config.quadrature,
        "matrix_order": config.matrix_order,
    }
    inputs: dict[str, Any] = {"kind": kind, "steps": steps, "p": kwargs["p"], "q": kwargs["q"]}
    # a missing endpoint reaches path_profile as None, which rejects it
    if kind == "translate":
        for key in ("b1", "b2"):
            if key in options:
                kwargs[key] = parse_complex(options[key])
                inputs[key] = _complex(kwargs[key])
    elif "phi" in options:
        kwargs["phi"] = parse_affine(options["phi"])
        inputs["phi"] = _map(kwargs["phi"])
    if kind == "weight":
        for key in ("psi1", "psi2"):
            if key in options:
                kwargs[key] = parse_symbol(options[key])
                inputs[key] = render(kwargs[key])
    profile = path_profile(kind, **kwargs)
    return Report(
        "path",
        inputs,
        {"columns": ["t", "distance"], "rows": [[t, _cell(d)] for t, d in profile]},
        (RULE_COMPONENTS,),
    )


def _handle_profile_m(options, config: RunConfig) -> Report:
    psi = parse_symbol(options["psi"])
    phi = parse_affine(options["phi"])
    radii = parse_radii(options["radii"]) if "radii" in options else ANNULUS_RADII
    profile = gauge_profile(psi, phi)
    return Report(
        "profile-m",
        {"psi": render(psi), "phi": _map(phi), "radii": list(radii)},
        {"columns": ["radius", "annulus_sup"],
         "rows": [[r, _cell(s)] for r, s in annulus_sups(psi, phi, radii)],
         "symbolic_sup": ereal(profile.symbolic_sup),
         "symbolic_limsup": ereal(profile.symbolic_limsup)},
        (),
    )


def _handle_verify(options, config: RunConfig) -> Report:
    results = run_all(seed=config.seed, fast=bool(options.get("fast")))
    passed = sum(1 for r in results if r.passed)
    return Report(
        "verify",
        {"seed": config.seed, "fast": bool(options.get("fast"))},
        {"passed": passed, "failed": len(results) - passed,
         "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]},
        (),
    )


_HANDLERS: dict[str, Callable[[dict[str, Any], RunConfig], Report]] = {
    "norm": _handle_norm,
    "classify": _handle_classify,
    "opnorm": _handle_opnorm,
    "essnorm": _handle_essnorm,
    "diff": _handle_diff,
    "component": _handle_component,
    "isolated": _handle_isolated,
    "path": _handle_path,
    "profile-m": _handle_profile_m,
    "verify": _handle_verify,
}


def run(command: str, options: dict[str, Any], config: RunConfig | None = None) -> Report:
    """Execute one subcommand; deterministic given options and config.seed."""
    if command not in _HANDLERS:
        raise ValueError(f"unknown command {command!r}; expected one of {tuple(_HANDLERS)}")
    return _HANDLERS[command](options, config or RunConfig())
