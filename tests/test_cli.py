"""Report contract and CLI wiring."""

import json
import math

import pytest

from focklab import cli
from focklab.cli import main
from focklab.config import RunConfig
from focklab.quadrature import QuadratureSpec
from focklab.report import Report, ereal, run


CHECK_CONFIG = RunConfig(quadrature=QuadratureSpec(abs_tol=1e-9, rel_tol=1e-6))


def test_norm_report():
    report = run("norm", {"symbol": "1", "p": 2.0}, CHECK_CONFIG)
    assert abs(report.results["value"] - 1.0) < 1e-9
    assert report.results["error_estimate"] >= 0
    payload = json.loads(report.to_json())
    assert payload["schema"] == "focklab.report/1"


def test_classify_report_cites_rules_and_is_deterministic():
    options = {"psi": "1", "phi": "0.5,0", "p": 2.0, "q": 2.0}
    first = run("classify", options, CHECK_CONFIG)
    second = run("classify", options, CHECK_CONFIG)
    assert first.citations
    assert first.results["verdict"] == "Compact"
    assert first.results["norm_lower"] == {"value": 1.0, "finite": True}
    assert first.to_json() == second.to_json()


def test_infinite_values_serialized_with_flag():
    report = run("classify", {"psi": "1", "phi": "1,1", "p": 2.0, "q": 2.0}, CHECK_CONFIG)
    assert report.results["verdict"] == "Unbounded"
    assert report.results["norm_upper"] == {"value": "inf", "finite": False}
    assert json.loads(report.to_json())["results"]["norm_upper"]["finite"] is False


def test_ereal_encoding():
    assert ereal(1.5) == {"value": 1.5, "finite": True}
    assert ereal(float("inf")) == {"value": "inf", "finite": False}
    assert ereal(None) is None


def test_profile_csv():
    report = run("profile-m", {"psi": "1", "phi": "0.5,0", "radii": "2,4"}, CHECK_CONFIG)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "radius,annulus_sup"
    assert len(lines) == 3


def test_zero_symbol_rejected_at_operator_surface():
    from focklab.errors import ZeroSymbol

    with pytest.raises(ZeroSymbol):
        run("classify", {"psi": "0", "phi": "0.5,0", "p": 2.0, "q": 2.0}, CHECK_CONFIG)


def test_unknown_command_rejected():
    with pytest.raises(ValueError):
        run("nope", {}, CHECK_CONFIG)


def test_cli_exit_codes(capsys):
    assert main(["norm", "--symbol", "1", "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == "norm"

    # essential-norm hypothesis violation exits 2
    assert main(["essnorm", "--psi", "1", "--phi", "1,0", "--p", "0.5", "--q", "2"]) == 2

    # truncation tail cannot be controlled inside a tiny radius cap: exits 3
    assert main(["norm", "--symbol", "exp(4*z)", "--p", "2", "--max-radius", "6"]) == 3

    # |c|^p overflows but ||c||_p = |c| does not: the homogeneous norm is exact
    assert main(["norm", "--symbol", "exp(709.5)", "--p", "2"]) == 0
    value = json.loads(capsys.readouterr().out)["results"]["value"]
    assert math.isclose(value, math.exp(709.5), rel_tol=1e-12)
    # |c|^p is finite but p log|c| is past the scaling threshold
    assert main(["norm", "--symbol", "1.9", "--p", "1000"]) == 0
    value = json.loads(capsys.readouterr().out)["results"]["value"]
    assert math.isclose(value, 1.9, rel_tol=1e-12)
    # a norm, or a coefficient sum, beyond the float range exits 3 with one line
    for symbol in ("exp(709.7)*exp(z)", "exp(709.5)+exp(709.5)*z"):
        assert main(["norm", "--symbol", symbol, "--p", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["opnorm", "--psi", "1", "--phi", "0.5,0", "--p", "2", "--q", "2", "--matrix-order", "2"],
    ["path", "--kind", "weight", "--psi1", "1", "--psi2", "z", "--p", "2", "--q", "2"],
    ["path", "--kind", "weight", "--phi", "0.5,0", "--psi1", "1", "--p", "2", "--q", "2"],
    ["path", "--kind", "translate", "--b1", "0", "--p", "2", "--q", "2"],
    ["path", "--kind", "dilate", "--p", "2", "--q", "2"],
    ["path", "--kind", "translate", "--b1", "0", "--b2", "1", "--steps", "0", "--p", "2", "--q", "2"],
    # admissibility of tolerances, exponents, maps and symbol text
    ["norm", "--symbol", "1", "--p", "2", "--abs-tol", "0"],
    ["norm", "--symbol", "1", "--p", "2", "--rel-tol", "-1"],
    ["norm", "--symbol", "1", "--p", "0"],
    ["norm", "--symbol", "1", "--p", "nan"],
    ["classify", "--psi", "1", "--phi", "0.5,0", "--p", "inf", "--q", "2"],
    ["classify", "--psi", "1", "--phi", "2,0", "--p", "2", "--q", "2"],
    ["norm", "--symbol", "1e400", "--p", "2"],
    ["norm", "--symbol", "exp(800)", "--p", "2"],
    ["profile-m", "--psi", "1", "--phi", "0.5,0", "--radii", "0,abc"],
    ["norm", "--symbol", "(" * 3000 + "1" + ")" * 3000, "--p", "2"],
    # sizes past the documented caps
    ["opnorm", "--psi", "1", "--phi", "0.5,0", "--p", "2", "--q", "2", "--matrix-order", "100000000"],
    ["path", "--kind", "translate", "--b1", "0", "--b2", "1", "--steps", "100000000000",
     "--p", "1", "--q", "2"],
])
def test_cli_invalid_matrix_and_path_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


OP = ["--psi", "1", "--phi", "0.5,0", "--p", "2", "--q", "2"]
QUADRATURE = ["--abs-tol", "--rel-tol", "--max-radius"]
# per subcommand: its inputs and the settings its handler reads
SUBCOMMANDS = {
    "norm": (["--symbol", "1", "--p", "2"], QUADRATURE),
    "classify": (OP, QUADRATURE + ["--grid-radius"]),
    "opnorm": (OP, QUADRATURE + ["--grid-radius", "--matrix-order"]),
    "essnorm": (OP, []),
    "component": (OP, []),
    "diff": (["--psi1", "1", "--phi1", "0.5,0", "--psi2", "z", "--phi2", "0.5,0",
              "--p", "2", "--q", "2"], []),
    "isolated": (["--phi", "1,0", "--p", "2", "--q", "2"], []),
    "path": (["--kind", "dilate", "--phi", "0.5,0", "--p", "2", "--q", "2"],
             QUADRATURE + ["--matrix-order"]),
    "profile-m": (["--psi", "1", "--phi", "0.5,0"], []),
    "verify": (["--fast"], ["--seed"]),
}
SETTINGS = {"--abs-tol": "1e-9", "--rel-tol": "1e-6", "--max-radius": "30",
            "--grid-radius": "5", "--matrix-order": "16", "--seed": "7"}


def _settings(config: RunConfig) -> dict:
    return {"--abs-tol": config.quadrature.abs_tol, "--rel-tol": config.quadrature.rel_tol,
            "--max-radius": config.quadrature.max_radius, "--grid-radius": config.grid_radius,
            "--matrix-order": config.matrix_order, "--seed": config.seed}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_settings_reach_the_run_config(command, monkeypatch):
    inputs, reads = SUBCOMMANDS[command]
    seen = []

    def fake_run(name, options, config):
        seen.append(config)
        return Report(name, {}, {"failed": 0}, ())

    monkeypatch.setattr(cli, "run", fake_run)
    assert main([command, *inputs]) == 0
    assert seen.pop() == RunConfig()
    argv = [command, *inputs]
    for flag in reads:
        argv += [flag, SETTINGS[flag]]
    assert main(argv) == 0
    got = _settings(seen.pop())
    for flag in reads:
        assert got[flag] == float(SETTINGS[flag])


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_rejects_settings_its_handler_ignores(command):
    inputs, reads = SUBCOMMANDS[command]
    unread = [(flag, value) for flag, value in SETTINGS.items() if flag not in reads]
    if command not in ("path", "profile-m"):
        unread.append(("--format", "csv"))
    for flag, value in unread:
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, flag, value])
        assert exc.value.code == 2


def test_cli_csv_output(capsys):
    code = main(["profile-m", "--psi", "1", "--phi", "0.5,0", "--radii", "2,4",
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("radius,annulus_sup")


def test_path_report_rows():
    report = run("path", {"kind": "dilate", "phi": "0.5,0", "steps": 2, "p": 2.0, "q": 2.0},
                 CHECK_CONFIG)
    assert report.results["columns"] == ["t", "distance"]
    assert len(report.results["rows"]) == 2


def test_opnorm_report_fields():
    config = RunConfig(quadrature=CHECK_CONFIG.quadrature, matrix_order=32)
    report = run("opnorm", {"psi": "1", "phi": "0.5,0", "p": 2.0, "q": 2.0}, config)
    results = report.results
    assert results["theory_lower"]["value"] <= results["matrix_sigma"]["value"] * (1 + 1e-8)
    assert results["matrix_sigma"]["value"] <= results["theory_upper"]["value"]
    assert results["empirical_lower"]["value"] <= results["theory_upper"]["value"]
    assert report.citations

    # non-Hilbert exponents carry no matrix witness
    other = run("opnorm", {"psi": "1", "phi": "0.5,0", "p": 1.0, "q": 2.0}, CHECK_CONFIG)
    assert "matrix_sigma" not in other.results


def test_essnorm_report():
    report = run("essnorm", {"psi": "1", "phi": "1,0", "p": 2.0, "q": 2.0}, CHECK_CONFIG)
    assert report.results["ess_lower"] == {"value": 1.0, "finite": True}
    assert report.results["ess_upper"] == {"value": 2.0, "finite": True}
    assert "unit-modulus-essential-floor" in report.citations
    # the annulus scan lives in profile-m: no divergence evidence for the rotation
    profile = run("profile-m", {"psi": "1", "phi": "1,0"}, CHECK_CONFIG)
    assert not any(s > 1e12 for _, s in profile.results["rows"])


def test_diff_component_isolated_reports():
    diff = run("diff", {"psi1": "1", "phi1": "0.5,0", "psi2": "z+1", "phi2": "0.5,0",
                        "p": 2.0, "q": 2.0}, CHECK_CONFIG)
    assert diff.results["compact"] is True
    assert diff.results["reason"] == "SameSymbolVanishing"
    assert diff.citations

    component = run("component", {"psi": "1", "phi": "0.5,0", "p": 2.0, "q": 2.0},
                    CHECK_CONFIG)
    assert component.results["kind"] == "CompactBulk"
    assert component.results["leaf_key"] is None

    isolated = run("isolated", {"phi": "1,0", "p": 2.0, "q": 2.0}, CHECK_CONFIG)
    assert isolated.results["isolated"] is True
    assert isolated.citations
