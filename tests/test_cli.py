"""Report contract and CLI wiring."""

import json

import pytest

from focklab.cli import main
from focklab.config import RunConfig
from focklab.quadrature import QuadratureSpec
from focklab.report import ereal, run


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


@pytest.mark.parametrize("argv", [
    ["opnorm", "--psi", "1", "--phi", "0.5,0", "--p", "2", "--q", "2", "--matrix-order", "2"],
    ["path", "--kind", "weight", "--psi1", "1", "--psi2", "z", "--p", "2", "--q", "2"],
    ["path", "--kind", "weight", "--phi", "0.5,0", "--psi1", "1", "--p", "2", "--q", "2"],
    ["path", "--kind", "translate", "--b1", "0", "--p", "2", "--q", "2"],
    ["path", "--kind", "dilate", "--p", "2", "--q", "2"],
    ["path", "--kind", "translate", "--b1", "0", "--b2", "1", "--steps", "0", "--p", "2", "--q", "2"],
])
def test_cli_invalid_matrix_and_path_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    report = run("opnorm", {"psi": "1", "phi": "0.5,0", "p": 2.0, "q": 2.0,
                            "matrix_order": 32}, CHECK_CONFIG)
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
