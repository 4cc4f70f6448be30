"""Report contract and CLI wiring."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import focklab

from focklab import cli
from focklab import report as report_module
from focklab import symbols as sy
from focklab.cli import main
from focklab.config import RunConfig
from focklab.errors import FocklabError
from focklab.fock import magnitude_power_integrand
from focklab.parsing import parse_symbol
from focklab.quadrature import _LOG_RANGE, QuadratureSpec, gaussian_integral
from focklab.report import Report, ereal, run


CHECK_CONFIG = RunConfig(quadrature=QuadratureSpec(abs_tol=1e-9, rel_tol=1e-6))


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text: str):
    """json.loads that refuses the Infinity and NaN literals."""
    return json.loads(text, parse_constant=_reject)


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

    # truncation tail cannot be controlled inside a tiny radius cap: exits 3;
    # at even p the closed form needs no radius
    assert main(["norm", "--symbol", "exp(4*z)", "--p", "3", "--max-radius", "6"]) == 3
    assert main(["norm", "--symbol", "exp(4*z)", "--p", "2", "--max-radius", "6"]) == 0
    value = json.loads(capsys.readouterr().out)["results"]["value"]
    assert math.isclose(value, math.exp(8.0), rel_tol=1e-14)

    # |c|^p overflows but ||c||_p = |c| does not: the homogeneous norm is exact
    assert main(["norm", "--symbol", "exp(709.5)", "--p", "2"]) == 0
    value = json.loads(capsys.readouterr().out)["results"]["value"]
    assert math.isclose(value, math.exp(709.5), rel_tol=1e-12)
    # |c|^p is finite but p log|c| is past the scaling threshold
    assert main(["norm", "--symbol", "1.9", "--p", "1000"]) == 0
    value = json.loads(capsys.readouterr().out)["results"]["value"]
    assert math.isclose(value, 1.9, rel_tol=1e-12)
    # |c|^p underflows: the amplitude is divided out too, and where |f|^p
    # still underflows the engine integrates it in units of its peak
    z_norm = math.exp(math.lgamma(501.0) / 1000.0) * math.sqrt(2.0 / 1000.0)
    for c in (0.5, 0.3, 1e-300):
        assert main(["norm", "--symbol", f"{c!r}*z", "--p", "1000"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert abs(results["value"] - c * z_norm) <= results["error_estimate"]
        assert results["error_estimate"] <= 1e-9 * c * z_norm
    # 0.3 Gamma(501)^{1/1000} (2/1000)^{1/2}, whose integrand peaks near e^-1011
    assert main(["norm", "--symbol", "0.3*z", "--p", "1000"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert abs(results["value"] - 0.18269331705147168) <= results["error_estimate"] + 8 * 2.0**-52
    # a norm, or a coefficient sum, beyond the float range exits 3 with one line
    for symbol in ("exp(709.7)*exp(z)", "exp(709.5)+exp(709.5)*z",
                   "exp(1e308*z) + exp(((0-0.5)*1e308+1.5e308i)*z)"):
        assert main(["norm", "--symbol", symbol, "--p", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # exp(conj(w) b) overflows while the operator maps a kernel: exit 3, not 2
    assert main(["opnorm", "--psi", "1", "--phi", "0.5,1e200", "--p", "2", "--q", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # overflowing annulus suprema are ereal objects, so the report stays JSON
    assert main(["profile-m", "--psi", "1", "--phi", "0.5,1e200", "--radii", "2,4"]) == 0
    rows = strict_json(capsys.readouterr().out)["results"]["rows"]
    assert rows == [[2.0, ereal(math.inf)], [4.0, ereal(math.inf)]]


def _run_cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI as a process, so that any numpy warning reaches stderr as for a user."""
    src = str(Path(focklab.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", "import sys; from focklab.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})


def test_cli_matrix_overflow_prints_one_line():
    # sqrt(k!) overflows in the matrix build (opnorm reaches it after its
    # empirical norm, whose p = 2 norms the exact route sums in closed form)
    weight = ["--phi", "0.5,0", "--p", "2", "--q", "2", "--matrix-order", "256"]
    for argv in (["path", "--kind", "weight", "--psi1", "z^50", "--psi2", "1", "--steps", "1"],
                 ["opnorm", "--psi", "z^50"]):
        done = _run_cli_process([*argv, *weight])
        assert done.returncode == 3
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    # b^j overflows in the matrix build's column powers
    (["opnorm", "--psi", "1", "--phi", "0,1e6", "--p", "2", "--q", "2"], 3),
    (["path", "--kind", "translate", "--b1", "0", "--b2", "1e6", "--p", "2", "--q", "2",
      "--steps", "2"], 3),
    # the gauge's search radius is inf, so its polar grid holds nan
    (["classify", "--psi", "exp(-7e307i*z)", "--phi", "0.5,0", "--p", "2", "--q", "2"], 2),
    (["profile-m", "--psi", "1", "--phi", "0.99999999,1e305", "--radii", "2"], 0),
])
def test_cli_overflow_prints_no_numpy_warning(argv, code):
    done = _run_cli_process(argv)
    assert done.returncode == code
    if code:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    else:
        assert done.stderr == ""


def test_overflowing_sum_exits_2_like_an_overflowing_product(capsys):
    # 1e308 + 1e308 overflows: the sum is refused, not read as the zero function
    line = "error: coefficient must have finite real and imaginary parts, got (inf+0j)\n"
    assert main(["norm", "--symbol", "1e300*1e300*z", "--p", "2"]) == 2
    assert capsys.readouterr().err == line
    assert main(["norm", "--symbol", "1e308*z + 1e308*z", "--p", "2"]) == 2
    assert capsys.readouterr().err == line
    assert main(["classify", "--psi", "1e308*z+1e308*z", "--phi", "0.5,0", "--p", "2", "--q", "2"]) == 2
    assert capsys.readouterr().err == line


def test_opnorm_on_a_constant_map_reads_the_rank_one_norm(monkeypatch):
    # f -> psi f(b) has rank one and norm e^{|b|^2/2} ||psi||_q, and
    # ||c e^{dz}||_q = |c| e^{|d|^2/2} for every q
    monkeypatch.setattr(report_module, "empirical_norm", None)  # the family is not run
    options = {"psi": "(1+2i)*exp((0.5-1i)*z)", "phi": "0,0.5", "p": 3.0, "q": 1.5}
    factor = math.exp(0.5**2 / 2.0)
    exact = factor * abs(1 + 2j) * math.exp(abs(0.5 - 1j) ** 2 / 2.0)
    lower = run("opnorm", options, RunConfig()).results["empirical_lower"]["value"]
    estimate = run("norm", {"symbol": options["psi"], "p": 1.5}, RunConfig()).results["error_estimate"]
    assert exact - 2.0 * factor * estimate - 8 * math.ulp(exact) <= lower <= exact + 8 * math.ulp(exact)
    # a weight without a closed form took seconds through the family
    start = time.perf_counter()
    run("opnorm", dict(options, psi="(1+2i)*z^2*exp((0.5-1i)*z)+3"), RunConfig())
    assert time.perf_counter() - start < 1.0


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
    # non-finite cells print as bare inf, as before they were JSON objects
    assert main(["profile-m", "--psi", "1", "--phi", "0.5,1e200", "--radii", "2,4",
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == "radius,annulus_sup\n2.0,inf\n4.0,inf\n"


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


_unit = st.floats(-1.0, 1.0)
_rate = st.floats(-1.0, 1.0)
# a term exp(x) (re + im i) z^d exp((u + v i) z): coefficients up to e^709
_term = st.tuples(st.floats(-5.0, 709.0), _unit, _unit, st.integers(0, 3), _rate, _rate)


def _symbol_text(terms) -> str:
    return " + ".join(f"exp({x!r})*({re!r}+({im!r})*i)*z^{d}*exp(({u!r}+({v!r})*i)*z)"
                      for x, re, im, d, u, v in terms)


def _map_text(modulus: float, angle: float, b_re: float, b_im: float) -> str:
    a = modulus * complex(math.cos(angle), math.sin(angle))
    return f"{a.real!r}{a.imag:+.17g}i,{b_re!r}{b_im:+.17g}i"


def _contract_results(argv: list[str]) -> dict | None:
    """Run the command under the exit contract: a documented exit code, and
    either one stderr line or a strict JSON report and an empty stderr; returns
    the report's results.  A warning would reach a user's stderr, so every
    one counts against the contract: "always" shows it in each example, where
    Python shows it once per process, and it is recorded because the test
    runner takes warnings off stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return None
    assert err.getvalue() == ""
    return strict_json(out.getvalue())["results"]


def _engine_norm(f, p: float) -> tuple[float, float]:
    """The quadrature engine alone, inside fock_norm's amplitude scaling."""
    amp = sy.envelope_majorant(f)[0]
    exponent = max(math.ceil(math.log2(amp)), -1023) if abs(p * math.log(amp)) > _LOG_RANGE else 0
    res = gaussian_integral(magnitude_power_integrand(sy.scale(f, 2.0**-exponent), p), p)
    value = res.value ** (1.0 / p)
    return math.ldexp(value, exponent), math.ldexp(value * res.error_estimate / (p * res.value), exponent)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(_term, min_size=1, max_size=3),
       st.sampled_from([2.0, 4.0, 6.0, 0.5, 1.5, 2.5, 1000.0]))
def test_norm_command_exit_contract(terms, p):
    text = _symbol_text(terms)
    results = _contract_results(["norm", "--symbol", text, "--p", repr(p)])
    if results is None:
        return
    f = parse_symbol(text)
    if p > 6.0 or p % 2.0 or f.is_zero:
        return
    try:
        value, estimate = _engine_norm(f, p)
    except (FocklabError, OverflowError, ZeroDivisionError):
        return  # the engine does not return here; the exact route did
    slack = results["error_estimate"] + estimate + 8 * math.ulp(value)
    assert abs(results["value"] - value) <= slack


_slope = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.2))
_shift = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([1e200]))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(_term, min_size=1, max_size=2), _slope, st.floats(-math.pi, math.pi),
       _shift, _shift, st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_classify_command_exit_contract(terms, modulus, angle, b_re, b_im, p, q):
    results = _contract_results(["classify", "--psi", _symbol_text(terms),
                                 "--phi", _map_text(modulus, angle, b_re, b_im),
                                 "--p", repr(p), "--q", repr(q)])
    assert results is None or results["verdict"]


_exponent = st.sampled_from([0.5, 1.0, 2.0, 3.0])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(_term, min_size=1, max_size=2), _slope, st.floats(-math.pi, math.pi),
       _shift, _shift, _exponent, _exponent, st.booleans())
def test_opnorm_command_exit_contract(terms, modulus, angle, b_re, b_im, p, q, small):
    # q < p half the time, where the bound is the plane norm of the gauge
    if small and p <= q:
        p, q = q + 1.0, p
    results = _contract_results(["opnorm", "--psi", _symbol_text(terms),
                                 "--phi", _map_text(modulus, angle, b_re, b_im),
                                 "--p", repr(p), "--q", repr(q), "--matrix-order", "16"])
    assert results is None or results["theory_upper"]


# slopes just below 1 put the inputs at overflow scale (the gauge's log peak
# |rate|^2 / (2 (1 - |a|^2)) passes the float range); component and diff decide
# symbolically, so these check that their decisions keep the contract there
_slope_near_one = st.one_of(_slope, st.sampled_from([0.999, 0.999999]), st.floats(0.99, 1.0))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(_term, min_size=1, max_size=2), _slope_near_one, st.floats(-math.pi, math.pi),
       _shift, _shift, _exponent, _exponent)
def test_component_command_exit_contract(terms, modulus, angle, b_re, b_im, p, q):
    results = _contract_results(["component", "--psi", _symbol_text(terms),
                                 "--phi", _map_text(modulus, angle, b_re, b_im),
                                 "--p", repr(p), "--q", repr(q)])
    assert results is None or results["kind"]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(_term, min_size=1, max_size=2), _slope_near_one, st.floats(-math.pi, math.pi),
       st.lists(_term, min_size=1, max_size=2), _slope, st.floats(-math.pi, math.pi),
       _shift, _exponent, _exponent)
def test_diff_command_exit_contract(terms1, modulus1, angle1, terms2, modulus2, angle2, b,
                                    p, q):
    results = _contract_results(["diff", "--psi1", _symbol_text(terms1),
                                 "--phi1", _map_text(modulus1, angle1, b, 0.0),
                                 "--psi2", _symbol_text(terms2),
                                 "--phi2", _map_text(modulus2, angle2, 0.0, b),
                                 "--p", repr(p), "--q", repr(q)])
    assert results is None or isinstance(results["compact"], bool)


# the bracket needs 1 < p <= q
_ordered_exponents = st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]), min_size=2,
                              max_size=2).map(sorted)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(_term, min_size=1, max_size=2), _slope_near_one, st.floats(-math.pi, math.pi),
       _shift, _shift, _ordered_exponents)
def test_essnorm_command_exit_contract(terms, modulus, angle, b_re, b_im, exponents):
    p, q = exponents
    results = _contract_results(["essnorm", "--psi", _symbol_text(terms),
                                 "--phi", _map_text(modulus, angle, b_re, b_im),
                                 "--p", repr(p), "--q", repr(q)])
    assert results is None or results["ess_lower"]["value"] <= results["ess_upper"]["value"]


# a shift of 1e6 or 1e200 overflows the matrix build; q = 4 leaves the
# matrix route for the family sweep, whose even-q norms are closed-form sums
@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(["dilate", "translate", "weight"]), st.lists(_term, min_size=1, max_size=2),
       st.lists(_term, min_size=1, max_size=2), _slope, st.floats(-math.pi, math.pi),
       st.floats(-3.0, 3.0), st.one_of(st.floats(-3.0, 3.0), st.sampled_from([1e6, 1e200])),
       st.integers(1, 3), st.sampled_from([2.0, 4.0]))
def test_path_command_exit_contract(kind, terms1, terms2, modulus, angle, b1, b2, steps, q):
    argv = ["path", "--kind", kind, "--steps", str(steps), "--p", "2", "--q", repr(q),
            "--matrix-order", "16"]
    if kind == "translate":
        argv += ["--b1", repr(b1), "--b2", repr(b2)]
    else:
        argv += ["--phi", _map_text(modulus, angle, b1, b2)]
    if kind == "weight":
        argv += ["--psi1", _symbol_text(terms1), "--psi2", _symbol_text(terms2)]
    results = _contract_results(argv)
    assert results is None or len(results["rows"]) == steps


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(_term, min_size=1, max_size=2), _slope_near_one, st.floats(-math.pi, math.pi),
       _shift, _shift, st.sampled_from([None, "0,2", "1e300"]))
def test_profile_m_command_exit_contract(terms, modulus, angle, b_re, b_im, radii):
    argv = ["profile-m", "--psi", _symbol_text(terms),
            "--phi", _map_text(modulus, angle, b_re, b_im)]
    if radii is not None:
        argv += ["--radii", radii]
    results = _contract_results(argv)
    assert results is None or results["symbolic_sup"]


def test_cli_reads_values_that_start_with_a_dash(capsys):
    argv = ["classify", "--psi", "-1", "--p", "2", "--q", "2"]
    assert main([*argv, "--phi", "-0.5,0"]) == 0
    spaced = capsys.readouterr().out
    assert main([*argv, "--phi=-0.5,0"]) == 0
    assert capsys.readouterr().out == spaced
    # a flag still does not take another flag as its value
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--psi", "1", "--phi", "--p", "2", "--q", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "error: argument --phi: expected one argument\n"
