"""The benchmark's own test: generators, oracles and tracer at a small size.

    python3 -m pytest perfbench -q

Runs one round of every workload (without its heaviest operations) through
focklab and shows that the checks pass on correct output, flag wrong output
and flag both known program faults.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import oracles
import run
from tracer import LayerTracer

sys.path.insert(0, str(run.SOURCE))


@pytest.fixture(scope="module")
def fl():
    return run.import_focklab()


def _light(ops):
    """Drop the q < p component queries (seconds each) and the fault cases."""
    return [op for op in ops if op.fault is None
            and not (op.kind == "component" and op.args["q"] < op.args["p"])]


def _tally(fl, ops):
    tally = run.Tally()
    run.run_ops(fl, ops, tally)
    return tally


def test_rounds_are_a_function_of_seed_and_round():
    for workload in inputs.WORKLOADS:
        first = inputs.round_ops(workload, 7, 0)
        assert first == inputs.round_ops(workload, 7, 0)
        # every round has the same make-up, with fresh random inputs; the
        # fixed fault cases alternate between rotations of one case
        later = inputs.round_ops(workload, 7, 1)
        assert ([(op.kind, op.fault) for op in first if op.fault is None]
                == [(op.kind, op.fault) for op in later if op.fault is None])
        assert ([op.fault for op in first if op.fault]
                == [op.fault for op in later if op.fault])
        seen = [str(op.args) for r in range(4) for op in inputs.round_ops(workload, 7, r)
                if op.fault is None]
        assert len(seen) == len(set(seen))
        assert inputs.round_ops(workload, 8, 0) != first


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_checks_pass_on_program_output(fl, workload):
    ops = _light(inputs.round_ops(workload, 3, 0)) + inputs.warmup_ops(workload, 3)
    tally = _tally(fl, ops)
    assert tally.unexpected == []
    assert tally.failed == 0 and tally.attempted == len(ops)


def test_fault_a_overflow_is_flagged(fl):
    for kind in inputs.FAULT_A:
        op = inputs._fault_a(kind, 0)
        tally = _tally(fl, [op])
        assert tally.failed == 1 and tally.unexpected == []


def test_fault_b_short_estimate_is_flagged(fl):
    op = inputs._fault_b()
    value, estimate = run.execute(fl, op)
    reason = oracles.check(op.kind, op.expect, (value, estimate))
    assert reason is not None and "error estimate" in reason
    assert abs(value - op.expect["exact"]) > estimate


def test_checks_flag_wrong_output():
    exact = oracles.weyl_norm(2, 1.5)
    assert oracles.check("fock_norm", {"exact": exact}, (exact * (1 + 1e-9), 1e-12)) is not None
    assert oracles.check("fock_norm", {"exact": exact}, (exact * (1 + 1e-15), 1e-12)) is None
    assert oracles.check("berezin", {"exact": 2.0}, 2.0 * (1 + 1e-6)) is not None
    a, b = 0.5 + 0.2j, 0.3 - 0.1j
    entries = oracles.binomial_matrix(a, b, 8)
    sigma = float(np.linalg.svd(entries, compute_uv=False)[0])
    expect = {"binomial": (a, b), "rotation": False}
    assert oracles.check("matrix", expect, (entries, sigma)) is None
    assert oracles.check("matrix", expect, (entries, sigma * 0.999)) is not None
    wrong = entries.copy()
    wrong[1, 3] *= 1 + 1e-9
    assert oracles.check("matrix", expect, (wrong, float(np.linalg.svd(wrong, compute_uv=False)[0]))) is not None
    assert oracles.check("path", {"steps": 2}, [(0.5, 0.1), (1.0, math.nan)]) is not None


def test_closed_forms_against_brute_force():
    c, d, a, b = 0.9 - 0.4j, 0.3 + 0.2j, 0.6 + 0.3j, -0.2 + 0.4j
    # gauge supremum on a fine grid around its peak
    xs = np.linspace(-4.0, 4.0, 1601)
    z = xs[:, None] + 1j * xs[None, :]
    gauge = np.abs(c * np.exp(d * z)) * np.exp((np.abs(a * z + b) ** 2 - np.abs(z) ** 2) / 2)
    assert gauge.max() == pytest.approx(oracles.exp_gauge_sup(c, d, a, b), rel=1e-5)
    # plane norm of the gauge by a Riemann sum (the integrand is Gaussian)
    p, q = 3.0, 2.0
    s = p * q / (p - q)
    riemann = (np.sum(gauge**s) * (xs[1] - xs[0]) ** 2) ** (1 / s)
    assert riemann == pytest.approx(oracles.exp_gauge_plane_norm(c, d, a, b, p, q), rel=1e-6)
    # Weyl monomial norm by a radial Riemann sum
    n, p = 1, 1.5
    r = np.linspace(0.0, 12.0, 200001)
    radial = p * np.sum(r ** (n * p + 1) * np.exp(-p * r**2 / 2)) * (r[1] - r[0])
    assert radial ** (1 / p) == pytest.approx(oracles.weyl_norm(n, p), rel=1e-6)


def test_tracer_counts_repeat_and_cover_pool_threads(fl):
    ops = [op for op in inputs.round_ops("witness", 5, 0) if op.kind in ("empirical", "berezin")]
    counts = []
    for _ in range(2):
        tracer = LayerTracer(Path(fl.__file__).parent)
        with tracer:
            run.run_ops(fl, ops, run.Tally())
        counts.append({k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"})
    assert counts[0] == counts[1]
    family = run.EMPIRICAL_FAMILY
    kernels = family["kernel_radii"] * family["kernel_angles"] + 1 + 1  # origin, witness point
    monomials = family["monomial_degree"] + 1
    berezins = sum(op.kind == "berezin" for op in ops)
    # a fock_norm per kernel image, per monomial image and per monomial
    # denominator; the pool's workers make most of these calls
    assert counts[0]["fock.norms"] == kernels + 2 * monomials
    assert counts[0]["quadrature.integrals"] == kernels + 2 * monomials + berezins
    assert counts[0]["config.pool_maps"] == 2


def test_refuses_without_program_sources():
    # a copy of the benchmark alone, inside the (git-ignored) output directory
    bare = run.OUTPUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    try:
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "norms", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert result.returncode != 0
    assert result.stdout == ""
