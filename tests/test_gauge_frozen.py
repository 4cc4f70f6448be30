"""Frozen gauge maxima: ``gauge_peak`` and ``sup_norm`` never read lower.

The values in ``data/gauge_frozen.json`` were produced by the earlier
multi-start scalar coordinate ascent (per-term stationary points and three
polar seed rings, one scalar ``log_abs`` call per probe), which shares no
code with the batched maximizer (a seeded polar grid, then a damped Newton
ascent on the exact derivatives of the log gauge).  Both routines report the
best point they found, so a maximum is a lower bound for the true supremum:
the current routine must reach every frozen value to within ``RTOL``.  The
symbol pairs are stored with the values, so the file does not depend on the
random generators.  The same pairs hold the ascent to its round budget.  To
regenerate the values after a deliberate change:

    PYTHONPATH=src python tests/test_gauge_frozen.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from focklab import fock
from focklab.fock import gauge_peak, sup_norm
from focklab.sampling import random_affine, random_entire_function
from focklab.symbols import AffineMap, EntireFunction, PolyExpTerm

FROZEN = Path(__file__).parent / "data" / "gauge_frozen.json"
RTOL = 1e-12
SEED = 60613
N_PAIRS = 100


def _pack(w: complex) -> list[float]:
    return [w.real, w.imag]


def _unpack_psi(terms) -> EntireFunction:
    return EntireFunction(tuple(
        PolyExpTerm(tuple(complex(*c) for c in coeffs), complex(*rate)) for coeffs, rate in terms
    ))


def _pairs() -> list[tuple[EntireFunction, AffineMap]]:
    rng = np.random.default_rng(SEED)
    out = []
    for k in range(N_PAIRS):
        psi = random_entire_function(rng, max_terms=4, max_degree=2 + k % 4,
                                     rate_radius=(0.5, 1.5, 3.0)[k % 3])
        phi = random_affine(rng, regime="interior", a_max=0.97, b_radius=(0.5, 2.0)[k % 2])
        out.append((psi, phi))
    return out


def frozen_pairs() -> list[tuple[EntireFunction, AffineMap, dict]]:
    """The frozen pairs as symbols, each with its stored record."""
    return [(_unpack_psi(case["psi"]), AffineMap(complex(*case["a"]), complex(*case["b"])), case)
            for case in json.loads(FROZEN.read_text())["pairs"]]


def gauge_peak_rounds(psi: EntireFunction, phi: AffineMap) -> tuple[complex, float, int]:
    """``gauge_peak``'s point and log value, and its ascent rounds: each round
    evaluates the log gauge once, after the seed grid."""
    calls = 0
    plain = fock.log_gauge_grid

    def counting(*args):
        nonlocal calls
        calls += 1
        return plain(*args)

    fock.log_gauge_grid = counting
    try:
        z, log_peak = gauge_peak(psi, phi)
    finally:
        fock.log_gauge_grid = plain
    return z, log_peak, calls - 1


@pytest.mark.parametrize("chunk", range(4))
def test_gauge_peak_and_sup_norm_reach_frozen(chunk):
    for psi, phi, case in frozen_pairs()[chunk::4]:
        _, log_peak = gauge_peak(psi, phi)
        # a relative shortfall of RTOL on the gauge is log(1 - RTOL) in the log
        assert log_peak >= case["log_gauge_peak"] + math.log1p(-RTOL), case
        assert sup_norm(psi).value >= case["sup_norm"] * (1.0 - RTOL), case


def test_gauge_peak_newton_rounds():
    # the counts are deterministic, so the budget is exact
    rounds = [gauge_peak_rounds(psi, phi)[2] for psi, phi, _ in frozen_pairs()]
    assert len(rounds) == 100
    assert np.median(rounds) <= 6
    assert max(rounds) < fock._MAX_ROUNDS


def _generate() -> dict:
    pairs = []
    for psi, phi in _pairs():
        _, log_peak = gauge_peak(psi, phi)
        pairs.append({
            "psi": [[[_pack(c) for c in t.coeffs], _pack(t.rate)] for t in psi.terms],
            "a": _pack(phi.a),
            "b": _pack(phi.b),
            "log_gauge_peak": log_peak,
            "sup_norm": sup_norm(psi).value,
        })
    return {"pairs": pairs}


def _dumps(frozen: dict) -> str:
    """The frozen file's text: one line per pair, so a diff shows one line per case."""
    lines = (json.dumps(case, separators=(",", ":")) for case in frozen["pairs"])
    return '{"pairs": [\n' + ",\n".join(lines) + "\n]}\n"


if __name__ == "__main__":
    FROZEN.write_text(_dumps(_generate()))
    sys.exit(0)
