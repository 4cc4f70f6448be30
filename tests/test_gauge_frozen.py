"""Frozen gauge maxima: ``gauge_peak`` and ``sup_norm`` never read lower.

The values in ``data/gauge_frozen.json`` were produced by the earlier
multi-start scalar coordinate ascent (per-term stationary points and three
polar seed rings, one scalar ``log_abs`` call per probe), which shares no
code with the batched grid-and-polish maximizer.  Both routines report the
best point they found, so a maximum is a lower bound for the true supremum:
the current routine must reach every frozen value to within ``RTOL``.  The
symbol pairs are stored with the values, so the file does not depend on the
random generators.  To regenerate after a deliberate change:

    PYTHONPATH=src python tests/test_gauge_frozen.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

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


def _frozen() -> list[dict]:
    return json.loads(FROZEN.read_text())["pairs"]


@pytest.mark.parametrize("chunk", range(4))
def test_gauge_peak_and_sup_norm_reach_frozen(chunk):
    for case in _frozen()[chunk::4]:
        psi = _unpack_psi(case["psi"])
        phi = AffineMap(complex(*case["a"]), complex(*case["b"]))
        _, log_peak = gauge_peak(psi, phi)
        # a relative shortfall of RTOL on the gauge is log(1 - RTOL) in the log
        assert log_peak >= case["log_gauge_peak"] + math.log1p(-RTOL), case
        assert sup_norm(psi).value >= case["sup_norm"] * (1.0 - RTOL), case


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
