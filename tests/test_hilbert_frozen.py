"""Frozen Hilbert-route values: truncated matrices, their sigma and path rows.

The values in ``data/hilbert_frozen.json`` were produced by the earlier
per-column implementation (symbolic column images, scalar coefficient loops
and power-iteration sigma), which shares no code with the batched transform
and the LAPACK sigma.  Every map has b small against a, so no column of the
earlier implementation lost top-degree coefficients to the symbol algebra's
trimming.  To regenerate after a deliberate change:

    PYTHONPATH=src python tests/test_hilbert_frozen.py
"""

import cmath
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from focklab import symbols as sy
from focklab import topology
from focklab.operators import WeightedCompositionOperator, f2_matrix, matrix_sigma_max
from focklab.symbols import AffineMap

FROZEN = Path(__file__).parent / "data" / "hilbert_frozen.json"
RTOL = 1e-12
# entries kept in the file: every SAMPLE_STRIDE-th of the row-major matrix
# (11 is prime to every order below, so each row and column is sampled);
# the column norms cover the rest
SAMPLE_STRIDE = 11

MATRICES = {
    "near-isometry": (sy.ONE, AffineMap(0.97 * cmath.exp(0.4j), 0.02 - 0.01j), 64),
    "exp-weight-32": (sy.exp_term(0.3 - 0.2j, 0.8 + 0.5j),
                      AffineMap(0.6 * cmath.exp(-0.7j), 0.1 + 0.05j), 32),
    "exp-weight-40": (sy.exp_term(-0.25 + 0.35j, 1.1 - 0.4j),
                      AffineMap(0.45 * cmath.exp(2.0j), -0.08 + 0.1j), 40),
    "dilation": (sy.ONE, AffineMap(0.7 * cmath.exp(1.0j), 0.0), 56),
    "rotation": (sy.ONE, AffineMap(cmath.exp(2.1j), 0.0), 48),
}

PATHS = {
    "dilate": dict(kind="dilate", phi=AffineMap(0.6 * cmath.exp(0.5j), 0.05 + 0.04j),
                   steps=3, matrix_order=32),
    "translate": dict(kind="translate", b1=0.3 - 0.2j, b2=-0.1 + 0.4j,
                      steps=3, matrix_order=32),
}


def _matrix(name: str):
    psi, phi, order = MATRICES[name]
    return f2_matrix(WeightedCompositionOperator(psi, phi, 2.0, 2.0), order, check_tail=False)


def _path(name: str):
    return topology.path_profile(p=2.0, q=2.0, **PATHS[name])


def _close(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= RTOL * np.maximum(np.abs(want), 1.0)))


def _frozen() -> dict:
    return json.loads(FROZEN.read_text())


@pytest.mark.parametrize("name", list(MATRICES))
def test_matrix_and_sigma_match_frozen(name):
    frozen = _frozen()["matrices"][name]
    matrix = _matrix(name)
    flat = matrix.entries.ravel()
    for k, re, im in frozen["sample"]:
        assert _close(flat[k], complex(re, im)), (name, divmod(k, matrix.order))
    assert _close(np.linalg.norm(matrix.entries, axis=0), frozen["column_norms"])
    assert _close(matrix_sigma_max(matrix), frozen["sigma"])


@pytest.mark.parametrize("name", list(PATHS))
def test_path_rows_match_frozen(name):
    rows = _path(name)
    frozen = _frozen()["paths"][name]
    assert [t for t, _ in rows] == [t for t, _ in frozen]
    assert _close([d for _, d in rows], [d for _, d in frozen])


def _generate() -> dict:
    matrices = {}
    for name in MATRICES:
        matrix = _matrix(name)
        flat = matrix.entries.ravel()
        matrices[name] = {
            "sample": [[k, flat[k].real, flat[k].imag] for k in range(0, flat.size, SAMPLE_STRIDE)],
            "column_norms": np.linalg.norm(matrix.entries, axis=0).tolist(),
            "sigma": matrix_sigma_max(matrix),
        }
    return {"matrices": matrices, "paths": {name: _path(name) for name in PATHS}}


if __name__ == "__main__":
    FROZEN.write_text(json.dumps(_generate(), indent=1) + "\n")
    sys.exit(0)
