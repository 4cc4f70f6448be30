"""Golden-report gate: fixed inputs must render byte-identical JSON reports.

The cases are the README's CLI examples (at matrix order 32 and 2 path
steps) plus ``classify`` on each decision branch and the q < p ``opnorm``.
A change that alters a report on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and lists every changed field in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from focklab.config import RunConfig
from focklab.report import run

GOLDEN = Path(__file__).parent / "data" / "reports_golden.json"
CONFIG = RunConfig(matrix_order=32)

CASES = [
    ("norm", {"symbol": "z^2*exp(0.5*z) + 3*z", "p": 2.0}),
    ("classify", {"psi": "1", "phi": "0.5,0", "p": 2.0, "q": 2.0}),
    ("opnorm", {"psi": "1", "phi": "0.5,0", "p": 2.0, "q": 2.0}),
    ("essnorm", {"psi": "1", "phi": "1,0", "p": 2.0, "q": 2.0}),
    ("diff", {"psi1": "1", "phi1": "0.5,0", "psi2": "z+1", "phi2": "0.5,0", "p": 2.0, "q": 2.0}),
    ("component", {"psi": "exp((0-1)*z)", "phi": "1,1", "p": 2.0, "q": 2.0}),
    ("isolated", {"phi": "1,0", "p": 2.0, "q": 2.0}),
    ("path", {"kind": "dilate", "phi": "0.5,0", "steps": 2, "p": 2.0, "q": 2.0}),
    ("profile-m", {"psi": "1", "phi": "0.5,1", "radii": "2,4,8,16"}),
    # classify on each branch: a = 0, a leaf, a non-leaf, q < p
    ("classify", {"psi": "z+1", "phi": "0,1", "p": 2.0, "q": 2.0}),
    ("classify", {"psi": "exp((0-1)*z)", "phi": "1,1", "p": 2.0, "q": 3.0}),
    ("classify", {"psi": "z", "phi": "1,0", "p": 2.0, "q": 2.0}),
    ("classify", {"psi": "1", "phi": "0.5,0", "p": 3.0, "q": 2.0}),
    ("opnorm", {"psi": "1", "phi": "0.5,0", "p": 3.0, "q": 2.0}),
]


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def _render(command: str, options: dict) -> str:
    text = run(command, dict(options), CONFIG).to_json()
    json.loads(text, parse_constant=_reject)  # no Infinity or NaN literal
    return text


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(len(CASES)))
def test_report_matches_golden(index):
    case = _golden()[index]
    command, options = CASES[index]
    assert (case["command"], case["options"]) == (command, options)
    expected = json.dumps(case["report"], sort_keys=True, indent=2)
    assert _render(command, options) == expected


if __name__ == "__main__":
    cases = [{"command": c, "options": o, "report": json.loads(_render(c, o))} for c, o in CASES]
    GOLDEN.write_text(json.dumps(cases, sort_keys=True, indent=1) + "\n")
    sys.exit(0)
