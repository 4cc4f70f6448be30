#!/usr/bin/env python3
"""Sweep ``gauge_peak`` against a dense local grid and count its ascent rounds.

The pairs are the 100 frozen pairs of ``tests/data/gauge_frozen.json`` plus
300 harder random ones (|a| <= 0.99, up to 6 terms, rates up to 4,
|b| up to 4).  For each pair the script scans the log gauge on square grids
of 41 x 41 points and half-widths 1e-1, 1e-4 and 1e-7 around the returned
point, and records the shortfall max(grid) - log value: positive where a
grid point beats the maximizer.  It also counts the ascent rounds of each
call (its ``log_gauge_grid`` calls after the seed grid) and prints, per
class, the worst shortfall, the median, p90 and maximum rounds and the wall
time.  The exit code is 1 if a shortfall exceeds 1e-12 (1 + |log value|)
or a call reaches the round cap.  The frozen pairs and the round count come
from ``tests/test_gauge_frozen.py``, whose round test reads them the same way.

Usage: python3 scripts/peak_sweep.py [--seed 0]
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from focklab import fock
from focklab.sampling import random_affine, random_entire_function
from focklab.symbols import AffineMap, EntireFunction

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_gauge_frozen import frozen_pairs, gauge_peak_rounds  # noqa: E402

COUNT = 300
HALF_WIDTHS = (1e-1, 1e-4, 1e-7)
TOLERANCE = 1e-12


def hard_pairs(rng: np.random.Generator) -> list[tuple[EntireFunction, AffineMap]]:
    return [(random_entire_function(rng, max_terms=6, max_degree=3, rate_radius=4.0),
             random_affine(rng, regime="interior", a_max=0.99, b_radius=4.0))
            for _ in range(COUNT)]


def local_shortfall(psi: EntireFunction, phi: AffineMap, z: complex, value: float) -> float:
    axis = np.linspace(-1.0, 1.0, 41)
    offsets = (axis[None, :] + 1j * axis[:, None]).ravel()
    grid = np.concatenate([z + h * offsets for h in HALF_WIDTHS])
    return float(np.max(fock.log_gauge_grid(psi, phi, grid))) - value


def sweep(pairs) -> tuple[float, list[int], float]:
    """(worst relative shortfall, rounds per call, wall seconds)."""
    worst, rounds, wall = -math.inf, [], 0.0
    for psi, phi in pairs:
        start = time.perf_counter()
        z, value, count = gauge_peak_rounds(psi, phi)
        wall += time.perf_counter() - start
        rounds.append(count)
        worst = max(worst, local_shortfall(psi, phi, z, value) / (1.0 + abs(value)))
    return worst, rounds, wall


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    print("class,pairs,worst_shortfall,median_rounds,p90_rounds,max_rounds,wall_s")
    failed = False
    for name, pairs in (("frozen", [(psi, phi) for psi, phi, _ in frozen_pairs()]),
                        ("hard", hard_pairs(rng))):
        worst, rounds, wall = sweep(pairs)
        median, p90 = np.percentile(rounds, [50, 90])
        print(f"{name},{len(pairs)},{worst:.3g},{median:g},{p90:g},{max(rounds)},{wall:.2f}")
        failed |= worst > TOLERANCE or max(rounds) >= fock._MAX_ROUNDS
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
