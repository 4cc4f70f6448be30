"""Multi-start coordinate ascent for smooth log-domain objectives on the plane.

Used for the global maxima that decide sup-type quantities: the objectives
are log |f(z)| plus a concave quadratic, smooth except at zeros of f where
they drop to -inf, so greedy axis moves with step halving from a spread of
polar seeds find the global maximum reliably.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

_MIN_STEP = 1e-9
_FIRST_STEP = 0.5
# bounds the walk so that an unbounded objective (fed in by mistake)
# terminates at a large finite point instead of drifting forever
_MAX_MOVES = 20000
_SEED_ANGLES = 8


def polar_seeds(radii: Iterable[float]) -> list[complex]:
    out = [0j]
    for r in radii:
        for k in range(_SEED_ANGLES):
            theta = 2.0 * math.pi * (k + 0.5) / _SEED_ANGLES
            out.append(r * complex(math.cos(theta), math.sin(theta)))
    return out


def ascend(objective: Callable[[complex], float], start: complex) -> tuple[complex, float]:
    """Greedy coordinate ascent with step halving from one seed."""
    z = complex(start)
    value = objective(z)
    h = _FIRST_STEP
    moves = 0
    while h > _MIN_STEP and moves < _MAX_MOVES:
        moved = False
        for dz in (h, -h, 1j * h, -1j * h):
            candidate = z + dz
            v = objective(candidate)
            moves += 1
            if v > value:
                z, value = candidate, v
                moved = True
        if not moved:
            h *= 0.5
    return z, value


def maximize(objective: Callable[[complex], float],
             seeds: Iterable[complex]) -> tuple[complex, float]:
    """Best of coordinate ascents from every seed; value may be -inf if all seeds are."""
    best_z, best_v = 0j, -math.inf
    for seed in seeds:
        z, v = ascend(objective, seed)
        if v > best_v:
            best_z, best_v = z, v
    return best_z, best_v
