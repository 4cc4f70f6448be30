#!/usr/bin/env python3
"""Sweep Fock norms of cusp integrands against their closed form.

For f = k_a(z) (z - a)^n with the unit-norm kernel k_a(z) = exp(conj(a) z -
|a|^2/2), |f|^p e^{-p|z|^2/2} = |z - a|^{np} e^{-p|z - a|^2/2}, so
||f||_p = Gamma(np/2 + 1)^{1/p} (2/p)^{n/2} for every a, while at a
fractional p the integrand has an algebraic cusp at z = a.  For random a in
the disc |a| <= 1.2 the script computes ``fock_norm`` at the default spec
and prints, per class, the worst ratio of the true error to the certified
error estimate (plus 8 ulps of rounding) and the wall time.  Every ratio must
be at most 1.

Usage: python3 scripts/cusp_sweep.py [--seed 0]
"""

import argparse
import cmath
import math
import sys
import time

import numpy as np

from focklab.fock import fock_norm
from focklab.parsing import parse_symbol

# (n, p, number of random a): the sweeps that found short estimates before
# the engine graded its angular rule at the zeros of f, then two of order
# n p past the graded range, short before every such zero was a radial
# panel edge
CLASSES = ((2, 1.5, 300), (1, 1.5, 50), (1, 2.5, 50), (3, 2.5, 3000), (2, 3.5, 3000))


def weyl_text(a: complex, n: int) -> str:
    def fmt(c: complex) -> str:
        return f"({c.real!r}{'-' if c.imag < 0 else '+'}{abs(c.imag)!r}i)"

    return f"{math.exp(-abs(a) ** 2 / 2.0)!r}*exp({fmt(a.conjugate())}*z)*(z-{fmt(a)})^{n}"


def weyl_norm(n: int, p: float) -> float:
    return math.gamma(n * p / 2.0 + 1.0) ** (1.0 / p) * (2.0 / p) ** (n / 2.0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    print("n,p,count,worst_error_over_estimate,wall_s")
    worst_all = 0.0
    for n, p, count in CLASSES:
        exact = weyl_norm(n, p)
        worst = 0.0
        start = time.perf_counter()
        for _ in range(count):
            a = 1.2 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            norm = fock_norm(parse_symbol(weyl_text(a, n)), p)
            allowed = norm.error_estimate + 8 * 2.0**-52 * exact
            worst = max(worst, abs(norm.value - exact) / allowed)
        print(f"{n},{p},{count},{worst:.3g},{time.perf_counter() - start:.2f}")
        worst_all = max(worst_all, worst)
    return 0 if worst_all <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
