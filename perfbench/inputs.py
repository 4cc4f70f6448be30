"""Seeded inputs for the three workloads, with the expected outputs attached.

Every input is written as symbol and map text that focklab parses, and is
built here from the benchmark's own random stream: focklab's ``sampling``
module is never called, so a change to the program cannot change a
workload.  Each input is built from known parameters (a map's regime, a
closed-form weight), and the expected output is computed from those
parameters in ``oracles`` without calling the program.

A workload is a sequence of rounds.  Every round has the same make-up (the
same operation kinds in the same order; the one fault case of a round
cycles through a fixed list) and round ``r`` of seed ``s`` draws its random
inputs from its own stream ``(s, workload, r)``, so no random input repeats
within a run and every run attempts whole rounds.  The fixed fault cases
are the only inputs that do not depend on the seed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import oracles

WORKLOADS = ("decide", "norms", "witness")
_STREAM = {"decide": 1, "norms": 2, "witness": 3}
_WARMUP_ROUND = -1


@dataclass
class Op:
    """One timed operation: a kind, its text arguments and its oracle.

    ``fault`` names the known program fault a fixed case exercises; such an
    operation is expected to fail until the fault is mended.
    """

    kind: str
    args: dict[str, Any]
    expect: dict[str, Any] = field(default_factory=dict)
    fault: str | None = None


# ---------------------------------------------------------------- text


def fmt_real(x: float) -> str:
    return repr(float(x))


def fmt_complex(c: complex) -> str:
    c = complex(c)
    sign = "-" if c.imag < 0 else "+"
    return f"({fmt_real(c.real)}{sign}{fmt_real(abs(c.imag))}i)"


def fmt_map(a: complex, b: complex) -> str:
    return f"{fmt_complex(a)},{fmt_complex(b)}"


def exp_text(c: complex, d: complex) -> str:
    """c * exp(d z)."""
    return f"{fmt_complex(c)}*exp({fmt_complex(d)}*z)"


def poly_exp_text(coeffs: list[complex], rate: complex) -> str:
    poly = " + ".join(
        fmt_complex(c) if k == 0 else f"{fmt_complex(c)}*z^{k}" for k, c in enumerate(coeffs)
    )
    return f"({poly})*exp({fmt_complex(rate)}*z)"


def weyl_text(a: complex, n: int) -> str:
    """k_a(z) (z - a)^n with the unit-norm kernel k_a(z) = exp(conj(a) z - |a|^2/2)."""
    scale = math.exp(-abs(a) ** 2 / 2.0)
    return f"{fmt_real(scale)}*exp({fmt_complex(a.conjugate())}*z)*(z-{fmt_complex(a)})^{n}"


# --------------------------------------------------------------- draws


class _Draw:
    def __init__(self, seed: int, workload: str, round_index: int):
        # round -1 (warm-up) maps to its own stream entry
        self.rng = np.random.default_rng([seed, _STREAM[workload], round_index + 1])

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def choice(self, options):
        return options[int(self.rng.integers(len(options)))]

    def phase(self) -> complex:
        return cmath.exp(1j * self.uniform(0.0, 2.0 * math.pi))

    def disc(self, radius: float, floor: float = 0.0) -> complex:
        """Uniform in the annulus floor <= |w| <= radius."""
        r = math.sqrt(self.uniform(floor**2, radius**2))
        return r * self.phase()

    def interior(self, lo: float = 0.3, hi: float = 0.85) -> complex:
        return self.uniform(lo, hi) * self.phase()


# -------------------------------------------------------------- decide


# Fault (a): an overflowing gauge supremum flips the verdict.  The log-sup is
# |c|^2 / (2 (1 - |a|^2)) ~ 1000 > 709, so the program's float overflows and
# it reports Unbounded, or refuses with NotBounded; the truth is Compact
# because |a| < 1.  Every round holds one case of each kind, alternating
# between two rotations of the same case, so every round costs about the same.
FAULT_A = {
    "classify": ((2.0 + 0j, 0.999 + 0j), (2j, 0.999j)),
    "component": ((2.0 + 0j, 0.999 + 0j), (-2.0 + 0j, -0.999 + 0j)),
    "diff": ((2.0 + 0j, 0.999 + 0j), (-2j, 0.999 + 0j)),
}


def _fault_a(kind: str, round_index: int) -> Op:
    c, a = FAULT_A[kind][round_index % 2]
    psi, phi = exp_text(1.0, c), fmt_map(a, 0j)
    if kind == "classify":
        args = {"psi": psi, "phi": phi, "p": 2.0, "q": 2.0}
        expect = {"verdict": "Compact"}
    elif kind == "component":
        args = {"psi": psi, "phi": phi, "p": 2.0, "q": 2.0}
        expect = {"kind": "CompactBulk", "leaf": None}
    else:
        args = {"psi1": psi, "phi1": phi, "psi2": "1", "phi2": fmt_map(0.5, 0j),
                "p": 2.0, "q": 2.0}
        expect = {"compact": True, "reason": "BothCompact"}
    return Op(kind, args, expect, fault="overflow-flips-verdict")


def _exponents(d: _Draw, equal: bool) -> tuple[float, float]:
    p = d.choice((1.0, 1.5, 2.0, 3.0))
    return (p, p) if equal else (p, p + d.choice((0.5, 1.0, 2.0)))


def _random_poly_exp(d: _Draw) -> str:
    degree = int(d.rng.integers(0, 3))
    coeffs = [d.disc(1.2, 0.25) for _ in range(degree + 1)]
    return poly_exp_text(coeffs, d.disc(0.8))


def _random_weight(d: _Draw, terms: int) -> str:
    """A sum of ``terms`` random P(z) e^{dz} terms.  A decision costs
    roughly in proportion to the terms of its weight, so mixing 1 to 4 terms
    spreads the cheap class over a continuum of costs instead of one peak."""
    return " + ".join(_random_poly_exp(d) for _ in range(terms))


def _interior_operator(d: _Draw, p: float, q: float, terms: int | None) -> tuple[dict, dict]:
    """A compact operator with |a| < 1.  With ``terms`` None the weight is
    c e^{dz}, whose gauge supremum is known exactly; otherwise it is a random
    weight of that many terms."""
    a, b = d.interior(), d.disc(0.8)
    if terms is None:
        c, rate = d.disc(1.5, 0.3), d.disc(0.6)
        psi = exp_text(c, rate)
        expect = {"verdict": "Compact",
                  "norm_lower": oracles.exp_gauge_sup(c, rate, a, b),
                  "bracket_factor": oracles.bracket_factor(a, p, q)}
    else:
        psi = _random_weight(d, terms)
        expect = {"verdict": "Compact"}
    return {"psi": psi, "phi": fmt_map(a, b), "p": p, "q": q}, expect


def _leaf_operator(d: _Draw, p: float, q: float) -> tuple[dict, dict]:
    """|a| = 1 with the leaf weight c exp(-conj(b) a z): bounded, not compact."""
    a, b, c = d.phase(), d.disc(0.8), d.disc(1.5, 0.3)
    level = abs(c) * math.exp(abs(b) ** 2 / 2.0)
    args = {"psi": exp_text(c, -b.conjugate() * a), "phi": fmt_map(a, b), "p": p, "q": q}
    return args, {"verdict": "BoundedNonCompact", "level": level,
                  "bracket_factor": oracles.bracket_factor(a, p, q),
                  "leaf": (a, b)}


def _nonleaf_operator(d: _Draw, p: float, q: float) -> tuple[dict, dict]:
    """|a| = 1 with a weight that is not the leaf weight: unbounded."""
    a, b = d.phase(), d.disc(0.8)
    c, extra = d.disc(1.5, 0.3), d.disc(1.0, 0.3)
    psi = f"{exp_text(c, -b.conjugate() * a)} + {fmt_complex(extra)}*z"
    return {"psi": psi, "phi": fmt_map(a, b), "p": p, "q": q}, {"verdict": "Unbounded"}


def _constant_map_operator(d: _Draw, p: float, q: float) -> tuple[dict, dict]:
    """a = 0: rank one, compact; zero-free weight c e^{dz} keeps the q-norm smooth."""
    b, c, rate = d.disc(1.0), d.disc(1.5, 0.3), d.disc(0.6)
    level = oracles.exp_gauge_sup(c, rate, 0j, b)
    return ({"psi": exp_text(c, rate), "phi": fmt_map(0j, b), "p": p, "q": q},
            {"verdict": "Compact", "norm_lower": level, "rank_one_upper": level})


def _unit_one_operator(d: _Draw, p: float, q: float) -> tuple[dict, dict]:
    """psi = 1 with |a| < 1: norm_lower = exp(|b|^2 / (2 (1 - |a|^2)))."""
    a, b = d.interior(), d.disc(1.0)
    return ({"psi": "1", "phi": fmt_map(a, b), "p": p, "q": q},
            {"verdict": "Compact", "norm_lower": oracles.exp_gauge_sup(1.0, 0j, a, b),
             "bracket_factor": oracles.bracket_factor(a, p, q)})


def _component(args: dict, expect: dict) -> Op:
    if expect["verdict"] == "Compact":
        want = {"kind": "CompactBulk", "leaf": None}
    else:
        want = {"kind": "UnitModulusLeaf", "leaf": expect["leaf"]}
    return Op("component", args, want)


def _decide_round(d: _Draw, round_index: int) -> list[Op]:
    """97 operations: 93 cheap decisions (milliseconds to a few tenths of a
    second; they set the median and the p90), one q < p component query and
    the three fault (a) cases (seconds each; they set the throughput).

    The cheap decisions mix kinds and weights of 1 to 4 terms, so that their
    costs form a continuum from ~30 ms to ~0.4 s with no peak at the median
    or the p90: a quantile inside one narrow class jumps whenever the host's
    speed does."""
    ops: list[Op] = []

    def add(kind, make, *extra, equal):
        p, q = _exponents(d, equal)
        args, want = make(d, p, q, *extra)
        ops.append(_component(args, want) if kind == "component" else Op(kind, args, want))

    def add_isolated(phi, isolated, equal):
        p, q = _exponents(d, equal)
        ops.append(Op("isolated", {"phi": phi, "p": p, "q": q}, {"isolated": isolated}))

    def add_diff(reason, terms, equal):
        p, q = _exponents(d, equal)
        if reason == "BothCompact":
            first, second = _bulk(d, p, q, terms[0]), _bulk(d, p, q, None)
        elif reason == "SameSymbolVanishing":
            first = _bulk(d, p, q, terms[0])
            second = dict(first, psi=_random_weight(d, terms[1]))
        else:
            first, second = _leaf_operator(d, p, q)[0], _bulk(d, p, q, terms[0])
        ops.append(Op("diff", _pair(first, second),
                      {"compact": reason != "NotCompact", "reason": reason}))

    def add_essnorm(leaf, terms, equal):
        # the bracket needs 1 < p <= q and a bounded operator
        p = d.choice((1.5, 2.0, 3.0))
        q = p if equal else p + 1.0
        if leaf:
            args, want = _leaf_operator(d, p, q)
            ops.append(Op("essnorm", args, {**want, "ess": "leaf"}))
        else:
            ops.append(Op("essnorm", _bulk(d, p, q, terms), {"ess": "zero"}))

    # two blocks that differ only in their dearest differences, so that the
    # top of the cheap class (where the p90 falls) is a continuum as well
    for dear in (((1, 2), (2, 3), (2, 4)), ((1, 3), (3, 3), (3, 4))):
        for equal in (True, False):
            # listed roughly from cheap to dear; the three single-term
            # classify queries carry the closed-form oracles
            add_isolated(fmt_map(d.interior(), d.disc(0.8)), False, equal)
            add("component", _interior_operator, 1, equal=equal)
            add_diff("NotCompact", (1,), equal)
            add("component", _interior_operator, 2, equal=equal)
            add_diff("NotCompact", (2,), equal)
            add("component", _interior_operator, 3, equal=equal)
            add_essnorm(False, 1, equal)
            add("classify", _interior_operator, None, equal=equal)
            add("classify", _unit_one_operator, equal=equal)
            add("classify", _constant_map_operator, equal=equal)
            add("component", _interior_operator, 4, equal=equal)
            add_diff("BothCompact", (2,), equal)
            add_diff("NotCompact", (4,), equal)
            add("classify", _interior_operator, 2, equal=equal)
            add_essnorm(False, 2, equal)
            add_diff("BothCompact", (3,), equal)
            add_essnorm(False, 3, equal)
            add("classify", _interior_operator, 3, equal=equal)
            add("classify", _interior_operator, 4, equal=equal)
            for terms in dear:
                add_diff("SameSymbolVanishing", terms, equal)

    # unit-modulus maps are decided without an ascent
    add("classify", _leaf_operator, equal=True)
    add("classify", _nonleaf_operator, equal=False)
    add("component", _leaf_operator, equal=False)
    add_isolated(fmt_map(d.phase(), 0j), True, True)
    add_essnorm(True, None, False)

    # the heavy share: one q < p component query (the space is path connected);
    # q = 2 keeps every family image smooth, a fractional q would put cusps
    # at the zeros of the monomial images
    args, _ = _interior_operator(d, 3.0, 2.0, None)
    ops.append(Op("component", args, {"kind": "AllConnected", "leaf": None}))
    ops += [_fault_a(kind, round_index) for kind in FAULT_A]
    return ops


def _bulk(d: _Draw, p: float, q: float, terms: int | None) -> dict:
    return _interior_operator(d, p, q, terms)[0]


def _pair(first: dict, second: dict) -> dict:
    return {"psi1": first["psi"], "phi1": first["phi"], "psi2": second["psi"],
            "phi2": second["phi"], "p": first["p"], "q": first["q"]}


def _decide_warmup(d: _Draw) -> list[Op]:
    interior, expect = _interior_operator(d, 2.0, 2.0, None)
    leaf, leaf_expect = _leaf_operator(d, 2.0, 2.0)
    other, _ = _interior_operator(d, 2.0, 2.0, 1)
    return [
        Op("classify", interior, expect),
        _component(leaf, leaf_expect),
        Op("diff", _pair(interior, other), {"compact": True, "reason": "BothCompact"}),
        Op("isolated", {"phi": fmt_map(d.phase(), 0j), "p": 2.0, "q": 2.0}, {"isolated": True}),
        Op("essnorm", leaf, {"ess": "leaf", **leaf_expect}),
    ]


# --------------------------------------------------------------- norms


# Fault (b): the certified error estimate falls short of the true error for
# this p = 1/2 cusp integrand (fixed, it does not depend on the seed).
FAULT_B_POINT = 0.3040 + 0.4072j
FAULT_B_P = 0.5


def _fault_b() -> Op:
    return Op("fock_norm", {"symbol": weyl_text(FAULT_B_POINT, 1), "p": FAULT_B_P},
              {"exact": oracles.weyl_norm(1, FAULT_B_P)}, fault="error-estimate-short")


def _smooth_weyl(d: _Draw) -> Op:
    """k_a (z - a)^n at an even p: |f|^p is a smooth polynomial-Gaussian."""
    n, p, a = int(d.rng.integers(0, 4)), d.choice((2.0, 4.0, 6.0)), d.disc(1.2, 0.2)
    return Op("fock_norm", {"symbol": weyl_text(a, n), "p": p}, {"exact": oracles.weyl_norm(n, p)})


def _smooth_exp(d: _Draw) -> Op:
    c, rate = d.disc(1.5, 0.3), d.disc(1.0)
    p = d.choice((0.5, 0.75, 1.0, 1.5, 2.5, 3.0, 3.5))
    return Op("fock_norm", {"symbol": exp_text(c, rate), "p": p},
              {"exact": abs(c) * math.exp(abs(rate) ** 2 / 2.0)})


def _plane_norm(d: _Draw) -> Op:
    c, rate, a, b = d.disc(1.5, 0.3), d.disc(0.6), d.interior(0.3, 0.8), d.disc(0.6)
    q = d.choice((1.0, 1.5, 2.0))
    p = q + d.choice((0.5, 1.0, 2.0))
    return Op("plane_norm", {"psi": exp_text(c, rate), "phi": fmt_map(a, b), "p": p, "q": q},
              {"exact": oracles.exp_gauge_plane_norm(c, rate, a, b, p, q)})


# cusp integrands: a fractional p on a function with a zero off the origin,
# n p not an even integer.  Only the milder cusps are drawn: at n = 1 and 2
# the certified estimate falls short on some draws (CHANGES.md), which
# would make the failed share depend on the seed; the fixed fault (b) case
# keeps that class in the workload.
_CUSP = (3, 2.5)


def _cusp(d: _Draw) -> Op:
    n, p = _CUSP
    return Op("fock_norm", {"symbol": weyl_text(d.disc(1.2, 0.2), n), "p": p},
              {"exact": oracles.weyl_norm(n, p)})


def _heavy_weyl(d: _Draw) -> Op:
    """k_a (z - a)^n, 8 <= n <= 12, at p = 4 or 6: smooth but oscillating
    enough to need many angular nodes (tens of ms to a tenth of a second)."""
    n, p, a = int(d.rng.integers(8, 13)), d.choice((4.0, 6.0)), d.disc(1.2, 0.2)
    return Op("fock_norm", {"symbol": weyl_text(a, n), "p": p}, {"exact": oracles.weyl_norm(n, p)})


def _norms_round(d: _Draw, round_index: int) -> list[Op]:
    """22 operations: 14 light smooth integrals and 3 mild cusp integrals
    (milliseconds, they set the median), 4 heavy smooth integrals and the
    fault (b) case (tenths of a second, they set the p90 and the throughput)."""
    ops = []
    for _ in range(2):
        ops += [_smooth_weyl(d), _smooth_weyl(d), _smooth_weyl(d),
                _smooth_exp(d), _smooth_exp(d), _plane_norm(d), _plane_norm(d)]
    ops += [_cusp(d) for _ in range(3)]
    ops += [_heavy_weyl(d) for _ in range(4)]
    ops.append(_fault_b())
    return ops


def _norms_warmup(d: _Draw) -> list[Op]:
    return [_smooth_weyl(d), _plane_norm(d)]


# ------------------------------------------------------------- witness


def _closed_form_operator(d: _Draw) -> tuple[complex, complex, complex, complex]:
    """(c, rate, a, b) of W f = c e^{rate z} f(a z + b), 0.3 <= |a| <= 0.85."""
    return d.disc(1.2, 0.3), d.disc(0.4), d.interior(), d.disc(0.4)


def _matrix_one(d: _Draw, order: int, shape: str) -> Op:
    """psi = 1: a rotation, a near-isometry (small b) or a dilation (b = 0).

    Maps with |a| < 1 and b of the size of a are left out: the program's
    canonical form trims the top-degree coefficients of (az + b)^j, which
    puts matrix entries off by up to ~1e-5 on some draws (CHANGES.md).
    """
    if shape == "rotation":
        a, b = d.phase(), 0j
    elif shape == "near-isometry":
        a, b = d.uniform(0.95, 0.99) * d.phase(), d.disc(0.05)
    else:
        a, b = d.interior(), 0j
    return Op("matrix", {"psi": "1", "phi": fmt_map(a, b), "order": order},
              {"binomial": (a, b), "rotation": shape == "rotation"})


def _matrix_exp(d: _Draw, order: int) -> Op:
    c, rate, a, b = _closed_form_operator(d)
    return Op("matrix", {"psi": exp_text(c, rate), "phi": fmt_map(a, b), "order": order},
              {"bracket": oracles.hilbert_bracket(c, rate, a, b)})


def _berezin(d: _Draw) -> Op:
    c, rate, a, b = _closed_form_operator(d)
    w = d.disc(1.5)
    return Op("berezin", {"psi": exp_text(c, rate), "phi": fmt_map(a, b), "w": w},
              {"exact": oracles.exp_berezin(c, rate, a, b, w, 2.0)})


def _empirical(d: _Draw) -> Op:
    c, rate, a, b = _closed_form_operator(d)
    return Op("empirical", {"psi": exp_text(c, rate), "phi": fmt_map(a, b)},
              {"bracket": oracles.hilbert_bracket(c, rate, a, b)})


def _dilate_path(d: _Draw) -> Op:
    return Op("path", {"kind": "dilate", "phi": fmt_map(d.interior(), d.disc(0.4)), "steps": 2},
              {"steps": 2})


def _translate_path(d: _Draw) -> Op:
    return Op("path", {"kind": "translate", "b1": fmt_complex(d.disc(0.6)),
                       "b2": fmt_complex(d.disc(0.6)), "steps": 3}, {"steps": 3})


def _witness_round(d: _Draw, round_index: int) -> list[Op]:
    """26 operations: 18 single-point Berezin values (milliseconds, they set
    the median) and 8 matrix, empirical-norm and path witnesses (tenths of a
    second, they set the p90 and the throughput)."""
    ops = [_berezin(d) for _ in range(18)]
    # fixed orders: building a matrix costs roughly the square of its order
    # (a near-isometry takes ~90 ms at order 32 and ~500 ms at 64), so random
    # orders would make the throughput depend on the seed
    for shape, order in (("rotation", 48), ("near-isometry", 64), ("dilation", 56)):
        ops.append(_matrix_one(d, order, shape))
    ops += [_matrix_exp(d, order) for order in (32, 40)]
    ops += [_empirical(d), _dilate_path(d), _translate_path(d)]
    return ops


def _witness_warmup(d: _Draw) -> list[Op]:
    return [_berezin(d), _matrix_exp(d, 32), _empirical(d), _translate_path(d)]


_ROUNDS = {"decide": _decide_round, "norms": _norms_round, "witness": _witness_round}
_WARMUPS = {"decide": _decide_warmup, "norms": _norms_warmup, "witness": _witness_warmup}


def round_ops(workload: str, seed: int, round_index: int) -> list[Op]:
    """The operations of one round; a pure function of its arguments."""
    return _ROUNDS[workload](_Draw(seed, workload, round_index), round_index)


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """One cheap operation of each kind, from a stream no round uses."""
    return _WARMUPS[workload](_Draw(seed, workload, _WARMUP_ROUND))
