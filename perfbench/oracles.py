"""Expected outputs computed apart from focklab, and the checks against them.

Closed forms used (F^p norms with the Gaussian weight e^{-p|z|^2/2}):

* Weyl-translated monomials: ||k_a (z - a)^n||_p = Gamma(np/2 + 1)^{1/p} (2/p)^{n/2}
  for every a and p, since |k_a(z)|^p e^{-p|z|^2/2} = e^{-p|z-a|^2/2}.
* Exponentials: ||c e^{dz}||_p = |c| e^{|d|^2/2} for every p.
* Gauge of W f = c e^{dz} f(az + b):
  log gauge = log|c| + |b|^2/2 + Re(w z) - (1 - |a|^2)|z|^2/2 with w = d + conj(b) a,
  so sup gauge = |c| exp(|b|^2/2 + |w|^2 / (2 (1 - |a|^2))), and the
  L^s plane norm of the gauge is a Gaussian integral (``exp_gauge_plane_norm``).
* Berezin: W k_w = c e^{conj(w) b - |w|^2/2} e^{(d + conj(w) a) z}.
* psi = 1 on F^2: the matrix of C_phi in the basis z^n / sqrt(n!) has entries
  C(j, n) a^n b^{j-n} sqrt(n! / j!).

Every check returns None on success and a one-line reason on failure.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Any

import numpy as np

ULP = 2.0 ** -52
# allowance for floating-point rounding on top of a certified error estimate
ROUNDING_ULPS = 8
# closed-form gauge suprema are maximised to ~1e-18 in the log, ratios to
# the quadrature tolerance
SUP_RTOL = 1e-9
QUAD_RTOL = 1e-7


def exp_gauge_sup(c: complex, d: complex, a: complex, b: complex) -> float:
    w = d + b.conjugate() * a
    return abs(c) * math.exp(abs(b) ** 2 / 2.0 + abs(w) ** 2 / (2.0 * (1.0 - abs(a) ** 2)))


def bracket_factor(a: complex, p: float, q: float) -> float:
    """(q / (p |a|^2))^{1/q}, the upper side of the sup-gauge norm bracket."""
    return (q / (p * abs(a) ** 2)) ** (1.0 / q)


def hilbert_bracket(c: complex, d: complex, a: complex, b: complex) -> tuple[float, float]:
    """[m, m/|a|] bounds the operator norm on F^2 (p = q = 2)."""
    m = exp_gauge_sup(c, d, a, b)
    return m, m / abs(a)


def weyl_norm(n: int, p: float) -> float:
    return math.gamma(n * p / 2.0 + 1.0) ** (1.0 / p) * (2.0 / p) ** (n / 2.0)


def exp_gauge_plane_norm(c: complex, d: complex, a: complex, b: complex,
                         p: float, q: float) -> float:
    """L^s(dA) norm of the gauge, s = pq/(p - q):
    (integral of |c|^s e^{s|b|^2/2} e^{s Re(wz) - beta |z|^2} dA)^{1/s}
    with the Gaussian integral (pi / beta) e^{s^2 |w|^2 / (4 beta)}."""
    s = p * q / (p - q)
    w = d + b.conjugate() * a
    beta = s * (1.0 - abs(a) ** 2) / 2.0
    log_integral = (s * (math.log(abs(c)) + abs(b) ** 2 / 2.0)
                    + math.log(math.pi / beta) + s * s * abs(w) ** 2 / (4.0 * beta))
    return math.exp(log_integral / s)


def exp_berezin(c: complex, d: complex, a: complex, b: complex, w: complex, q: float) -> float:
    """||W k_w||_q^q for psi = c e^{dz}, phi = az + b."""
    front = c * cmath.exp(w.conjugate() * b - abs(w) ** 2 / 2.0)
    return (abs(front) * math.exp(abs(d + w.conjugate() * a) ** 2 / 2.0)) ** q


def binomial_matrix(a: complex, b: complex, order: int) -> np.ndarray:
    entries = np.zeros((order, order), dtype=complex)
    for j in range(order):
        for n in range(j + 1):
            scale = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(j + 1)))
            entries[n, j] = math.comb(j, n) * a**n * b ** (j - n) * scale
    return entries


def _close(value: float, want: float, rtol: float) -> bool:
    return abs(value - want) <= rtol * abs(want)


def _ereal(node: Any) -> float:
    return math.inf if node["value"] == "inf" else float(node["value"])


# -------------------------------------------------------------- decide


def _check_classify(expect: dict, results: dict) -> str | None:
    if results["verdict"] != expect["verdict"]:
        return f"verdict {results['verdict']}, expected {expect['verdict']}"
    lower, upper = _ereal(results["norm_lower"]), _ereal(results["norm_upper"])
    ess = (_ereal(results["ess_lower"]), _ereal(results["ess_upper"]))
    if expect["verdict"] == "Unbounded":
        return None if math.isinf(lower) else f"finite norm_lower {lower} for an unbounded operator"
    if "norm_lower" in expect and not _close(lower, expect["norm_lower"], SUP_RTOL):
        return f"norm_lower {lower!r}, closed form {expect['norm_lower']!r}"
    if "bracket_factor" in expect and "level" not in expect:
        want = expect["bracket_factor"] * expect["norm_lower"]
        if not _close(upper, want, SUP_RTOL):
            return f"norm_upper {upper!r}, closed form {want!r}"
    if "rank_one_upper" in expect:
        want = expect["rank_one_upper"]
        if not want * (1 - SUP_RTOL) <= upper <= want * (1 + QUAD_RTOL):
            return f"rank-one norm_upper {upper!r}, closed form {want!r}"
    if expect["verdict"] == "Compact":
        return None if ess == (0.0, 0.0) else f"compact operator with ess bracket {ess}"
    level, factor = expect["level"], expect["bracket_factor"]
    if not (_close(lower, level, SUP_RTOL) and _close(upper, factor * level, SUP_RTOL)):
        return f"leaf norm bracket [{lower!r}, {upper!r}], closed form level {level!r}"
    return None


def _check_component(expect: dict, results: dict) -> str | None:
    if results["kind"] != expect["kind"]:
        return f"component {results['kind']}, expected {expect['kind']}"
    key = results["leaf_key"]
    if expect["leaf"] is None:
        return None if key is None else f"unexpected leaf key {key}"
    a, b = expect["leaf"]
    got = (complex(key["a"]["re"], key["a"]["im"]), complex(key["b"]["re"], key["b"]["im"]))
    if abs(got[0] - a) > 1e-12 or abs(got[1] - b) > 1e-12:
        return f"leaf key {got}, expected {(a, b)}"
    return None


def _check_essnorm(expect: dict, results: dict) -> str | None:
    lo, hi = _ereal(results["ess_lower"]), _ereal(results["ess_upper"])
    if expect["ess"] == "zero":
        return None if (lo, hi) == (0.0, 0.0) else f"ess bracket {(lo, hi)} for a compact operator"
    level = expect["level"]
    want_hi = 2.0 * expect["bracket_factor"] * level
    if _close(lo, level, SUP_RTOL) and _close(hi, want_hi, SUP_RTOL):
        return None
    return f"ess bracket {(lo, hi)}, closed form {(level, want_hi)}"


def _check_diff(expect: dict, results: dict) -> str | None:
    got = (results["compact"], results["reason"])
    want = (expect["compact"], expect["reason"])
    return None if got == want else f"difference {got}, expected {want}"


def _check_isolated(expect: dict, results: dict) -> str | None:
    got = results["isolated"]
    return None if got == expect["isolated"] else f"isolated {got}, expected {expect['isolated']}"


_REPORT_CHECKS = {
    "classify": _check_classify,
    "component": _check_component,
    "essnorm": _check_essnorm,
    "diff": _check_diff,
    "isolated": _check_isolated,
}


# --------------------------------------------------------------- norms


def _check_fock_norm(expect: dict, output: tuple[float, float]) -> str | None:
    value, estimate = output
    exact = expect["exact"]
    allowed = estimate + ROUNDING_ULPS * ULP * exact
    if abs(value - exact) <= allowed:
        return None
    return (f"norm {value!r} is {abs(value - exact):.3g} from the exact {exact!r}, "
            f"beyond its error estimate {estimate:.3g}")


def _check_plane_norm(expect: dict, value: float) -> str | None:
    if _close(value, expect["exact"], QUAD_RTOL):
        return None
    return f"plane norm {value!r}, closed form {expect['exact']!r}"


# ------------------------------------------------------------- witness


def _check_matrix(expect: dict, output: tuple[np.ndarray, float]) -> str | None:
    entries, sigma = output
    reference = float(np.linalg.svd(entries, compute_uv=False)[0])
    if not _close(sigma, reference, 1e-8):
        return f"sigma {sigma!r}, numpy svd {reference!r}"
    if "binomial" in expect:
        a, b = expect["binomial"]
        want = binomial_matrix(a, b, entries.shape[0])
        scale = np.maximum(np.abs(want), 1.0)
        if not np.all(np.abs(entries - want) <= 1e-12 * scale):
            return "matrix of C_phi differs from the binomial entries"
        if expect["rotation"]:
            return None if _close(sigma, 1.0, 1e-12) else f"rotation sigma {sigma!r}, expected 1"
        hi = hilbert_bracket(1.0, 0j, a, b)[1]
    else:
        hi = expect["bracket"][1]
    if sigma > hi * (1 + 1e-12):
        return f"sigma {sigma!r} above the norm bracket's upper side {hi!r}"
    return None


def _check_empirical(expect: dict, value: float) -> str | None:
    lo, hi = expect["bracket"]
    if lo * (1 - QUAD_RTOL) <= value <= hi * (1 + QUAD_RTOL):
        return None
    return f"empirical norm {value!r} outside the bracket [{lo!r}, {hi!r}]"


def _check_berezin(expect: dict, value: float) -> str | None:
    if _close(value, expect["exact"], QUAD_RTOL):
        return None
    return f"Berezin value {value!r}, closed form {expect['exact']!r}"


def _check_path(expect: dict, rows: list[tuple[float, float]]) -> str | None:
    if len(rows) != expect["steps"]:
        return f"{len(rows)} path increments, expected {expect['steps']}"
    bad = [d for _, d in rows if not (math.isfinite(d) and d >= 0.0)]
    return None if not bad else f"path increments not finite and non-negative: {bad}"


_VALUE_CHECKS = {
    "fock_norm": _check_fock_norm,
    "plane_norm": _check_plane_norm,
    "matrix": _check_matrix,
    "empirical": _check_empirical,
    "berezin": _check_berezin,
    "path": _check_path,
}


def check(kind: str, expect: dict, output: Any) -> str | None:
    """None when ``output`` of an operation of ``kind`` meets its oracle."""
    if kind in _REPORT_CHECKS:
        return _REPORT_CHECKS[kind](expect, json.loads(output)["results"])
    return _VALUE_CHECKS[kind](expect, output)
