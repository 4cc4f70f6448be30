"""The symbolic decision layer: decisions run no numerics, and an overflowing
gauge supremum never flips a verdict."""

import math
import sys

import pytest

from focklab import fock, operators
from focklab import symbols as sy
from focklab.criteria import classify, decide, essential_norm_bracket
from focklab.operators import WeightedCompositionOperator, composition_operator
from focklab.report import run
from focklab.sampling import unit_leaf_weight
from focklab.symbols import AffineMap
from focklab.topology import (
    ComponentKind,
    DifferenceReason,
    compact_difference,
    component_id,
    is_isolated,
)

UNIT = complex(math.cos(0.8), math.sin(0.8))


def _forbid(monkeypatch, module, name):
    """Make ``module.name`` raise wherever a focklab module has bound it."""
    original = getattr(module, name)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{module.__name__}.{name} ran inside a decision")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("focklab") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, refuse)


@pytest.fixture
def no_numerics(monkeypatch):
    _forbid(monkeypatch, fock, "gauge_peak")
    _forbid(monkeypatch, fock, "fock_norm")
    _forbid(monkeypatch, operators, "empirical_norm")


def test_decisions_run_no_numerics(no_numerics):
    psi = sy.add(sy.ONE, sy.variable())
    bulk = WeightedCompositionOperator(psi, AffineMap(0.5, 0.2), 2.0, 3.0)
    assert component_id(bulk).kind is ComponentKind.COMPACT_BULK
    small = WeightedCompositionOperator(psi, AffineMap(0.5, 0.2), 3.0, 2.0)
    assert component_id(small).kind is ComponentKind.ALL_CONNECTED
    leaf_phi = AffineMap(UNIT, 1.0)
    leaf = WeightedCompositionOperator(unit_leaf_weight(leaf_phi, 1.0), leaf_phi, 2.0, 2.0)
    assert component_id(leaf).kind is ComponentKind.UNIT_MODULUS_LEAF

    same_map = WeightedCompositionOperator(sy.ONE, AffineMap(0.5, 0.2), 2.0, 3.0)
    assert compact_difference(bulk, same_map).reason is DifferenceReason.SAME_SYMBOL_VANISHING
    other = composition_operator(AffineMap(0.3, 0.0), 2.0, 3.0)
    assert compact_difference(bulk, other).reason is DifferenceReason.BOTH_COMPACT
    leaf2 = WeightedCompositionOperator(unit_leaf_weight(leaf_phi, 2.0), leaf_phi, 2.0, 2.0)
    assert not compact_difference(leaf, leaf2).compact

    assert is_isolated(AffineMap(UNIT, 0.0), 2.0, 2.0)
    assert not is_isolated(AffineMap(0.5, 1.0), 2.0, 2.0)
    assert essential_norm_bracket(leaf) == (math.exp(0.5), 2.0 * math.exp(0.5))
    assert essential_norm_bracket(bulk) == (0.0, 0.0)

    assert decide(small).rules == ("plane-integrability-equivalence", "holder-norm-upper",
                                   "empirical-lower-bound")
    component = run("component", {"psi": "z+1", "phi": "0.5,0.2", "p": 3.0, "q": 2.0})
    assert component.results["kind"] == "AllConnected"
    diff = run("diff", {"psi1": "1", "phi1": "0.5,0", "psi2": "z+1", "phi2": "0.5,0",
                        "p": 2.0, "q": 2.0})
    assert diff.results["reason"] == "SameSymbolVanishing"
    assert run("isolated", {"phi": "1,0", "p": 2.0, "q": 2.0}).results["isolated"] is True
    essnorm = run("essnorm", {"psi": "1", "phi": "1,0", "p": 2.0, "q": 2.0})
    assert essnorm.results["ess_upper"] == {"value": 2.0, "finite": True}

    # the guards are live: the numeric brackets do trip them
    with pytest.raises(AssertionError, match="gauge_peak"):
        classify(bulk)
    with pytest.raises(AssertionError, match="empirical_norm"):
        classify(small)


def test_decide_matches_classify_on_each_branch():
    phi = AffineMap(UNIT, 1.0)
    cases = [
        WeightedCompositionOperator(sy.variable(), AffineMap(0.0, 1.0), 2.0, 2.0),
        WeightedCompositionOperator(unit_leaf_weight(phi, 1.5), phi, 2.0, 3.0),
        WeightedCompositionOperator(unit_leaf_weight(phi, 1.5), phi, 0.5, 3.0),
        WeightedCompositionOperator(sy.variable(), phi, 2.0, 2.0),
        WeightedCompositionOperator(sy.variable(), phi, 3.0, 2.0),
        composition_operator(AffineMap(0.5, 0.3), 2.0, 2.0),
    ]
    for op in cases:
        d, c = decide(op), classify(op)
        assert (d.verdict, d.rules, d.witness) == (c.verdict, c.rules, c.witness)


def test_overflowing_sup_keeps_the_verdict():
    # log gauge sup |2|^2 / (2 (1 - 0.999^2)) ~ 1000 overflows a float
    options = {"psi": "exp(2*z)", "phi": "0.999,0", "p": 2.0, "q": 2.0}
    c = run("classify", options).results
    assert c["verdict"] == "Compact"
    assert c["norm_lower"] == {"value": sys.float_info.max, "finite": True}
    assert c["norm_upper"] == {"value": "inf", "finite": False}
    assert run("component", options).results["kind"] == "CompactBulk"
    diff = run("diff", {"psi1": "exp(2*z)", "phi1": "0.999,0", "psi2": "1", "phi2": "0.5,0",
                        "p": 2.0, "q": 2.0})
    assert diff.results["reason"] == "BothCompact"
    # |b|^2 itself overflows: the log-domain sup reads +inf, never nan
    huge = run("classify", {"psi": "1", "phi": "0.5,1e200", "p": 2.0, "q": 2.0}).results
    assert huge["verdict"] == "Compact"
    assert huge["norm_lower"] == {"value": sys.float_info.max, "finite": True}
    assert huge["norm_upper"] == {"value": "inf", "finite": False}
    # log sup 900 / (2 (1 - 0.9999^2)) ~ 2.25e6
    assert is_isolated(AffineMap(0.9999, 30.0), 2.0, 2.0) is False
    # a leaf whose level e^{|b|^2/2} = e^800 overflows stays bounded
    leaf = {"psi": "exp((-40)*z)", "phi": "1,40", "p": 2.0, "q": 2.0}
    assert run("classify", leaf).results["verdict"] == "BoundedNonCompact"
    assert run("essnorm", leaf).results["ess_lower"] == {"value": sys.float_info.max, "finite": True}
