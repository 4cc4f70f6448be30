"""Exception hierarchy for focklab.

Two failure families matter for the CLI contract: violations of a
theorem's hypotheses or of an operator's admissibility (exit code 2),
and numeric failures where the engine cannot certify a result at the
requested tolerance (exit code 3).
"""

from __future__ import annotations


class FocklabError(Exception):
    """Base class for all focklab errors."""

    exit_code = 1


class HypothesisViolated(FocklabError):
    """An operation was invoked outside the range where its result is defined."""

    exit_code = 2


class Inadmissible(HypothesisViolated, ValueError):
    """A value outside its admissible range: a Fock exponent, a map slope,
    a non-finite coefficient or an engine tolerance."""


class NotBounded(HypothesisViolated):
    """An operator required to be bounded is not."""


class ZeroSymbol(HypothesisViolated):
    """The weight symbol is identically zero; operators require a nonzero weight."""


class ParseError(FocklabError):
    """Symbol text does not conform to the documented grammar."""

    exit_code = 2

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NumericFailure(FocklabError):
    """The numeric engine could not certify a value."""

    exit_code = 3


class ToleranceNotMet(NumericFailure):
    """Adaptive refinement exhausted its budget before reaching the tolerance."""


class TailLoss(NumericFailure):
    """A truncated matrix column lost more mass than the tolerance allows."""
