"""Exception hierarchy for the toolkit.

Every error raised on purpose derives from ToolkitError so callers can
catch the whole family at an API boundary without swallowing genuine
bugs (TypeError, KeyError from our own internals, ...).
"""


class ToolkitError(Exception):
    """Base class for all errors raised deliberately by this package."""


class InputError(ToolkitError):
    """Malformed user input: bad JSON schema, bad CLI argument combination."""


class IndexOutOfLambda(ToolkitError):
    """A jet variable (i, alpha) lies outside the admissible index set."""


class NotInvertible(ToolkitError):
    """Attempt to invert a series whose constant term vanishes."""


class TruncationExhausted(ToolkitError):
    """Requested output order exceeds what the input truncation supports."""


class NegativeCoefficient(ToolkitError):
    """A majorant-side polynomial was handed a negative coefficient."""


class NonpositiveExponent(ToolkitError):
    """Weighted integral transform needs a strictly positive exponent."""


class A2Violation(ToolkitError):
    """Right-hand side has nonzero terms independent of t and the jet."""


class A3Violation(ToolkitError):
    """A t-free term is linear in a jet variable with spatial derivatives."""


class IndicialZero(ToolkitError):
    """The indicial polynomial vanishes at some positive integer."""


class InexactRoots(ToolkitError):
    """Certification needs exponents representable as exact complex rationals."""


class HypothesisViolated(ToolkitError):
    """An analytic hypothesis of the certified construction fails."""


class UnsplittableTerm(ToolkitError):
    """A term of the normalised equation fits none of the admitted groups."""


class SearchExhausted(ToolkitError):
    """Parameter search hit its halving budget without satisfying the bound."""
