"""Exception taxonomy.

``UsageError`` subclasses signal bad input (CLI exit code 2); ``NumericError``
subclasses signal that a computation could not be completed (CLI exit code 3).
"""

from __future__ import annotations


class KKT2Error(Exception):
    """Base class for all library errors."""


class UsageError(KKT2Error):
    pass


class DimensionMismatch(UsageError):
    pass


class ParseError(UsageError):
    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class InfeasiblePoint(UsageError):
    pass


class NumericError(KKT2Error):
    pass


class IterationLimit(NumericError):
    """A simplex pivot budget or the NNLS step budget is exhausted; signals
    pathological input."""


class UnboundedPolytope(NumericError):
    pass


class PolytopeTooLarge(NumericError):
    pass


class EmptyMultiplierSet(NumericError):
    pass


class UnboundedMultiplierSet(NumericError):
    pass


class NonFiniteValue(NumericError):
    pass
