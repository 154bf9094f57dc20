"""Exception types shared across the package."""


class QTsallisError(Exception):
    """Base class for all package errors."""


class ValidationError(QTsallisError, ValueError):
    """An input violates a documented precondition or invariant."""


class CapacityError(QTsallisError, ValueError):
    """A requested object exceeds the supported dimension cap."""


class NumericalError(QTsallisError, ArithmeticError):
    """An internal numerical cross-check or decomposition failed."""


class MonotonicityError(QTsallisError):
    """A threshold curve rose where it was required to be non-increasing.

    Carries the offending pair of points as ``first`` and ``second``.
    """

    def __init__(self, message, first=None, second=None):
        super().__init__(message)
        self.first = first
        self.second = second
