"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class BraidAlgError(Exception):
    pass


class UnknownFixture(BraidAlgError):
    pass


class NotAssociative(BraidAlgError):
    pass


class NotLie(BraidAlgError):
    pass


class CharTwo(BraidAlgError):
    pass


class NotComposable(BraidAlgError):
    pass


class InternalInvariantViolation(BraidAlgError):
    pass


class ValidationFailed(BraidAlgError):
    """Raised by eager constructors; carries the failing report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvalidAction(ValidationFailed):
    pass


class InvalidXMod(ValidationFailed):
    pass


class InvalidCatAlgebra(ValidationFailed):
    pass


class InvalidInput(ValidationFailed):
    pass


class DslError(BraidAlgError):
    """Frontend error with a 1-based source position."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DslSyntaxError(DslError):
    def __init__(self, message, line, col, expected=()):
        super().__init__(message, line, col)
        self.expected = tuple(expected)


class UnknownReference(DslError):
    pass


class FieldMismatch(DslError):
    pass


class DimensionMismatch(DslError):
    pass
