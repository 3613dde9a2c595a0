"""Exceptions shared across the package.

Everything raised on purpose derives from PolydivError, so callers (the CLI in
particular) can separate domain errors from genuine bugs.
"""

from __future__ import annotations


class PolydivError(Exception):
    """Base class for all structured errors raised by this package."""


class RankMismatchError(PolydivError):
    """Vectors or generators of inconsistent length were combined."""


class UnsupportedRankError(PolydivError):
    """The requested operation is only guaranteed up to a fixed rank."""


class ShapeError(PolydivError):
    """Input violates a structural precondition (wrong base kind, wrong cone...)."""


class NotProperError(PolydivError):
    """An operation that needs a proper divisor received a non-proper one."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonIntegralError(PolydivError):
    """A divisor with fractional coefficients reached an integral-only operation."""


class CurveDomainError(PolydivError):
    """Operation undefined for this curve model (degree on affine models, ...)."""


class PointError(PolydivError):
    """A point is malformed or does not lie on the stated curve."""


class InvalidInputError(PolydivError):
    """A problem document failed semantic validation; carries the violations."""

    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations) or "invalid input")
        self.violations = list(violations)


class ParseError(PolydivError):
    """A problem document failed to parse; position annotated when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class InternalError(PolydivError):
    """A consistency check between independently computed answers failed: a bug."""
