"""Exception taxonomy.

Two families: ``UsageError`` for malformed input (bad shapes, bad scalars,
mixed fields), ``MathFailure`` for genuine mathematical failures (a violated
axiom, an unmet hypothesis, a broken exactness certificate).  The command
line maps them to exit codes 2 and 1 respectively.
"""

from __future__ import annotations

ECHO_LIMIT = 40  # the most characters of a piece of input an error message repeats


def echo(value) -> str:
    """The repr of a piece of input for an error message, cut to
    ``ECHO_LIMIT`` characters so that a huge value cannot flood it."""
    text = repr(value)
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT - 3] + "..."


class UsageError(Exception):
    """Malformed or inconsistent input data."""


class ParseError(UsageError):
    pass


class SemanticError(UsageError):
    pass


class StructureError(UsageError):
    pass


class DimensionError(UsageError):
    pass


class FieldMismatch(UsageError):
    pass


class MathFailure(Exception):
    """A mathematical check failed; carries a human-readable witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotWellDefined(MathFailure):
    pass


class ParentMismatch(MathFailure):
    pass


class NotAnIdeal(MathFailure):
    pass


class NotAlphaStable(MathFailure):
    pass


class NotEndomorphism(MathFailure):
    pass


class InvalidAction(MathFailure):
    pass


class IncompatibleActions(MathFailure):
    pass


class BracketNotWellDefined(MathFailure):
    pass


class NotEquivariant(MathFailure):
    pass


class NotSurjective(MathFailure):
    pass


class KernelMismatch(MathFailure):
    pass


class NotPerfect(MathFailure):
    pass


class NotAlphaPerfect(MathFailure):
    pass


class BaseMismatch(MathFailure):
    pass


class NotCentral(MathFailure):
    pass


class AlphaIdentityFails(MathFailure):
    pass


class InternalInconsistency(MathFailure):
    """A certificate that should hold by theory failed on this instance."""
