"""Exception hierarchy for the fermat_pdde package."""

from __future__ import annotations


class PDDEError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PDDEError):
    """Syntax or semantic error while parsing an expression string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimensionError(PDDEError):
    """Variable index, point length, or shift vector does not match the dimension."""


class EvalError(PDDEError):
    """Evaluation of an expression failed."""


class PoleHitError(EvalError):
    """Evaluation hit a (near-)zero denominator or a lattice point of wp."""


class ProblemSpecError(PDDEError):
    """An equation instance violates the invariants of its kind."""


class ConstructionError(PDDEError):
    """Inputs to a solution constructor fail a required relation."""


class ProblemFileError(PDDEError):
    """A problem file is malformed or inconsistent."""


class EstimationError(PDDEError):
    """Growth-order estimation could not produce a usable fit."""
