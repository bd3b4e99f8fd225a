"""Exception types shared across the package.

Every domain error carries a machine-readable ``code`` (the class name
without the ``Error`` suffix) plus a ``context`` dict, so front ends can
emit structured error objects instead of stack traces.
"""

from __future__ import annotations


class ConeFourierError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    @property
    def code(self) -> str:
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name


class MalformedInputError(ConeFourierError):
    """Unparseable or schema-violating input (CLI exit status 2)."""


class DimensionError(ConeFourierError):
    """Input has the wrong shape: non-square matrix, mismatched lengths."""


class ZeroGeneratorError(ConeFourierError):
    pass


class DuplicateRayError(ConeFourierError):
    pass


class NotPointedError(ConeFourierError):
    """The generators admit a nontrivial nonnegative combination of zero."""


class NotGenericError(ConeFourierError):
    """Some d-subset of generators is linearly dependent."""


class SingularSimplexError(ConeFourierError):
    pass


class DegenerateDiagonalError(ConeFourierError):
    pass


class RankDeficientError(ConeFourierError):
    """Fewer independent interpolation rows than unknown coefficients."""


class InconsistentError(ConeFourierError):
    """A leftover interpolation row is not satisfied by the solution."""


class VerificationFailureError(ConeFourierError):
    """A determinant identity check failed; carries the counterexample."""


class NotFullDimensionalError(ConeFourierError):
    pass


class NonSimplicialFacetError(ConeFourierError):
    pass


class DegenerateVertexError(ConeFourierError):
    pass


class SingularEvaluationPointError(ConeFourierError):
    """Some generator linear form vanishes at the evaluation point."""


class FloatOverflowError(ConeFourierError):
    """An exact ratio or phase at the evaluation point is too large for a float."""
