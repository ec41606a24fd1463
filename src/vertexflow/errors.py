"""Exception hierarchy shared by all vertexflow modules."""

from __future__ import annotations


class VertexflowError(Exception):
    """Base class for all errors raised by this package.

    ``field``, when given, names the offending input by its argument and attribute
    names, such as ``points`` or ``params/row_rapidities``.  The CLI's JSON
    documents use the same names, so it reports the error at ``/`` + field.
    """

    def __init__(self, message: str = "", field: str | None = None):
        super().__init__(message)
        self.field = field


class ValidationError(VertexflowError):
    """Invalid user-supplied data (domains, configs, queries)."""


class PathMismatchError(ValidationError):
    """Paths do not share endpoints or have unequal length."""


class PathOrderError(ValidationError):
    """Q is not weakly below-left of P."""


class NonMonotoneColoringError(ValidationError):
    """Boundary coloring is not nondecreasing."""


class ParameterRangeError(VertexflowError):
    """Vertex weights leave [0, 1]; sampling is undefined for these parameters."""


class ParameterSingularityError(VertexflowError):
    """A weight formula hit a vanishing denominator (e.g. z = q, sz = 1)."""


class SingularEvaluationError(VertexflowError):
    """Pointwise evaluation requested at a coincident-variable point."""


class ContourError(VertexflowError):
    """No valid contour geometry exists for the given pole configuration."""


class ContourResolutionError(VertexflowError):
    """Quadrature hit a non-finite value: the parameters overflow the integrand."""


class UnsupportedRegimeError(VertexflowError):
    """The query falls outside the regime covered by the implemented formula."""


class EnumerationCapError(VertexflowError):
    """Exhaustive enumeration would exceed the configured size cap."""
