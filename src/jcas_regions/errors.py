"""Exception types shared across the package."""

__all__ = [
    "CardinalityExceeded", "DegenerateInput", "DimensionMismatch", "DomainError", "EmptyGrid",
    "JcasError", "MixedArity", "NegativeProbability", "NotDegraded", "OverlapError",
    "SchemaError", "StochasticityError", "UnknownVariable",
]


class JcasError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(JcasError):
    """Channel document is malformed: missing field, wrong shape, bad value."""


class StochasticityError(JcasError):
    """A probability row or table does not sum to one within tolerance."""


class NegativeProbability(JcasError):
    """A probability entry is negative."""


class DomainError(JcasError):
    """A scalar argument lies outside its documented domain."""


class DimensionMismatch(JcasError):
    """Array shapes are inconsistent with the declared alphabets."""


class UnknownVariable(JcasError):
    """A variable name is not part of the joint distribution."""


class OverlapError(JcasError):
    """Variable groups passed to an information measure overlap."""


class DegenerateInput(JcasError):
    """An input expected to be a probability distribution is not one."""


class CardinalityExceeded(JcasError):
    """An auxiliary alphabet is larger than its cardinality cap."""


class NotDegraded(JcasError):
    """The channel lacks the degradedness required by the requested formula."""


class EmptyGrid(JcasError):
    """A grid parameter is too small to produce any grid points."""


class MixedArity(JcasError):
    """Region points with different rate arities were mixed in one set."""
