"""Exception types shared across the package."""

from __future__ import annotations


class ContextNetError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ContextNetError):
    """Vectors of incompatible (or unexpected) dimensions were combined."""


class NotNormalized(ContextNetError):
    """An operation required unit-norm input but received something else."""


class DegenerateSpan(ContextNetError):
    """Input vectors do not span a subspace of the required dimension."""


class OutOfDomain(ContextNetError):
    """A probability parameter lies on or too close to a forbidden boundary."""


class MissingAssignment(ContextNetError):
    """A network node has no vector assigned to it."""


class EmptyTrials(ContextNetError):
    """Sampling needs a positive number of trials."""


#: Probability parameters this close to 0 or 1 are rejected: the scenario
#: constructions lose required non-orthogonality there and some closed-form
#: denominators vanish in the limit.
BOUNDARY_MARGIN = 1e-9


def require_interior(value: float, name: str) -> float:
    """Return ``value`` if it lies inside (0, 1) by at least ``BOUNDARY_MARGIN``.

    Raises:
        OutOfDomain: if ``value`` is within ``BOUNDARY_MARGIN`` of 0 or 1 (or
            outside the unit interval altogether, or NaN).
    """
    v = float(value)
    if not (BOUNDARY_MARGIN <= v <= 1.0 - BOUNDARY_MARGIN):
        raise OutOfDomain(
            f"{name}={v!r} must lie in [{BOUNDARY_MARGIN}, {1.0 - BOUNDARY_MARGIN}]; "
            "boundary values break the scenario's non-orthogonality requirements"
        )
    return v
