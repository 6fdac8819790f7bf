"""Exception types shared across the package.

Each is a ``ValueError``, as Python's own domain error (``math.sqrt(-1)``) is.
"""

from __future__ import annotations

import numbers


class ContextNetError(ValueError):
    """Base class of the package's named bad-value errors."""


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


#: Probability parameters this close to 0 or 1 are rejected: the scenario
#: constructions lose required non-orthogonality there and some closed-form
#: denominators vanish in the limit.
BOUNDARY_MARGIN = 1e-9


def require_real(value, name: str) -> float:
    """``value`` as a Python float; a ValueError naming ``name`` if it is not a real number.

    A bool or a string is not a real number, and an int too large for a
    float is refused as well.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}={value!r} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


def require_interior(value: float, name: str) -> float:
    """Return ``value`` as a float if it lies inside (0, 1) by at least ``BOUNDARY_MARGIN``.

    Raises:
        ValueError: if ``value`` is not a real number (see ``require_real``).
        OutOfDomain: if ``value`` is within ``BOUNDARY_MARGIN`` of 0 or 1 (or
            outside the unit interval altogether, or NaN).
    """
    v = require_real(value, name)
    if not (BOUNDARY_MARGIN <= v <= 1.0 - BOUNDARY_MARGIN):
        raise OutOfDomain(
            f"{name}={v!r} must lie in [{BOUNDARY_MARGIN}, {1.0 - BOUNDARY_MARGIN}]; "
            "boundary values break the scenario's non-orthogonality requirements"
        )
    return v
