"""Complex state-vector primitives for small Hilbert spaces.

Everything operates on immutable complex vectors in fixed finite dimension
(2 to 4 in practice) using double precision with explicit tolerances:

* ``NORM_CHECK_TOL`` (1e-10) for ``StateVector.is_normalized``, the one
  unit-norm check,
* ``ORTH_TOL`` (1e-10) for orthogonality and Gram-determinant decisions,
* ``PROBABILITY_SLACK`` (5e-10) for round-off spill outside [0, 1].

The arithmetic on vectors is Python's: a ``StateVector`` holds a tuple of
Python ``complex``, and ``inner``, ``tensor``, ``cofactor``,
``orthogonal_complement``, ``canonical_phase`` and every norm are IEEE
``+ - * /`` on them, each sum added left to right (``sum`` of floats rounds
differently from Python 3.12 on). No operation mixes a ``complex`` and a
``float`` operand: each float is made ``complex(x)`` first, which is what
Python before 3.14 did itself, while 3.14 follows C99 Annex G and would
give some zeros the other sign. No numpy or BLAS kernel, whose SIMD and
FMA paths depend on the host, touches a vector, so the bits are the same on
every host. The module imports no numpy: building, reporting, copying and
pickling a scenario run without it.

The vector orthogonal to n - 1 given ones of dimension n, which fixes each
derived outcome, is their ``cofactor`` product, written out over numbers.
Its global phase is made deterministic by the phase canon
``first-nonzero-real-positive``: the first component with magnitude above
``ORTH_TOL`` is rotated onto the positive real axis. Re-running any
construction on identical input is bit-identical.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence

from .errors import DegenerateSpan, DimensionMismatch, NotNormalized

ORTH_TOL = 1e-10
PHASE_CANON = "first-nonzero-real-positive"

#: Norm deviation beyond which a vector is not unit norm (``is_normalized``).
NORM_CHECK_TOL = 1e-10

#: Spill outside [0, 1] that ``clamp_probability`` absorbs. Two inputs that
#: pass the norm check give a Born value of at most (1 + t)^4, about 1 + 4t
#: for t = ``NORM_CHECK_TOL``; 5t leaves room for round-off.
PROBABILITY_SLACK = 5 * NORM_CHECK_TOL


class StateVector:
    """Immutable complex vector of fixed finite dimension.

    Represents either a measurement outcome or a prepared state. It holds
    one thing, ``components``: a tuple of Python ``complex``, on which all
    of ``hilbert``'s arithmetic runs. The constructor converts each entry of
    a flat sequence of numbers with ``complex(x)``; the builders pass a
    ready tuple to ``_of``. A number is a ``numbers.Number`` or, like
    numpy's bool, a scalar with ``__float__`` and no ``__len__``.

    Raises:
        TypeError: if the argument is a str, bytes or bytearray, is not
            iterable (a scalar or None), or has an entry that is not a
            number (None, text, or a nested sequence or array row).
        ValueError: if there are no components.
    """

    __slots__ = ("_components",)

    def __init__(self, components) -> None:
        # iterating text would yield characters, and bytes small ints
        if isinstance(components, (str, bytes, bytearray)):
            raise TypeError(f"components {components!r} are text, not numbers")
        c = []
        for i, x in enumerate(components):
            # numpy's bool is no ``numbers.Number`` and has only ``__float__``;
            # an array row has that too, but also a length
            if not isinstance(x, numbers.Number) and (
                not hasattr(type(x), "__float__") or hasattr(type(x), "__len__")
            ):
                raise TypeError(f"component {i} is {x!r}, not a number")
            c.append(complex(x))
        if not c:
            raise ValueError("a state vector needs at least one component")
        self._components = tuple(c)

    @classmethod
    def _of(cls, c: tuple[complex, ...]) -> "StateVector":
        """The vector of a ready, non-empty tuple of Python ``complex``, kept as given."""
        v = object.__new__(cls)
        v._components = c
        return v

    def __reduce__(self):
        # pickle, copy and deepcopy rebuild through the constructor
        return type(self), (self._components,)

    @property
    def components(self) -> tuple[complex, ...]:
        """The components, a tuple of Python ``complex``."""
        return self._components

    def norm(self) -> float:
        return math.sqrt(squared_norm(self._components))

    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= NORM_CHECK_TOL

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        # element by element: a tuple compares identical objects as equal, NaN too
        a, b = self._components, other._components
        return len(a) == len(b) and all(x == y for x, y in zip(a, b))

    def __hash__(self) -> int:
        # complex hashing maps -0.0 to 0.0, so vectors that are == hash alike
        return hash(self._components)

    def __repr__(self) -> str:
        return f"StateVector({list(self._components)})"


def squared_norm(zs: Iterable[complex]) -> float:
    """The sum of |z|^2 over ``zs``, each term re^2 + im^2, added left to right.

    Written as a ``+`` chain rather than ``sum``, which adds floats with
    compensation from Python 3.12 on and so gives other bits there.
    """
    total = 0.0
    for z in zs:
        total += z.real * z.real + z.imag * z.imag
    return total


def basis_vector(dim: int, index: int) -> StateVector:
    """Standard basis vector e_index of dimension ``dim``.

    Raises:
        ValueError: if ``dim`` is not an integer >= 1, or ``index`` not an
            integer in [0, dim). A bool is neither.
    """
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ValueError(f"dimension {dim!r} is not an integer >= 1")
    if isinstance(index, bool) or not isinstance(index, numbers.Integral) or not 0 <= index < dim:
        raise ValueError(f"basis index {index!r} is not an integer in [0, {dim})")
    c = [0j] * dim
    c[index] = 1 + 0j
    return StateVector._of(tuple(c))


def inner(u: StateVector, v: StateVector) -> complex:
    """Inner product, conjugate-linear in the first argument.

    ``inner(u, v)`` is ``conj(u_0) * v_0 + conj(u_1) * v_1 + ...``, added
    left to right, and satisfies ``inner(u, v) == conj(inner(v, u))``.

    Raises:
        DimensionMismatch: if the dimensions differ.
    """
    a, b = u._components, v._components
    n = len(a)
    if n != len(b):
        raise DimensionMismatch(f"dimensions differ: {n} vs {len(b)}")
    # the scenarios' dimensions written out, which saves the loop's overhead
    if n == 3:
        return a[0].conjugate() * b[0] + a[1].conjugate() * b[1] + a[2].conjugate() * b[2]
    if n == 4:
        return (
            a[0].conjugate() * b[0] + a[1].conjugate() * b[1]
            + a[2].conjugate() * b[2] + a[3].conjugate() * b[3]
        )
    total = a[0].conjugate() * b[0]
    for i in range(1, n):
        total += a[i].conjugate() * b[i]
    return total


def clamp_probability(value: float) -> float:
    """Clamp a value into [0, 1], allowing only ``PROBABILITY_SLACK`` of spill.

    Values further outside [0, 1], and NaN, indicate a genuine bug upstream
    and raise ValueError rather than being silently clipped.
    """
    if not -PROBABILITY_SLACK <= value <= 1.0 + PROBABILITY_SLACK:  # NaN too
        raise ValueError(f"value {value!r} is outside [0, 1] by more than {PROBABILITY_SLACK}")
    return min(max(value, 0.0), 1.0)


def born_probability(prep: StateVector, outcome: StateVector) -> float:
    """Probability of obtaining ``outcome`` when the prepared state is ``prep``.

    Returns ``|inner(outcome, prep)|**2``, clamped into [0, 1].

    Raises:
        DimensionMismatch: if the dimensions differ.
        NotNormalized: if either vector's norm deviates from 1 by more
            than ``NORM_CHECK_TOL``.
    """
    overlap = inner(outcome, prep)  # checks the dimensions first
    for name, vec in (("prep", prep), ("outcome", outcome)):
        if not vec.is_normalized():
            raise NotNormalized(f"{name} has norm {vec.norm()!r}, expected 1")
    return clamp_probability(abs(overlap) ** 2)


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Kronecker product of two vectors.

    Component ordering follows the standard Kronecker convention: for two
    two-level systems the product-basis order is (00, 01, 10, 11), i.e. the
    first factor indexes the slower axis. Inner products factorize:
    ``inner(tensor(a, b), tensor(c, d)) == inner(a, c) * inner(b, d)``.

    Each component is one Python complex product ``u_i * v_j``.
    """
    return StateVector._of(tuple([x * y for x in u._components for y in v._components]))


def canonical_phase(components: Sequence[complex]) -> tuple[complex, ...]:
    """Rotate a vector's global phase to the canonical choice.

    The first component c with magnitude above ``ORTH_TOL`` becomes real and
    positive (up to double-precision rounding in its imaginary part): each
    Python complex component is multiplied by ``conj(c) / |c|``.
    """
    for c in components:
        magnitude = abs(c)
        if magnitude > ORTH_TOL:
            phase = c.conjugate() / complex(magnitude)
            return tuple([z * phase for z in components])
    raise ValueError("cannot fix the phase of a numerically zero vector")


def cofactor(rows):
    """The conjugated cofactor vector of n - 1 rows of n numbers, for n = 2, 3 and 4.

    Entry j is the conjugate of the cofactor of column j in the n x n matrix
    whose first n - 1 rows are ``rows``. Expanding the determinant of that
    matrix with a row repeated shows the vector orthogonal to every row,
    and by Cauchy-Binet its squared norm is the rows' Gram determinant: zero
    exactly when they are dependent. Only ``+ - *`` and ``.conjugate()``
    are used, so the entries may be Python numbers, float64 or complex128
    arrays (one entry per grid point) or exact rationals. Element-wise
    float64 products round as Python floats do, so an entry of a float64
    array is bit-identical to the scalar result. In dimension 4 the six
    2 x 2 minors of the last two rows are formed once.

    Raises:
        ValueError: if the rows are not 1 to 3 rows of ``len(rows) + 1`` entries.
    """
    n = len(rows) + 1
    if n not in (2, 3, 4) or set(map(len, rows)) != {n}:
        raise ValueError(f"need 1 to 3 rows of one more entry each, got {len(rows)} rows")
    if n == 2:
        ((u0, u1),) = rows
        return [-u1.conjugate(), u0.conjugate()]
    if n == 3:
        (u0, u1, u2), (v0, v1, v2) = rows
        return [
            (u1 * v2 - u2 * v1).conjugate(),
            (u2 * v0 - u0 * v2).conjugate(),
            (u0 * v1 - u1 * v0).conjugate(),
        ]
    (u0, u1, u2, u3), (v0, v1, v2, v3), (w0, w1, w2, w3) = rows
    m01, m02, m03 = v0 * w1 - v1 * w0, v0 * w2 - v2 * w0, v0 * w3 - v3 * w0
    m12, m13, m23 = v1 * w2 - v2 * w1, v1 * w3 - v3 * w1, v2 * w3 - v3 * w2
    return [
        (u2 * m13 - u1 * m23 - u3 * m12).conjugate(),
        (u0 * m23 - u2 * m03 + u3 * m02).conjugate(),
        (u1 * m03 - u0 * m13 - u3 * m01).conjugate(),
        (u0 * m12 - u1 * m02 + u2 * m01).conjugate(),
    ]


def orthogonal_complement(vectors: Sequence[StateVector]) -> StateVector:
    """Unit vector orthogonal to every input, canonically phased.

    Takes n - 1 inputs of dimension n, for n = 2, 3 or 4. The complement is
    their ``cofactor`` vector, divided by its norm and phased by
    ``canonical_phase``. Its squared norm, the inputs' Gram determinant,
    must be finite and above ``ORTH_TOL``, so that the inputs span an
    (n - 1)-dimensional subspace and the complement is unique up to phase.

    Raises:
        DimensionMismatch: naming the first input not of dimension
            ``len(vectors) + 1``.
        DegenerateSpan: if the Gram determinant is not finite or not above
            ``ORTH_TOL`` (dependent or non-finite inputs).
        ValueError: from ``cofactor``, if there are no inputs or more than 3.
    """
    rows = [v._components for v in vectors]
    n = len(rows) + 1
    for i, row in enumerate(rows):
        if len(row) != n:
            raise DimensionMismatch(f"input {i} is of dimension {len(row)}, expected {n}")
    c = cofactor(rows)
    gram = squared_norm(c)
    if not ORTH_TOL < gram < math.inf:  # NaN too
        raise DegenerateSpan(
            f"inputs have Gram determinant {gram!r}, not a finite value above {ORTH_TOL}"
        )
    norm = complex(math.sqrt(gram))
    return StateVector._of(canonical_phase([z / norm for z in c]))
