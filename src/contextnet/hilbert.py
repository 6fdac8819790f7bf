"""Complex state-vector primitives for small Hilbert spaces.

Everything operates on immutable complex vectors in fixed finite dimension
(2 to 4 in practice) using double precision with explicit tolerances:

* ``NORM_CHECK_TOL`` (1e-10) for ``StateVector.is_normalized``, the one
  unit-norm check,
* ``ORTH_TOL`` (1e-10) for orthogonality and rank decisions; the one check
  of an orthonormal basis is ``MeasurementContext``, which
  ``complete_context`` returns,
* ``PROBABILITY_SLACK`` (5e-10) for round-off spill outside [0, 1].

Constructions defined only up to a global phase (orthogonal complements,
basis completions) are made deterministic by the phase canon
``first-nonzero-real-positive``: the first component with magnitude above
``ORTH_TOL`` is rotated onto the positive real axis. Re-running any
construction on identical input is bit-identical.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpan, DimensionMismatch, IncompleteContext, NotNormalized

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

    Represents either a measurement outcome or a prepared state. The
    components are copied on construction, flattened, into an immutable
    ``bytes`` buffer: the array over it is read-only, and numpy refuses to
    make it writable again, so the norm is computed once, on first use, and
    kept.
    """

    __slots__ = ("_components", "_norm")

    def __init__(self, components) -> None:
        v = np.frombuffer(np.asarray(components, np.complex128).tobytes(), np.complex128)
        if v.size == 0:
            raise ValueError("a state vector needs at least one component")
        self._components = v
        self._norm = None

    def __reduce__(self):
        # pickle, copy and deepcopy rebuild through the constructor, which
        # copies into a fresh immutable buffer
        return type(self), (self._components,)

    @property
    def components(self) -> np.ndarray:
        """Read-only component array (complex128)."""
        return self._components

    @property
    def dim(self) -> int:
        return int(self._components.size)

    def norm(self) -> float:
        if self._norm is None:
            self._norm = float(np.linalg.norm(self._components))
        return self._norm

    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= NORM_CHECK_TOL

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self._components.shape == other._components.shape and bool(
            np.array_equal(self._components, other._components)
        )

    def __hash__(self) -> int:
        # Adding 0.0 turns every -0.0 into 0.0, so vectors that are == hash alike.
        return hash((self._components + 0.0).tobytes())

    def __repr__(self) -> str:
        body = np.array2string(self._components, separator=", ", precision=8)
        return f"StateVector({body})"


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
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return StateVector(v)


def inner(u: StateVector, v: StateVector) -> complex:
    """Inner product, conjugate-linear in the first argument.

    ``inner(u, v)`` equals ``sum(conj(u_i) * v_i)`` and satisfies
    ``inner(u, v) == conj(inner(v, u))``.

    Raises:
        DimensionMismatch: if the dimensions differ.
    """
    a, b = u._components, v._components
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimensions differ: {a.size} vs {b.size}")
    return complex(np.vdot(a, b))


class InnerPairs:
    """The inner products of a fixed list of keyed pairs, from one stacked pass.

    ``InnerPairs(pairs)(vectors)`` is ``[inner(vectors[x], vectors[y]) for
    x, y in pairs]``, bit for bit: one ``np.matmul`` of the conjugated left
    rows with the right columns computes each entry as the same dot product
    ``np.vdot`` does (``einsum`` and ``.sum`` add in other orders, so their
    bits differ). The rows each key gathers are fixed at construction.
    """

    __slots__ = ("pairs", "_keys", "_left", "_right")

    def __init__(self, pairs: Sequence[tuple[Hashable, Hashable]]) -> None:
        self.pairs = tuple(pairs)
        self._keys = tuple(dict.fromkeys(key for pair in self.pairs for key in pair))
        row = {key: i for i, key in enumerate(self._keys)}
        self._left, self._right = (
            np.array([row[pair[side]] for pair in self.pairs], dtype=np.intp) for side in (0, 1)
        )

    def __call__(self, vectors: Mapping[Hashable, StateVector]) -> list[complex]:
        """The inner product of each pair's vectors, in pair order.

        Raises:
            DimensionMismatch: if the paired vectors differ in dimension.
        """
        if not self.pairs:
            return []
        try:
            m = np.array([vectors[key]._components for key in self._keys])
        except ValueError:  # numpy stacks only vectors of one length
            dims = sorted({vectors[key].dim for key in self._keys})
            raise DimensionMismatch(f"dimensions differ: {dims}") from None
        products = np.matmul(m.conj()[self._left, None, :], m[self._right, :, None])
        return products.reshape(-1).tolist()


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

    Computed as a broadcast outer product: the same element-wise complex
    multiply as ``np.kron``, so the same bits, without its per-call overhead.
    """
    return StateVector((u._components[:, None] * v._components).reshape(-1))


def canonical_phase(components: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase to the canonical choice.

    The first component with magnitude above ``ORTH_TOL`` becomes real and
    positive (up to double-precision rounding in its imaginary part).
    """
    v = np.asarray(components, dtype=np.complex128)
    for c in v.tolist():
        if abs(c) > ORTH_TOL:
            return v * np.exp(-1j * np.arctan2(c.imag, c.real))  # np.angle(c), without its wrapper
    raise ValueError("cannot fix the phase of a numerically zero vector")


def _null_spaces(
    groups: Sequence[Sequence[StateVector]], dim: int
) -> tuple[list[int], np.ndarray]:
    """The rank of each group and its right-singular vectors, from one stacked SVD.

    Group ``i`` spans a subspace of dimension ``ranks[i]``, the number of its
    squared singular values (the Gram eigenvalues, basis-independent) above
    ``ORTH_TOL``, and rows ``ranks[i]:`` of ``vh[i]`` are an orthonormal basis
    of its complement. numpy runs LAPACK on each matrix of the stack in turn,
    so every group gets the bits it would get alone.

    The dimensions are checked once, on the stacked array's last axis; the
    inputs are walked one by one only to name a wrong one. A rank is counted
    from the Python floats of ``sv``: ``x * x`` is the IEEE product that
    ``sv * sv`` takes.

    Raises:
        DimensionMismatch: if any input is not of dimension ``dim``.
        DegenerateSpan: if some input is not finite.
        ValueError: if the groups differ in size.
    """
    try:
        m = np.array([[v._components for v in group] for group in groups], dtype=np.complex128)
    except ValueError:  # the inputs differ in dimension, or the groups in size
        _require_dim(groups, dim)
        raise
    if m.shape[-1] != dim:  # also when there is no input, and then nothing is wrong
        _require_dim(groups, dim)
    size = len(groups[0]) if groups else 0
    try:
        _, sv, vh = np.linalg.svd(m.reshape(len(groups), size, dim))
    except np.linalg.LinAlgError as exc:  # raised for NaN inputs
        raise DegenerateSpan(f"inputs cannot be decomposed: {exc}") from exc
    rows = sv.tolist()
    if math.isnan(sum(map(sum, rows))):  # an infinite input gives NaN singular values
        raise DegenerateSpan("inputs are not finite")
    return [sum(x * x > ORTH_TOL for x in row) for row in rows], vh


def _require_dim(groups: Sequence[Sequence[StateVector]], dim: int) -> None:
    """Raise ``DimensionMismatch`` for the first input not of dimension ``dim``."""
    for group in groups:
        for v in group:
            if v.dim != dim:
                raise DimensionMismatch(f"input of dimension {v.dim}, expected {dim}") from None


def orthogonal_complements(
    groups: Sequence[Sequence[StateVector]], dim: int
) -> list[StateVector]:
    """``[orthogonal_complement(group, dim) for group in groups]``, from one stacked SVD.

    The groups must be of one size. The results are bit for bit those of
    the per-group calls. A stack with one group that the per-group call
    rejects raises that call's error, with the same message.

    Raises:
        DimensionMismatch: if any input is not of dimension ``dim``.
        DegenerateSpan: if some group spans fewer or more than dim - 1
            dimensions, or some input is not finite.
        ValueError: if the groups differ in size.
    """
    ranks, vh = _null_spaces(groups, dim)
    for rank in ranks:
        if rank != dim - 1:
            raise DegenerateSpan(
                f"inputs span a subspace of dimension {rank}, expected {dim - 1}"
            )
    return [StateVector(canonical_phase(rows[-1])) for rows in vh]


def orthogonal_complement(vectors: Sequence[StateVector], dim: int) -> StateVector:
    """Unit vector orthogonal to every input, canonically phased.

    The inputs must span a (dim - 1)-dimensional subspace so that the
    complement is unique up to phase; the rank counts squared singular
    values above ``ORTH_TOL``. The stack of one of ``orthogonal_complements``.

    Raises:
        DimensionMismatch: if any input is not of dimension ``dim``.
        DegenerateSpan: if the inputs span fewer or more than dim - 1
            dimensions (complement not unique, or empty), or are not finite.
    """
    return orthogonal_complements([list(vectors)], dim)[0]


@dataclass(frozen=True)
class MeasurementContext:
    """A complete orthonormal basis; each vector is one outcome.

    The one orthonormality check: ``dim`` outcomes that pass ``is_normalized``,
    with every |<u|v>| below ``ORTH_TOL`` (a NaN is not), are complete. With
    Gram matrix I + E their projector sum, of spectrum I + E, is within
    ``dim * max|E_ij|`` of the identity in every entry; nothing else is tested.
    """

    outcomes: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        outcomes = tuple(self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        if not outcomes:
            raise IncompleteContext("a measurement context needs at least one outcome")
        n = len(outcomes)
        if any(o.dim != n for o in outcomes):  # a basis of n outcomes in dimension n
            raise IncompleteContext(f"{n} outcomes must each be of dimension {n}")
        if not all(o.is_normalized() for o in outcomes):
            raise IncompleteContext("outcomes are not unit vectors")
        for i, u in enumerate(outcomes):
            for v in outcomes[i + 1:]:
                if not abs(inner(u, v)) < ORTH_TOL:
                    raise IncompleteContext("outcomes are not mutually orthogonal")

    @property
    def dim(self) -> int:
        return self.outcomes[0].dim


def complete_context(vectors: Sequence[StateVector], dim: int) -> MeasurementContext:
    """Deterministically extend orthonormal vectors to a full measurement context.

    The new vectors are the canonically phased null rows of ``_null_spaces``, so
    the completion is reproducible bit for bit. The context's outcomes start
    with the inputs, unchanged, and ``MeasurementContext`` checks them all.

    Raises:
        DimensionMismatch: if any input is not of dimension ``dim``.
        DegenerateSpan: if some input is not finite.
        IncompleteContext: if the inputs are not unit norm, not mutually
            orthogonal (some |<u|v>| is not below ``ORTH_TOL``) or not
            independent.
    """
    vecs = list(vectors)
    (rank,), (vh,) = _null_spaces([vecs], dim)
    return MeasurementContext((*vecs, *(StateVector(canonical_phase(r)) for r in vh[rank:])))
