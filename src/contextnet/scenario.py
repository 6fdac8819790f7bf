"""Bases of the scenario modules: validated parameters and labeled vectors.

A scenario module declares its parameters as the fields of a named tuple
and its outcome labels in a ``LABELS`` table. Its builder computes every
vector, each derived one with its own ``orthogonal_complement`` call (a
cofactor product), and hands them to ``Scenario.build`` in ``LABELS``
order. Its ``verify_all`` makes one ``inner`` call per ordered pair of
vectors that its relations read and reports the relations as rows.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from collections.abc import Mapping, Sequence
from types import MappingProxyType

from .errors import OutOfDomain, require_interior
from .hilbert import StateVector
from .report import Relation, RelationReport, Scalar


def _real(name: str, value) -> float:
    """``value`` as a Python float; a ValueError naming ``name`` if it is not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}={value!r} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


class Params(tuple):
    """Free data of a scenario: a named tuple of floats, declared by a subclass.

    A subclass derives from ``Params`` and from the ``namedtuple`` of its
    fields. A field without a default is a probability, checked by
    ``require_interior``; a field with a default is a phase, which must be
    finite. Either failure raises ``OutOfDomain`` on construction.

    Every value must be a real number (a bool or a string is not one) and
    is stored as a Python float; otherwise construction raises
    ``ValueError``, naming the field. All fields pass the type check before
    any is checked against its domain. ``_replace`` and ``_make`` construct
    through the same checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for value in self:
            if type(value) is not float:
                self = tuple.__new__(cls, [_real(*item) for item in zip(cls._fields, self)])
                break
        phases = cls._field_defaults
        for name, value in zip(cls._fields, self):
            if name not in phases:
                require_interior(value, name)
            elif not math.isfinite(value):
                raise OutOfDomain(f"{name}={value!r} must be a finite phase")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def to_dict(self) -> dict[str, float]:
        return self._asdict()

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Params":
        """Parameters from a JSON object whose values are numbers.

        Raises:
            ValueError: if ``doc`` is not a mapping or has unknown or missing
                keys, or, from the constructor, if a value is not a real number.
        """
        if not isinstance(doc, Mapping):
            raise ValueError(f"parameters must be a JSON object, got {type(doc).__name__}")
        names = cls._fields
        unknown = set(doc) - set(names)
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        required = [name for name in names if name not in cls._field_defaults]
        if any(name not in doc for name in required):
            raise ValueError(f"parameters require {', '.join(map(repr, required))}")
        return cls(**{name: doc[name] for name in names if name in doc})


class Scenario(namedtuple("Scenario", "params vectors")):
    """The parameters of a scenario and its built outcome vectors by label.

    ``vectors`` is the read-only label -> vector mapping, in ``LABELS``
    order, that ``build`` fills once. A subclass declares ``LABELS``, which
    maps each figure node label to the read-only attribute that returns its
    vector, and ``SAMPLED``, the (prepared state, detected outcome) pair
    whose frequency the oracle samples. A scenario hashes as its params, and
    pickle and deepcopy rebuild it through ``build``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for label, attr in cls.LABELS.items():
            setattr(cls, attr, property(lambda self, label=label: self.vectors[label]))

    def __hash__(self) -> int:
        return hash(self.params)

    # A mappingproxy does not pickle, so pickle and deepcopy carry the vectors.
    def __reduce__(self):
        return type(self).build, (self.params, tuple(self.vectors.values()))

    @classmethod
    def build(cls, params: Params, vectors: Sequence[StateVector]):
        """The scenario of ``params`` whose vectors, given in ``LABELS`` order, get its labels.

        Raises:
            ValueError: if there are not as many vectors as labels.
        """
        return cls(params, MappingProxyType(dict(zip(cls.LABELS, vectors, strict=True))))

    def realization(self) -> Mapping[str, StateVector]:
        """The label -> vector assignment that ``validate_realization`` checks."""
        return self.vectors

    def report(self, *rows: tuple[str, Scalar, Scalar]) -> RelationReport:
        """The report of ``(id, formula value, direct value)`` rows, in order."""
        return RelationReport(
            self.params._asdict(),
            tuple([
                Relation(rel_id, formula, direct, abs(formula - direct))
                for rel_id, formula, direct in rows
            ]),
        )
