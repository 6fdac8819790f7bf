"""Bases of the scenario modules: validated parameters and labeled vectors.

A scenario module declares its parameters as frozen dataclass fields and
its outcome labels in a ``LABELS`` table. Its builder computes every
vector, each derived one with its own ``orthogonal_complement`` call (a
cofactor product), and hands them to ``Scenario.build`` in ``LABELS``
order. Its ``verify_all`` makes one ``inner`` call per ordered pair of
vectors that its relations read and reports the relations as rows.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType
from typing import ClassVar, Mapping, Sequence

from .errors import OutOfDomain, require_interior
from .hilbert import StateVector
from .report import Relation, RelationReport, Scalar


@functools.cache
def _field_names(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The field names of a ``Params`` class, and those of its probabilities.

    Worked out on a class's first use, once, instead of at every call.
    """
    names = tuple(f.name for f in fields(cls))
    return names, tuple(f.name for f in fields(cls) if f.default is MISSING)


@dataclass(frozen=True)
class Params:
    """Free data of a scenario, declared as the float fields of a subclass.

    A field without a default is a probability, checked by
    ``require_interior``; a field with a default is a phase, which must be
    finite. Either failure raises ``OutOfDomain`` on construction.

    Every value must be a real number (a bool or a string is not one) and
    is stored as a Python float; otherwise construction raises
    ``ValueError``, naming the field. All fields pass the type check before
    any is checked against its domain.
    """

    def __post_init__(self) -> None:
        names, probabilities = _field_names(type(self))
        for name in names:
            value = getattr(self, name)
            if type(value) is float:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name}={value!r} must be a number")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise ValueError(f"{name} is an integer too large for a float") from None
        for name in names:
            value = getattr(self, name)
            if name in probabilities:
                require_interior(value, name)
            elif not math.isfinite(value):
                raise OutOfDomain(f"{name}={value!r} must be a finite phase")

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _field_names(type(self))[0]}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Params":
        """Parameters from a JSON object whose values are numbers.

        Raises:
            ValueError: if ``doc`` is not a mapping or has unknown or missing
                keys, or, from the constructor, if a value is not a real number.
        """
        if not isinstance(doc, Mapping):
            raise ValueError(f"parameters must be a JSON object, got {type(doc).__name__}")
        names, required = _field_names(cls)
        unknown = set(doc) - set(names)
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        if any(name not in doc for name in required):
            raise ValueError(f"parameters require {', '.join(map(repr, required))}")
        return cls(**{name: doc[name] for name in names if name in doc})


@dataclass(frozen=True)
class Scenario:
    """The parameters of a scenario and its built outcome vectors by label.

    ``vectors`` is the read-only label -> vector mapping, in ``LABELS``
    order, that ``build`` fills once. ``LABELS`` maps each figure node label
    to the read-only attribute that returns its vector. ``SAMPLED`` names
    the (prepared state, detected outcome) pair whose frequency the oracle
    samples.
    """

    LABELS: ClassVar[Mapping[str, str]]
    SAMPLED: ClassVar[tuple[str, str]]

    params: Params
    vectors: Mapping[str, StateVector] = field(hash=False)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for label, attr in cls.LABELS.items():
            setattr(cls, attr, property(lambda self, label=label: self.vectors[label]))

    # A mappingproxy does not pickle, so pickle and deepcopy carry a plain dict.
    def __getstate__(self) -> dict:
        return {**self.__dict__, "vectors": dict(self.vectors)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, vectors=MappingProxyType(state["vectors"]))

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
            params=self.params.to_dict(),
            relations=tuple([
                Relation(rel_id, formula, direct, abs(formula - direct))
                for rel_id, formula, direct in rows
            ]),
        )
