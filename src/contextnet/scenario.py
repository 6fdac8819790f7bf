"""Bases of the scenario modules: validated parameters and labeled vectors.

A scenario module declares its parameters as frozen dataclass fields, its
outcome labels in a ``LABELS`` table, its derived vectors in a ``DERIVED``
table and its relations as rows over labelled overlaps.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType
from typing import ClassVar, Mapping

from .errors import OutOfDomain, require_interior
from .hilbert import InnerPairs, StateVector, orthogonal_complements
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
    to the read-only attribute that returns its vector. ``DIM`` is the
    dimension of those vectors, and ``DERIVED`` lists each derived label
    with the labels it is orthogonal to, after any derived label it uses.
    ``OVERLAPS`` lists the (x, y) pairs whose <x|y> the relations read.
    ``SAMPLED`` names the (prepared state, detected outcome) pair whose
    frequency the oracle samples.

    ``STAGES`` groups the entries of ``DERIVED`` when the class is defined:
    a stage needs only seeds and earlier stages, and all its entries are
    orthogonal to equally many labels, so one stacked SVD builds it.
    """

    LABELS: ClassVar[Mapping[str, str]]
    DIM: ClassVar[int]
    DERIVED: ClassVar[tuple[tuple[str, tuple[str, ...]], ...]]
    OVERLAPS: ClassVar[tuple[tuple[str, str], ...]]
    SAMPLED: ClassVar[tuple[str, str]]
    STAGES: ClassVar[tuple[tuple[tuple[str, tuple[str, ...]], ...], ...]]
    _inner_pairs: ClassVar[InnerPairs]  # the stacked pass over OVERLAPS

    params: Params
    vectors: Mapping[str, StateVector] = field(hash=False)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for label, attr in cls.LABELS.items():
            setattr(cls, attr, property(lambda self, label=label: self.vectors[label]))
        depth: dict[str, int] = {}
        stages: dict[tuple[int, int], list] = {}
        for label, orthogonal_to in cls.DERIVED:
            depth[label] = max((depth[o] + 1 for o in orthogonal_to if o in depth), default=0)
            key = (depth[label], len(orthogonal_to))
            stages.setdefault(key, []).append((label, orthogonal_to))
        cls.STAGES = tuple(tuple(stages[key]) for key in sorted(stages))
        cls._inner_pairs = InnerPairs(cls.OVERLAPS)

    # A mappingproxy does not pickle, so pickle and deepcopy carry a plain dict.
    def __getstate__(self) -> dict:
        return {**self.__dict__, "vectors": dict(self.vectors)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, vectors=MappingProxyType(state["vectors"]))

    @classmethod
    def build(cls, params: Params, seeds: Mapping[str, StateVector]):
        """The scenario that completes ``seeds`` (label -> vector) along ``DERIVED``.

        Each derived label is the orthogonal complement of the vectors it is
        orthogonal to, with the bits of an ``orthogonal_complement`` call;
        each of ``STAGES`` takes one ``orthogonal_complements`` call.
        """
        vectors = dict(seeds)
        for stage in cls.STAGES:
            groups = [[vectors[other] for other in orthogonal_to] for _, orthogonal_to in stage]
            derived = orthogonal_complements(groups, cls.DIM)
            vectors.update(zip([label for label, _ in stage], derived))
        # Stages finish out of DERIVED order; ``vectors`` keeps LABELS order.
        ordered = {label: vectors[label] for label in cls.LABELS}
        return cls(params, MappingProxyType(ordered))

    def realization(self) -> Mapping[str, StateVector]:
        """The label -> vector assignment that ``validate_realization`` checks."""
        return self.vectors

    def overlaps(self) -> dict[tuple[str, str], complex]:
        """``o[x, y]`` = <x|y> for every pair of ``OVERLAPS``, from one stacked pass.

        A pair that ``OVERLAPS`` does not list is a ``KeyError``; ``o[y, x]``
        is an entry of its own.
        """
        return dict(zip(self.OVERLAPS, self._inner_pairs(self.vectors)))

    def report(self, *rows: tuple[str, Scalar, Scalar]) -> RelationReport:
        """The report of ``(id, formula value, direct value)`` rows, in order."""
        return RelationReport(
            params=self.params.to_dict(),
            relations=tuple([
                Relation(rel_id, formula, direct, abs(formula - direct))
                for rel_id, formula, direct in rows
            ]),
        )
