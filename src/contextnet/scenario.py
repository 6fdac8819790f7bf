"""Bases of the scenario modules: validated parameters and labeled vectors.

A scenario module declares its parameters as the fields of a named tuple,
its outcome labels in a ``LABELS`` table and its figure in ``NETWORK``.
The figure is the one statement of which outcomes are orthogonal: each
label that the builder does not give is derived from it, as the
``orthogonal_complement`` (a cofactor product) of the label's figure
neighbours that come before it in ``LABELS``. The builder computes only the
free vectors, a prefix of ``LABELS``, and ``Scenario.build`` derives the
rest. Its ``verify_all`` makes one ``inner`` call per ordered pair of
vectors that its relations read and reports the relations as rows.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping, Sequence
from types import MappingProxyType

from .errors import OutOfDomain, require_interior, require_real
from .hilbert import StateVector, orthogonal_complement
from .report import Relation, RelationReport, Scalar


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
                values = [require_real(v, name) for name, v in zip(cls._fields, self)]
                self = tuple.__new__(cls, values)
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
    vector; ``NETWORK``, its figure, whose nodes are the labels; and
    ``SAMPLED``, the (prepared state, detected outcome) pair whose
    frequency the oracle samples. A scenario hashes as its params, and
    pickle and deepcopy rebuild it through ``build`` from every vector.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        labels = tuple(cls.LABELS)
        if set(labels) != set(cls.NETWORK.nodes):
            raise ValueError(f"{cls.__name__}: LABELS and NETWORK name different outcomes")
        for label, attr in cls.LABELS.items():
            setattr(cls, attr, property(lambda self, label=label: self.vectors[label]))
        edges = set(cls.NETWORK.edges)
        # Each label with its figure neighbours that come before it in LABELS:
        # the vectors that a derived label is the complement of, in that order.
        cls._PLAN = tuple(
            (label, tuple(x for x in labels[:i] if (x, label) in edges or (label, x) in edges))
            for i, label in enumerate(labels)
        )

    def __hash__(self) -> int:
        return hash(self.params)

    # A mappingproxy does not pickle, so pickle and deepcopy carry the vectors.
    def __reduce__(self):
        return type(self).build, (self.params, tuple(self.vectors.values()))

    @classmethod
    def build(cls, params: Params, given: Sequence[StateVector]):
        """The scenario of ``params`` whose first ``len(given)`` labels get ``given``.

        Each remaining label, in ``LABELS`` order, is the
        ``orthogonal_complement`` of its planned neighbours, n - 1 of them in
        dimension n; every count is checked before any complement is formed.

        Raises:
            ValueError: if there are no vectors or more than labels, or a label
                to derive has another number of planned neighbours.
            DegenerateSpan: if a label's planned neighbours are dependent.
        """
        n = len(given)
        if not 0 < n <= len(cls._PLAN):
            raise ValueError(f"{n} vectors for {len(cls._PLAN)} labels")
        vectors = dict(zip(cls.LABELS, given))
        derived = cls._PLAN[n:]
        rank = len(given[0]._components) - 1
        for label, neighbours in derived:
            if len(neighbours) != rank:
                raise ValueError(
                    f"{label!r} has {len(neighbours)} earlier neighbours in NETWORK, "
                    f"not the {rank} that fix it in dimension {rank + 1}"
                )
        for label, neighbours in derived:
            vectors[label] = orthogonal_complement([vectors[x] for x in neighbours])
        return cls(params, MappingProxyType(vectors))

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
