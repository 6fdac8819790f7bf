"""Per-relation verification reports shared by the scenario modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from ._version import __version__
from .hilbert import PHASE_CANON

Scalar = Union[float, complex]


def nan_max(values: Iterable[float]) -> float:
    """The largest of ``values``, or a NaN among them if there is one.

    The builtin ``max`` keeps its running maximum when a later value is
    NaN, because every comparison with NaN is false, so it would hide a
    NaN residual. Without a NaN the result is ``max(values)``, bit for bit.
    """
    values = tuple(values)
    for v in values:
        if v != v:
            return v
    return max(values)


@dataclass(frozen=True, slots=True)
class Relation:
    """One verified identity: closed-form value vs directly computed value.

    For vector identities the closed form predicts an exact reconstruction,
    so ``formula_value`` is 0.0 and ``direct_value`` is the measured error
    norm. Either way ``residual == abs(formula_value - direct_value)``.

    The constructor writes each field's slot through the slot's own
    descriptor: the generated one calls ``object.__setattr__`` per field,
    which takes about twice as long. Equality, hashing, ``repr``, pickling
    and ``dataclasses.replace`` are the dataclass's.
    """

    id: str
    formula_value: Scalar
    direct_value: Scalar
    residual: float

    def __init__(
        self, id: str, formula_value: Scalar, direct_value: Scalar, residual: float
    ) -> None:
        _set_id(self, id)
        _set_formula_value(self, formula_value)
        _set_direct_value(self, direct_value)
        _set_residual(self, residual)


_set_id, _set_formula_value, _set_direct_value, _set_residual = (
    Relation.__dict__[name].__set__
    for name in ("id", "formula_value", "direct_value", "residual")
)


@dataclass(frozen=True)
class RelationReport:
    """Deterministic bundle of relation checks for one scenario."""

    params: Mapping[str, float]
    relations: tuple[Relation, ...]

    def max_residual(self) -> float:
        return nan_max(r.residual for r in self.relations)

    def relation(self, rel_id: str) -> Relation:
        for r in self.relations:
            if r.id == rel_id:
                return r
        raise KeyError(rel_id)


def report_to_json(report: RelationReport, timestamp: str | None = None) -> dict:
    """Serialize a report; complex scalars become [re, im] pairs.

    ``timestamp`` is injected into the metadata only when provided, keeping
    the library-level document reproducible for fixed parameters.
    """
    metadata: dict[str, str] = {
        "phase_canon": PHASE_CANON,
        "tool_version": __version__,
    }
    if timestamp is not None:
        metadata["timestamp"] = timestamp
    relations = []
    for r in report.relations:
        # isinstance, not a type test, so that a numpy.complex128 is a pair too
        f, d = r.formula_value, r.direct_value
        relations.append({
            "id": r.id,
            "formula": [f.real, f.imag] if isinstance(f, complex) else float(f),
            "direct": [d.real, d.imag] if isinstance(d, complex) else float(d),
            "residual": r.residual,
        })
    return {
        "params": dict(report.params),
        "relations": relations,
        "phase_canon": PHASE_CANON,
        "metadata": metadata,
    }
