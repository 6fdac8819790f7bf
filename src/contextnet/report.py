"""Per-relation verification reports shared by the scenario modules."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from ._version import __version__
from .hilbert import PHASE_CANON

Scalar = float | complex


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


class Relation(namedtuple("Relation", "id formula_value direct_value residual")):
    """One verified identity: closed-form value vs directly computed value.

    For vector identities the closed form predicts an exact reconstruction,
    so ``formula_value`` is 0.0 and ``direct_value`` is the measured error
    norm. Either way ``residual == abs(formula_value - direct_value)``.
    """

    __slots__ = ()


class RelationReport(namedtuple("RelationReport", "params relations")):
    """Deterministic bundle of relation checks for one scenario.

    ``params`` is the name -> value dict and ``relations`` the tuple of
    ``Relation`` rows, in id order.
    """

    __slots__ = ()

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
