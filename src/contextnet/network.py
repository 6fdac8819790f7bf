"""Orthogonality networks of measurement outcomes.

A network is a labeled graph: nodes are measurement outcomes, edges assert
that two outcomes are orthogonal (and can therefore share a measurement
context), and ``required_non_edges`` assert a strictly non-zero overlap.
Pairs in neither set are unconstrained: at special parameter values a
non-adjacent pair may become accidentally orthogonal without breaking the
scenario.

Four diagrams are built in:

* Figure 1: one three-outcome context {1, 2, 3} plus two outside outcomes
  D1 (orthogonal to 1 only) and D2 (orthogonal to 2 only).
* Figure 2: Figure 1 extended by S1, S2 (completing the contexts
  {1, D1, S1} and {2, D2, S2}) and by an outcome f orthogonal to S1 and S2.
* Figure 3: the same graph as Figure 2 realized in the product space of two
  two-level systems, with outcomes relabeled to product states:
  1 -> 0,1   2 -> 1,0   3 -> 0,0   D1 -> a,0   D2 -> 0,a
  S1 -> b,0  S2 -> 0,b  f -> f_NL.
* Figure 4: Figure 3 plus the product outcomes 1,1 and a,a. Each added
  edge is forced by factorizing the overlap of product states
  (with <a|b> = 0 and <0|1> = 0):

    (1,1)-(0,0), (1,1)-(0,1), (1,1)-(1,0):  a factor <1|0> = 0
    (1,1)-(a,0), (1,1)-(0,a):               the factor <1|0> = 0 on the
                                            second resp. first system
    (1,1)-(b,0), (1,1)-(0,b):               again a factor <1|0> = 0
    (1,1)-(f_NL):                           f_NL lives in the span of
                                            {0,0; 0,1; 1,0} by definition
    (a,a)-(b,0), (a,a)-(0,b):               a factor <a|b> = 0

  (a,a)-(a,0) is deliberately absent: <a,a|a,0> = <a|0> != 0.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType

from .errors import DimensionMismatch, MissingAssignment
from .hilbert import ORTH_TOL, StateVector, inner

Pair = tuple[str, str]


def _pair(a: str, b: str) -> Pair:
    if a == b:
        raise ValueError(f"self-loop on node {a!r}")
    return (a, b) if a < b else (b, a)


def _pairs(raw) -> tuple[Pair, ...]:
    return tuple(sorted({_pair(a, b) for a, b in raw}))


class ContextNetwork(namedtuple("ContextNetwork", "nodes edges required_non_edges")):
    """Labeled orthogonality graph with mandatory non-orthogonality pairs.

    Nodes may be given in any sequence and are stored as a tuple. Pairs may
    be given in any order and container; construction stores each set once,
    as the sorted tuple of sorted pairs that validation and serialization
    walk. ``_replace`` and ``_make`` construct through the same checks.
    """

    __slots__ = ()

    def __new__(cls, nodes, edges, required_non_edges=()):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node labels")
        edges, required_non_edges = _pairs(edges), _pairs(required_non_edges)
        known = set(nodes)
        for a, b in edges + required_non_edges:
            if a not in known or b not in known:
                raise ValueError(f"pair ({a!r}, {b!r}) references an unknown node")
        overlap = set(edges) & set(required_non_edges)
        if overlap:
            raise ValueError(f"pairs marked both orthogonal and non-orthogonal: {sorted(overlap)}")
        return super().__new__(cls, nodes, edges, required_non_edges)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Violation(namedtuple("Violation", "kind pair overlap")):
    """One broken constraint, with the measured overlap for diagnostics.

    ``kind`` is "edge" (the pair should be orthogonal) or "non_edge" (it
    should not be).
    """

    __slots__ = ()


# Non-edges list only pairs whose non-orthogonality the scenario guarantees
# for every interior parameter choice.
_FIG1 = ContextNetwork(
    nodes=("1", "2", "3", "D1", "D2"),
    edges=(("1", "2"), ("1", "3"), ("2", "3"), ("1", "D1"), ("2", "D2")),
    required_non_edges=(("D1", "D2"), ("D1", "2"), ("D1", "3"), ("D2", "1"), ("D2", "3")),
)

_FIG2 = ContextNetwork(
    _FIG1.nodes + ("S1", "S2", "f"),
    _FIG1.edges + (("1", "S1"), ("D1", "S1"), ("2", "S2"), ("D2", "S2"), ("f", "S1"), ("f", "S2")),
    _FIG1.required_non_edges + (("S1", "S2"), ("f", "3"), ("f", "D1"), ("f", "D2")),
)

_FIG3_RELABEL = {
    "1": "0,1", "2": "1,0", "3": "0,0",
    "D1": "a,0", "D2": "0,a", "S1": "b,0", "S2": "0,b", "f": "f_NL",
}

_FIG3 = ContextNetwork(
    nodes=tuple(_FIG3_RELABEL[n] for n in _FIG2.nodes),
    edges=[(_FIG3_RELABEL[a], _FIG3_RELABEL[b]) for a, b in _FIG2.edges],
    required_non_edges=[(_FIG3_RELABEL[a], _FIG3_RELABEL[b]) for a, b in _FIG2.required_non_edges],
)

#: Figure number -> built-in network (read-only).
NETWORKS = MappingProxyType({
    1: _FIG1,
    2: _FIG2,
    3: _FIG3,
    4: ContextNetwork(
        _FIG3.nodes + ("1,1", "a,a"),
        _FIG3.edges + (
            ("1,1", "0,0"), ("1,1", "0,1"), ("1,1", "1,0"),
            ("1,1", "a,0"), ("1,1", "0,a"), ("1,1", "b,0"), ("1,1", "0,b"),
            ("1,1", "f_NL"),
            ("a,a", "b,0"), ("a,a", "0,b"),
        ),
        _FIG3.required_non_edges + (("1,1", "a,a"), ("f_NL", "a,a")),
    ),
})


def builtin_network(figure: int) -> ContextNetwork:
    """The ``NETWORKS`` entry of an integer ``figure`` (not a bool); else a ValueError."""
    if isinstance(figure, numbers.Integral) and not isinstance(figure, bool):
        if figure in NETWORKS:
            return NETWORKS[figure]
    raise ValueError(f"{figure!r} is not a built-in figure {list(NETWORKS)}")


def validate_realization(
    net: ContextNetwork, assignment: Mapping[str, StateVector]
) -> list[Violation]:
    """Check a concrete vector assignment against a network's constraints.

    Returns one Violation per edge whose overlap magnitude is not below
    ``ORTH_TOL`` and per required non-edge whose overlap magnitude is not at
    or above it, so a NaN overlap breaks either kind of pair; an
    empty list means the assignment realizes the network faithfully. Labels
    present in the assignment but absent from the network are ignored.

    Raises:
        MissingAssignment: if some network node has no vector.
        DimensionMismatch: if the assigned vectors do not share a dimension.
    """
    missing = [n for n in net.nodes if n not in assignment]
    if missing:
        raise MissingAssignment(f"no vector assigned to node(s): {missing}")
    dims = {len(assignment[n]._components) for n in net.nodes}
    if len(dims) > 1:
        raise DimensionMismatch(f"assignment mixes dimensions {sorted(dims)}")
    # Written as "not below" and "not at or above", so a NaN overlap breaks both.
    violations = []
    for a, b in net.edges:
        o = abs(inner(assignment[a], assignment[b]))
        if not o < ORTH_TOL:
            violations.append(Violation("edge", (a, b), o))
    for a, b in net.required_non_edges:
        o = abs(inner(assignment[a], assignment[b]))
        if not o >= ORTH_TOL:
            violations.append(Violation("non_edge", (a, b), o))
    return violations


def network_to_json(net: ContextNetwork) -> dict:
    """Serialize a network to the plain-JSON document schema."""
    return {
        "nodes": list(net.nodes),
        "edges": [list(p) for p in net.edges],
        "non_edges": [list(p) for p in net.required_non_edges],
    }
