import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextnet.errors import DimensionMismatch, MissingAssignment
from contextnet.hardy3 import ScenarioParams, build_scenario
from contextnet.hilbert import ORTH_TOL, StateVector, basis_vector, inner
from contextnet.network import (
    ContextNetwork,
    Violation,
    builtin_network,
    network_to_json,
    validate_realization,
)
from contextnet.nonlocal4 import LocalParams, build_nonlocal

interior = st.floats(min_value=0.02, max_value=0.98)


def _edge_set(net):
    return {tuple(sorted(p)) for p in net.edges}


class TestBuiltinNetworks:
    def test_fig1_exact(self):
        net = builtin_network(1)
        assert set(net.nodes) == {"1", "2", "3", "D1", "D2"}
        assert _edge_set(net) == {
            ("1", "2"), ("1", "3"), ("2", "3"), ("1", "D1"), ("2", "D2"),
        }
        assert ("D1", "D2") in net.required_non_edges

    def test_fig2_counts_and_cliques(self):
        net = builtin_network(2)
        assert len(net.nodes) == 8
        assert len(net.edges) == 11
        # each context is a clique
        for clique in ({"1", "2", "3"}, {"1", "D1", "S1"}, {"2", "D2", "S2"}):
            members = sorted(clique)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert (a, b) in net.edges, (a, b)
        assert ("S1", "f") in net.edges and ("S2", "f") in net.edges

    def test_fig2_required_non_edges(self):
        net = builtin_network(2)
        for pair in (("D1", "D2"), ("3", "D1"), ("3", "D2"),
                     ("3", "f"), ("D1", "f"), ("D2", "f")):
            assert tuple(sorted(pair)) in net.required_non_edges, pair

    def test_fig3_is_fig2_relabeled(self):
        fig2, fig3 = builtin_network(2), builtin_network(3)
        assert len(fig3.nodes) == len(fig2.nodes) == 8
        assert len(fig3.edges) == len(fig2.edges) == 11
        assert set(fig3.nodes) == {
            "0,0", "0,1", "1,0", "a,0", "0,a", "b,0", "0,b", "f_NL",
        }

    def test_fig4_shape(self):
        net = builtin_network(4)
        assert len(net.nodes) == 10
        assert sum(1 for e in net.edges if "1,1" in e) >= 7
        assert ("a,a", "b,0") in net.edges
        assert ("0,b", "a,a") in net.edges
        assert ("1,1", "a,a") in net.required_non_edges
        # deliberately unconstrained: <a,a|a,0> never vanishes
        assert ("a,0", "a,a") not in net.edges

    def test_construction_is_deterministic(self):
        net = builtin_network(2)
        rebuilt = ContextNetwork(
            list(net.nodes),
            [(b, a) for a, b in reversed(net.edges)],
            set(net.required_non_edges),
        )
        assert rebuilt == net
        assert rebuilt.edges == net.edges
        assert rebuilt.required_non_edges == net.required_non_edges

    def test_each_pair_set_is_one_sorted_tuple(self):
        for fig in (1, 2, 3, 4):
            net = builtin_network(fig)
            for pairs in (net.edges, net.required_non_edges):
                assert isinstance(pairs, tuple)
                assert list(pairs) == sorted({tuple(sorted(p)) for p in pairs})

    @pytest.mark.parametrize("base,extended", [(1, 2), (3, 4)])
    def test_figure_extends_its_predecessor(self, base, extended):
        small, big = builtin_network(base), builtin_network(extended)
        assert big.nodes[:len(small.nodes)] == small.nodes
        assert set(small.edges) < set(big.edges)
        assert set(small.required_non_edges) < set(big.required_non_edges)

    @pytest.mark.parametrize("figure", [0, 5, "2", None, [2], True, 1.0, 2.0])
    def test_unknown_figure_raises_value_error(self, figure):
        with pytest.raises(ValueError, match="not a built-in figure"):
            builtin_network(figure)

    def test_numpy_integer_figure_is_accepted(self):
        assert builtin_network(np.int64(2)) is builtin_network(2)

    def test_edges_and_non_edges_disjoint(self):
        for fig in (1, 2, 3, 4):
            net = builtin_network(fig)
            assert not (set(net.edges) & set(net.required_non_edges))
            for a, b in net.edges:
                assert a != b


class TestNetworkValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            ContextNetwork(nodes=("x", "y"), edges=frozenset({("x", "x")}))

    def test_rejects_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            ContextNetwork(nodes=("x",), edges=frozenset({("x", "y")}))

    def test_rejects_contradictory_pair(self):
        with pytest.raises(ValueError, match="both orthogonal and non-orthogonal"):
            ContextNetwork(
                nodes=("x", "y"),
                edges=frozenset({("x", "y")}),
                required_non_edges=frozenset({("y", "x")}),
            )

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError, match="duplicate node labels"):
            ContextNetwork(nodes=("x", "x"), edges=frozenset())

    def test_list_of_nodes_equals_tuple_built_network(self):
        from_list = ContextNetwork(["x", "y", "z"], [("y", "x")], [("z", "x")])
        from_tuple = ContextNetwork(("x", "y", "z"), (("x", "y"),), (("x", "z"),))
        assert from_list.nodes == ("x", "y", "z")
        assert from_list == from_tuple

    def test_list_of_nodes_is_hashable(self):
        net = ContextNetwork(["x", "y"], [("x", "y")])
        assert hash(net) == hash(ContextNetwork(("x", "y"), [("x", "y")]))
        assert len({net, builtin_network(1)}) == 2


class TestValidateRealization:
    def test_hardy_center_is_faithful(self):
        s = build_scenario(ScenarioParams(0.5, 0.5))
        assert validate_realization(builtin_network(2), s.realization()) == []

    def test_sabotaged_assignment_is_flagged(self):
        s = build_scenario(ScenarioParams(0.5, 0.5))
        assignment = dict(s.vectors)
        assignment["D1"] = assignment["1"]  # a vector is never orthogonal to itself
        violations = validate_realization(builtin_network(2), assignment)
        edge_pairs = {v.pair for v in violations if v.kind == "edge"}
        assert ("1", "D1") in edge_pairs
        flagged = next(v for v in violations if v.pair == ("1", "D1"))
        assert flagged.overlap == pytest.approx(1.0)

    def test_nonlocal_realizes_fig3_and_fig4(self):
        s = build_nonlocal(LocalParams(0.5))
        assert validate_realization(builtin_network(3), s.realization()) == []
        assert validate_realization(builtin_network(4), s.realization()) == []

    def test_missing_assignment(self):
        s = build_scenario(ScenarioParams(0.5, 0.5))
        assignment = dict(s.vectors)
        del assignment["f"]
        with pytest.raises(MissingAssignment):
            validate_realization(builtin_network(2), assignment)

    def test_mixed_dimensions(self):
        assignment = {n: basis_vector(3, 0) for n in builtin_network(1).nodes}
        assignment["D2"] = basis_vector(2, 0)
        with pytest.raises(DimensionMismatch, match=r"^assignment mixes dimensions \[2, 3\]$"):
            validate_realization(builtin_network(1), assignment)

    def test_overlap_of_exactly_orth_tol(self):
        # |<u|v>| is ORTH_TOL exactly: not below it, so an edge is broken, and
        # at it, so a required non-edge holds
        u, v = StateVector([1, 0]), StateVector([1e-10, 1])
        assert abs(inner(u, v)) == ORTH_TOL
        assignment = {"u": u, "v": v}
        edge = ContextNetwork(("u", "v"), [("u", "v")])
        assert validate_realization(edge, assignment) == [Violation("edge", ("u", "v"), ORTH_TOL)]
        non_edge = ContextNetwork(("u", "v"), [], [("u", "v")])
        assert validate_realization(non_edge, assignment) == []

    def test_nan_vector_breaks_every_pair_it_is_in(self):
        s = build_scenario(ScenarioParams(0.5, 0.5))
        assignment = dict(s.realization())
        assignment["f"] = StateVector([np.nan, 0, 0])
        violations = validate_realization(builtin_network(2), assignment)
        assert [(v.kind, v.pair) for v in violations] == [
            ("edge", ("S1", "f")), ("edge", ("S2", "f")),
            ("non_edge", ("3", "f")), ("non_edge", ("D1", "f")), ("non_edge", ("D2", "f")),
        ]
        assert all(np.isnan(v.overlap) for v in violations)

    def test_all_nan_assignment_breaks_every_pair(self):
        net = builtin_network(2)
        nan = StateVector([np.nan, np.nan, np.nan])
        violations = validate_realization(net, {n: nan for n in net.nodes})
        assert [v.pair for v in violations] == list(net.edges + net.required_non_edges)

    def test_extra_labels_are_ignored(self):
        s = build_scenario(ScenarioParams(0.3, 0.7))
        # the scenario carries N_f, which Figure 2 does not mention
        assert "N_f" in s.vectors
        assert validate_realization(builtin_network(2), s.vectors) == []

    @given(alpha=interior, beta=interior,
           phase_d1=st.floats(0, 6.28), phase_d2=st.floats(0, 6.28))
    @settings(max_examples=60, deadline=None)
    def test_fig2_faithful_across_interior_params(self, alpha, beta, phase_d1, phase_d2):
        s = build_scenario(ScenarioParams(alpha, beta, phase_d1, phase_d2))
        assert validate_realization(builtin_network(2), s.realization()) == []

    @given(a2=interior, phase_a=st.floats(0, 6.28))
    @settings(max_examples=60, deadline=None)
    def test_fig34_faithful_across_interior_params(self, a2, phase_a):
        s = build_nonlocal(LocalParams(a2, phase_a))
        assert validate_realization(builtin_network(3), s.realization()) == []
        assert validate_realization(builtin_network(4), s.realization()) == []


def _reference_violations(net, assignment):
    """Violations from a plain loop over sorted pairs and ``inner``."""
    found = []
    for kind, pairs, broken in (
        ("edge", net.edges, lambda x: not x < ORTH_TOL),
        ("non_edge", net.required_non_edges, lambda x: not x >= ORTH_TOL),
    ):
        for a, b in sorted(pairs):
            overlap = abs(inner(assignment[a], assignment[b]))
            if broken(overlap):
                found.append(Violation(kind, (a, b), overlap))
    return found


class TestValidateAgainstReference:
    """Same violations, overlaps bit for bit, as the reference loop."""

    def _check(self, net, assignment):
        got = validate_realization(net, assignment)
        want = _reference_violations(net, assignment)
        assert [(v.kind, v.pair) for v in got] == [(v.kind, v.pair) for v in want]
        assert [v.overlap.hex() for v in got] == [v.overlap.hex() for v in want]
        return got

    def test_seeded_realizations_and_swaps(self):
        rng = np.random.default_rng(20261018)
        violated = 0
        for _ in range(100):
            x, y = rng.uniform(0.01, 0.99, 2)
            ph = rng.uniform(0.0, 6.28, 2)
            cases = [
                (builtin_network(2), build_scenario(ScenarioParams(x, y, *ph)).realization()),
                (builtin_network(4), build_nonlocal(LocalParams(x, ph[0])).realization()),
            ]
            for net, realization in cases:
                assert self._check(net, realization) == []
                swapped = dict(realization)
                a, b = (str(n) for n in rng.choice(net.nodes, size=2, replace=False))
                swapped[a], swapped[b] = realization[b], realization[a]
                violated += len(self._check(net, swapped))
        assert violated > 0


class TestNetworkJson:
    @pytest.mark.parametrize("figure", [1, 2, 3, 4])
    def test_round_trip(self, figure):
        net = builtin_network(figure)
        doc = json.loads(json.dumps(network_to_json(net)))
        assert ContextNetwork(doc["nodes"], doc["edges"], doc["non_edges"]) == net

    def test_document_shape(self):
        doc = network_to_json(builtin_network(2))
        assert set(doc) == {"nodes", "edges", "non_edges"}
        assert all(len(pair) == 2 for pair in doc["edges"])
        assert doc["edges"] == sorted(doc["edges"])
