"""Tests for chaseable sets and Theorem 5.3 (both directions)."""

import pytest

from repro.core.parsing import parse_database
from repro.chase.restricted import restricted_chase
from repro.chase.real_oblivious import ChaseGraph, OChaseNode
from repro.guarded.chaseable import (
    chase_graph_from_derivation,
    derivation_from_chaseable,
    is_chaseable,
    is_parent_closed,
)
from repro.tgds.tgd import parse_tgds


class TestChaseGraphFromDerivation:
    def test_roots_and_steps(self, example_56_tgds, example_56_database):
        result = restricted_chase(example_56_database, example_56_tgds, max_steps=5)
        graph = chase_graph_from_derivation(example_56_database, result.derivation)
        assert len(graph.roots()) == 2
        assert len(graph) == 2 + 5

    def test_parent_edges_point_to_producers(self, example_56_tgds, example_56_database):
        result = restricted_chase(example_56_database, example_56_tgds, max_steps=4)
        graph = chase_graph_from_derivation(example_56_database, result.derivation)
        for node in graph.nodes:
            if node.trigger is None:
                continue
            body_atoms = {a.apply(node.trigger.h) for a in node.trigger.tgd.body}
            parent_atoms = {graph.nodes[p].atom for p in node.parents}
            assert parent_atoms == body_atoms


class TestDirection1to2:
    """An infinite (long) derivation yields a chaseable set (Theorem 5.3 ⇒)."""

    def test_derivation_node_set_is_chaseable(
        self, example_56_tgds, example_56_database
    ):
        result = restricted_chase(example_56_database, example_56_tgds, max_steps=8)
        graph = chase_graph_from_derivation(example_56_database, result.derivation)
        ok, reason = is_chaseable(graph, range(len(graph)))
        assert ok, reason

    def test_terminating_derivation_also_chaseable(
        self, example_32_tgds, example_32_database
    ):
        result = restricted_chase(example_32_database, example_32_tgds)
        graph = chase_graph_from_derivation(example_32_database, result.derivation)
        ok, reason = is_chaseable(graph, range(len(graph)))
        assert ok, reason


class TestChaseableConditions:
    def test_missing_root_detected(self, example_56_tgds, example_56_database):
        result = restricted_chase(example_56_database, example_56_tgds, max_steps=3)
        graph = chase_graph_from_derivation(example_56_database, result.derivation)
        ok, reason = is_chaseable(graph, range(1, len(graph)))
        assert not ok and "root" in reason

    def test_parent_closure_violation(self, example_56_tgds, example_56_database):
        result = restricted_chase(example_56_database, example_56_tgds, max_steps=4)
        graph = chase_graph_from_derivation(example_56_database, result.derivation)
        # Drop an intermediate derived node but keep its children.
        chosen = set(range(len(graph))) - {2}
        assert not is_parent_closed(graph, chosen)
        ok, reason = is_chaseable(graph, chosen)
        assert not ok and "parent" in reason

    def test_duplicate_atom_copies_create_cycle(self):
        # Build a graph in which the same trigger result appears twice: the
        # copies stop each other, so ≺b over both is cyclic.
        tgds = parse_tgds(["P(x) -> Q(x,z)"])
        db = parse_database("P(a)")
        result = restricted_chase(db, tgds)
        graph = chase_graph_from_derivation(db, result.derivation)
        duplicated = ChaseGraph(list(graph.nodes))
        original = graph.nodes[1]
        clone = OChaseNode(
            len(graph.nodes), original.atom, original.trigger, original.parents, 1
        )
        duplicated.nodes.append(clone)
        ok, reason = is_chaseable(duplicated, range(len(duplicated.nodes)))
        assert not ok and "cycle" in reason


class TestDirection2to1:
    """A chaseable set linearizes into a valid derivation (Theorem 5.3 ⇐)."""

    def test_roundtrip_reproduces_derivation_length(
        self, example_56_tgds, example_56_database
    ):
        result = restricted_chase(example_56_database, example_56_tgds, max_steps=8)
        graph = chase_graph_from_derivation(example_56_database, result.derivation)
        derivation = derivation_from_chaseable(graph, range(len(graph)), example_56_tgds)
        assert len(derivation.steps) == 8
        derivation.validate(example_56_tgds)

    def test_subset_linearizes(self, example_56_tgds, example_56_database):
        result = restricted_chase(example_56_database, example_56_tgds, max_steps=6)
        graph = chase_graph_from_derivation(example_56_database, result.derivation)
        # Parent-closed prefix: roots + first 3 derived nodes.
        chosen = set(graph.roots()) | {2, 3, 4}
        ok, reason = is_chaseable(graph, chosen)
        assert ok, reason
        derivation = derivation_from_chaseable(graph, chosen, example_56_tgds)
        assert len(derivation.steps) == 3

    def test_non_chaseable_rejected(self, example_56_tgds, example_56_database):
        result = restricted_chase(example_56_database, example_56_tgds, max_steps=4)
        graph = chase_graph_from_derivation(example_56_database, result.derivation)
        with pytest.raises(ValueError, match="not chaseable"):
            derivation_from_chaseable(graph, range(1, len(graph)), example_56_tgds)
