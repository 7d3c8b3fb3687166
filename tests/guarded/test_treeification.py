"""Tests for the Treeification Theorem machinery (Theorem 5.5, Example 5.6)."""

import pytest

from repro.core.atoms import Atom
from repro.core.parsing import parse_database
from repro.core.terms import Constant
from repro.chase.restricted import exists_derivation_of_length, restricted_chase
from repro.guarded.treeification import (
    choose_alpha_infinity,
    longs_for_graph,
    remote_side_parent_situations,
    treeify,
    verify_treeification,
)
from repro.guarded.chaseable import chase_graph_from_derivation
from repro.tgds.tgd import parse_tgds


@pytest.fixture
def example_56_evidence(example_56_tgds, example_56_database):
    result = restricted_chase(example_56_database, example_56_tgds, max_steps=10)
    assert not result.terminated
    return result.derivation


class TestRemoteSideParents:
    def test_example_56_situation_detected(
        self, example_56_tgds, example_56_database, example_56_evidence
    ):
        graph = chase_graph_from_derivation(example_56_database, example_56_evidence)
        situations = remote_side_parent_situations(graph, example_56_tgds)
        assert situations
        alpha, _, beta, _ = situations[0]
        assert alpha == Atom("R", [Constant("a"), Constant("b")])
        assert beta == Atom("S", [Constant("b"), Constant("c")])

    def test_longs_for_edge(self, example_56_tgds, example_56_database, example_56_evidence):
        graph = chase_graph_from_derivation(example_56_database, example_56_evidence)
        longs = longs_for_graph(graph, example_56_tgds)
        r_atom = Atom("R", [Constant("a"), Constant("b")])
        s_atom = Atom("S", [Constant("b"), Constant("c")])
        assert longs.successors(r_atom) == [s_atom]

    def test_alpha_infinity_is_r(self, example_56_tgds, example_56_database, example_56_evidence):
        graph = chase_graph_from_derivation(example_56_database, example_56_evidence)
        alpha = choose_alpha_infinity(graph, example_56_tgds)
        assert alpha.predicate == "R"

    def test_no_situations_without_remote_parents(self, intro_tgds):
        db = parse_database("R(a,b), R(b,c)")
        result = restricted_chase(db, intro_tgds)
        graph = chase_graph_from_derivation(db, result.derivation)
        assert remote_side_parent_situations(graph, intro_tgds) == []


class TestTreeify:
    def test_example_56_dac(self, example_56_tgds, example_56_database, example_56_evidence):
        treeified = treeify(example_56_database, example_56_tgds, example_56_evidence)
        dac = treeified.database()
        predicates = sorted(a.predicate for a in dac)
        assert predicates == ["R", "S"]
        # The renamed copies share exactly the term the originals shared (b).
        r_atom = next(a for a in dac if a.predicate == "R")
        s_atom = next(a for a in dac if a.predicate == "S")
        assert r_atom.at(2) == s_atom.at(1)
        assert r_atom.at(1) != s_atom.at(2)

    def test_dac_is_join_tree(self, example_56_tgds, example_56_database, example_56_evidence):
        treeified = treeify(example_56_database, example_56_tgds, example_56_evidence)
        assert treeified.join_tree().is_join_tree()

    def test_homomorphism_back_to_original(
        self, example_56_tgds, example_56_database, example_56_evidence
    ):
        treeified = treeify(example_56_database, example_56_tgds, example_56_evidence)
        mapping = treeified.homomorphism_to_original()
        for label, original in zip(treeified.labels, treeified.originals):
            assert label.apply(mapping) == original

    def test_depth_labels(self, example_56_tgds, example_56_database, example_56_evidence):
        treeified = treeify(example_56_database, example_56_tgds, example_56_evidence)
        assert treeified.depths[0] == 0
        assert all(
            d == 0 or treeified.parents[i] is not None
            for i, d in enumerate(treeified.depths)
        )

    def test_requires_guarded(self, example_56_database):
        unguarded = parse_tgds(["R(x,y), S(y,z) -> P(x,z)"])
        with pytest.raises(ValueError):
            treeify(example_56_database, unguarded, None)  # type: ignore[arg-type]


class TestVerification:
    def test_dac_reproduces_divergence(
        self, example_56_tgds, example_56_database, example_56_evidence
    ):
        """Theorem 5.5's payoff: the acyclic database diverges too."""
        treeified = treeify(example_56_database, example_56_tgds, example_56_evidence)
        assert verify_treeification(treeified, example_56_tgds, target_steps=10)

    def test_single_r_atom_does_not_diverge(self, example_56_tgds):
        """The naive guess {R(a,b)} fails — the paper's Example 5.6 point."""
        assert (
            exists_derivation_of_length(
                parse_database("R(a,b)"), example_56_tgds, 1
            )
            is None
        )

    def test_multiset_roots_for_weakly_restricted(
        self, example_56_tgds, example_56_database, example_56_evidence
    ):
        treeified = treeify(example_56_database, example_56_tgds, example_56_evidence)
        roots = treeified.multiset_roots()
        assert len(roots) == len(treeified.labels)
        assert all(isinstance(depth, int) for _, depth in roots)
