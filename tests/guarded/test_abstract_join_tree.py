"""Tests for abstract join trees (Definitions 5.8 and 5.10)."""

import pytest

from repro.core.parsing import parse_database
from repro.core.homomorphism import are_isomorphic
from repro.chase.restricted import restricted_chase
from repro.guarded.abstract_join_tree import (
    AJTNode,
    AbstractJoinTree,
    F_ORIGIN,
    ajt_from_derivation,
    eq_related,
    make_eq,
)


def _as_structure(atoms):
    """Replace every term by a null so isomorphism ignores constant names."""
    from repro.core.terms import Null

    rename = {}
    out = []
    for atom in atoms:
        for term in atom.terms:
            if term not in rename:
                rename[term] = Null(f"str{len(rename)}")
        out.append(atom.apply(rename))
    return out


@pytest.fixture
def encoded_56(example_56_tgds, example_56_database):
    result = restricted_chase(example_56_database, example_56_tgds, max_steps=6)
    tree = ajt_from_derivation(example_56_database, result.derivation, example_56_tgds)
    return tree, result


class TestEqRelations:
    def test_make_eq_closure(self):
        eq = make_eq(
            [(("m", 1), ("m", 2)), (("m", 2), ("m", 3))],
            [("m", 1), ("m", 2), ("m", 3), ("f", 1)],
        )
        assert eq_related(eq, ("m", 1), ("m", 3))
        assert not eq_related(eq, ("m", 1), ("f", 1))

    def test_empty_relation(self):
        eq = make_eq([], [("m", 1), ("m", 2)])
        assert not eq_related(eq, ("m", 1), ("m", 2))


class TestEncoding:
    def test_valid_per_definition_58(self, encoded_56, example_56_tgds):
        tree, _ = encoded_56
        assert tree.violations(example_56_tgds) == []

    def test_one_node_per_db_atom_and_step(self, encoded_56, example_56_database):
        tree, result = encoded_56
        assert len(tree.nodes) == len(example_56_database) + len(result.derivation.steps)

    def test_fact_nodes_form_prefix(self, encoded_56):
        tree, _ = encoded_56
        for node in tree.nodes:
            if node.is_fact and node.parent is not None:
                assert tree.nodes[node.parent].is_fact

    def test_decode_isomorphic_to_real_instance(self, encoded_56):
        """∆(T) reconstructs the chase instance up to renaming (Lemma 5.9).

        ∆ invents its own term names, so the comparison is isomorphism up
        to renaming of *all* terms (constants included): we strip constant
        rigidity by replacing every term with a null on both sides.
        """
        tree, result = encoded_56
        decoded = tree.delta_instance()
        assert are_isomorphic(
            _as_structure(decoded.atoms()), _as_structure(result.instance.atoms())
        )

    def test_decode_fact_part_isomorphic_to_database(
        self, encoded_56, example_56_database
    ):
        tree, _ = encoded_56
        decoded_db = tree.delta_fact_instance()
        assert are_isomorphic(
            _as_structure(decoded_db.atoms()),
            _as_structure(example_56_database.atoms()),
        )

    def test_cyclic_database_rejected(self, example_56_tgds):
        cyclic = parse_database("R(a,b), S(b,c), T2(c,a), G(a,b)")
        result = restricted_chase(cyclic, example_56_tgds, max_steps=2)
        with pytest.raises(ValueError, match="not acyclic"):
            ajt_from_derivation(cyclic, result.derivation, example_56_tgds)


class TestDefinition58Violations:
    def test_wrong_head_predicate_detected(self, example_56_tgds):
        sigma3 = example_56_tgds[2]  # P(x,y) -> ∃z P(y,z)
        nodes = [
            AJTNode(0, None, "P", F_ORIGIN, make_eq([], [("m", 1), ("m", 2)])),
            AJTNode(
                1,
                0,
                "Q",  # wrong: head predicate is P
                sigma3,
                make_eq([(("f", 2), ("m", 1))],
                        [("m", 1), ("m", 2), ("f", 1), ("f", 2)]),
            ),
        ]
        tree = AbstractJoinTree(nodes, {"P": 2, "Q": 2})
        assert any("condition 3" in v or "predicate" in v for v in tree.violations(example_56_tgds))

    def test_missing_frontier_link_detected(self, example_56_tgds):
        sigma3 = example_56_tgds[2]
        nodes = [
            AJTNode(0, None, "P", F_ORIGIN, make_eq([], [("m", 1), ("m", 2)])),
            AJTNode(
                1, 0, "P", sigma3,
                # (5a) requires [[f,2],[m,1]] since guard P(x,y) and head
                # P(y,z) share y at guard pos 2 / head pos 1 — omit it.
                make_eq([], [("m", 1), ("m", 2), ("f", 1), ("f", 2)]),
            ),
        ]
        tree = AbstractJoinTree(nodes, {"P": 2})
        assert any("5a" in v for v in tree.violations(example_56_tgds))

    def test_non_f_root_detected(self, example_56_tgds):
        sigma3 = example_56_tgds[2]
        nodes = [
            AJTNode(0, None, "P", sigma3, make_eq([], [("m", 1), ("m", 2)])),
        ]
        tree = AbstractJoinTree(nodes, {"P": 2})
        assert any("root" in v for v in tree.violations(example_56_tgds))


class TestChaseableAJT:
    def test_encoded_derivation_is_chaseable(self, encoded_56, example_56_tgds):
        tree, _ = encoded_56
        violations = tree.chaseable_violations(example_56_tgds)
        assert violations == []
        assert tree.is_chaseable(example_56_tgds)

    def test_missing_side_atom_witness_detected(self, example_56_tgds):
        """A P-node under an R-node without any T-node violates condition 2."""
        sigma2 = example_56_tgds[1]  # R(x,y), T(y) -> P(x,y)
        nodes = [
            AJTNode(0, None, "R", F_ORIGIN, make_eq([], [("m", 1), ("m", 2)])),
            AJTNode(
                1, 0, "P", sigma2,
                make_eq(
                    [(("f", 1), ("m", 1)), (("f", 2), ("m", 2))],
                    [("m", 1), ("m", 2), ("f", 1), ("f", 2)],
                ),
            ),
        ]
        tree = AbstractJoinTree(nodes, {"R": 2, "P": 2, "T": 1})
        assert tree.violations(example_56_tgds) == []
        violations = tree.chaseable_violations(example_56_tgds)
        assert any("witness" in v for v in violations)

    def test_parent_edges_include_side_parents(self, encoded_56, example_56_tgds):
        tree, _ = encoded_56
        edges = tree.parent_edges(example_56_tgds)
        tree_edges = {
            (n.parent, n.node_id) for n in tree.nodes if n.parent is not None
        }
        assert tree_edges <= edges
        assert len(edges) > len(tree_edges)  # the T side-parent of the P node

    def test_before_graph_acyclic_for_real_derivation(
        self, encoded_56, example_56_tgds
    ):
        from repro.util import graphs

        tree, _ = encoded_56
        assert not graphs.has_cycle(tree.before_graph(example_56_tgds))
