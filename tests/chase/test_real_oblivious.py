"""Unit tests for the real oblivious chase (Definition 3.3, Example 3.4)."""

from repro.core.atoms import Atom
from repro.core.parsing import parse_database
from repro.core.terms import Constant
from repro.chase.real_oblivious import RealObliviousChase
from repro.tgds.tgd import parse_tgds
from repro.util import graphs


class TestExample34:
    def test_multiset_duplicates(self, example_32_tgds, example_32_database):
        """S(a) is generated twice (via σ2 from P and σ3 from R) —
        the real oblivious chase keeps both copies."""
        chase = RealObliviousChase(example_32_database, example_32_tgds, max_depth=4)
        s_a = Atom("S", [Constant("a")])
        assert chase.atom_multiplicity(s_a) >= 2

    def test_roots_are_database(self, example_32_tgds, example_32_database):
        chase = RealObliviousChase(example_32_database, example_32_tgds, max_depth=3)
        assert [chase.node(i).atom for i in chase.roots()] == example_32_database.sorted_atoms()

    def test_atoms_coincide_with_oblivious_chase(
        self, example_32_tgds, example_32_database
    ):
        from repro.chase.oblivious import oblivious_chase

        real = RealObliviousChase(example_32_database, example_32_tgds, max_depth=6)
        plain = oblivious_chase(example_32_database, example_32_tgds)
        assert real.atoms() == plain.instance

    def test_parents_unambiguous(self, example_32_tgds, example_32_database):
        chase = RealObliviousChase(example_32_database, example_32_tgds, max_depth=4)
        s_nodes = [
            n for n in chase.nodes if n.atom == Atom("S", [Constant("a")])
        ]
        parent_atoms = {
            chase.node(n.parents[0]).atom for n in s_nodes if n.parents
        }
        # One copy has parent P(a,b), another R(a,b) — Example 3.2's point.
        # (Deeper copies via R(a,c) also exist; the graph is a multiset.)
        assert {
            Atom("P", [Constant("a"), Constant("b")]),
            Atom("R", [Constant("a"), Constant("b")]),
        } <= parent_atoms


class TestStructure:
    def test_parent_edges_well_formed(self, example_32_tgds, example_32_database):
        chase = RealObliviousChase(example_32_database, example_32_tgds, max_depth=3)
        for parent, child in chase.parent_edges():
            assert 0 <= parent < len(chase)
            assert chase.node(child).trigger is not None

    def test_depth_monotone(self, example_32_tgds, example_32_database):
        chase = RealObliviousChase(example_32_database, example_32_tgds, max_depth=4)
        for node in chase.nodes:
            for parent in node.parents:
                assert chase.node(parent).depth < node.depth

    def test_truncation_flag(self, diverging_linear):
        chase = RealObliviousChase(
            parse_database("R(a,b)"), diverging_linear, max_depth=3
        )
        assert not chase.complete

    def test_complete_flag(self):
        tgds = parse_tgds(["P(x) -> Q(x)"])
        chase = RealObliviousChase(parse_database("P(a)"), tgds, max_depth=5)
        assert chase.complete
        assert len(chase) == 2

    def test_children_of(self, example_32_tgds, example_32_database):
        chase = RealObliviousChase(example_32_database, example_32_tgds, max_depth=3)
        root = chase.roots()[0]
        children = chase.children_of(root)
        assert children
        assert all(root in c.parents for c in children)


class TestGuardedRefinements:
    def test_guard_parent_of_linear(self, example_32_tgds, example_32_database):
        chase = RealObliviousChase(example_32_database, example_32_tgds, max_depth=3)
        for node in chase.nodes:
            if node.trigger is None:
                assert chase.guard_parent_of(node.node_id) is None
            else:
                gp = chase.guard_parent_of(node.node_id)
                assert gp in node.parents

    def test_guard_parent_edges_subset_of_parent_edges(
        self, example_56_tgds, example_56_database
    ):
        chase = RealObliviousChase(example_56_database, example_56_tgds, max_depth=4)
        assert chase.guard_parent_edges() <= chase.parent_edges()

    def test_side_parent_edges(self, example_56_tgds, example_56_database):
        chase = RealObliviousChase(example_56_database, example_56_tgds, max_depth=4)
        # σ2 = R(x,y), T(y) -> P(x,y): the T(b) parent of P(a,b) is a side
        # parent, the R(a,b) parent is the guard parent.
        p_nodes = [
            n
            for n in chase.nodes
            if n.parents and n.trigger is not None and n.trigger.tgd.name == "s2"
        ]
        assert p_nodes
        for node in p_nodes:
            gp = chase.guard_parent_of(node.node_id)
            assert chase.node(gp).atom.predicate == "R"
            side_parents = [p for p in node.parents if p != gp]
            assert all(chase.node(p).atom.predicate == "T" for p in side_parents)

    def test_duplicated_guard_atom_follows_body_position(self):
        # R(a,b) is carried by two nodes (the root and the copy σ1 makes),
        # so σ2's twin R atoms can match different nodes.  The guard parent
        # is whatever matched body position 0; position 1's node is a side
        # parent even though it carries the guard's atom.
        tgds = parse_tgds(["P(x,y) -> R(x,y)", "R(x,y), R(x,y), S(y) -> T(x)"])
        chase = RealObliviousChase(parse_database("R(a,b), P(a,b), S(b)"), tgds)
        r_nodes = [n.node_id for n in chase if n.atom.predicate == "R"]
        assert len(r_nodes) == 2
        t_nodes = [n for n in chase if n.atom.predicate == "T"]
        assert sorted(n.parents[:2] for n in t_nodes) == sorted(
            (g, s) for g in r_nodes for s in r_nodes
        )
        side = chase.side_parent_edges()
        for node in t_nodes:
            guard, twin, s_parent = node.parents
            assert chase.guard_parent_of(node.node_id) == guard
            assert (twin, node.node_id) in side
            assert (s_parent, node.node_id) in side
            assert ((guard, node.node_id) in side) == (guard == twin)

    def test_guard_descendants(self, example_56_tgds, example_56_database):
        chase = RealObliviousChase(example_56_database, example_56_tgds, max_depth=5)
        roots = {chase.node(i).atom.predicate: i for i in chase.roots()}
        r_descendants = chase.guard_descendants(roots["R"])
        s_descendants = chase.guard_descendants(roots["S"])
        # The infinite P-chain hangs under R(a,b); T(b) under S(b,c).
        assert any(chase.node(d).atom.predicate == "P" for d in r_descendants)
        assert all(chase.node(d).atom.predicate == "T" for d in s_descendants)
        # guard_root inverts the forest: every descendant leads back up.
        assert all(chase.guard_root(d) == roots["R"] for d in r_descendants)
        assert all(chase.guard_root(d) == roots["S"] for d in s_descendants)
        assert chase.guard_root(roots["R"]) == roots["R"]

    def test_one_pass_views_match_the_per_node_walks(
        self, example_56_tgds, example_56_database
    ):
        chase = RealObliviousChase(example_56_database, example_56_tgds, max_depth=6)
        assert chase.guard_roots() == [chase.guard_root(i) for i in range(len(chase))]
        assert chase.guard_parents() == [chase.guard_parent_of(i) for i in range(len(chase))]
        # guard_descendants against reachability over the ≺gp edges.
        children = graphs.make_graph(chase.guard_parent_edges())
        for node_id in range(len(chase)):
            reached = graphs.reachable_from(children, [node_id]) - {node_id}
            assert chase.guard_descendants(node_id) == reached


class TestBounds:
    def test_closure_at_exactly_max_nodes_is_complete(self):
        database = parse_database("R(a,b)")
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        capped = RealObliviousChase(database, tgds, max_nodes=2)
        roomy = RealObliviousChase(database, tgds, max_nodes=3)
        assert capped.complete and roomy.complete
        assert [(n.node_id, n.atom) for n in capped] == [
            (n.node_id, n.atom) for n in roomy
        ]

    def test_node_cap_with_nodes_left_is_incomplete(self):
        database = parse_database("R(a,b)")
        tgds = parse_tgds(["R(x,y) -> S(x)", "S(x) -> T(x)"])
        capped = RealObliviousChase(database, tgds, max_nodes=2)
        assert not capped.complete
        assert len(capped) == 2
        assert RealObliviousChase(database, tgds, max_nodes=3).complete
