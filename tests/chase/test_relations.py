"""Unit tests for the stop/before relations (Sections 3.1, 5.1)."""


from repro.core.atoms import Atom
from repro.core.parsing import parse_instance
from repro.core.terms import Constant, Null, Variable
from repro.chase.relations import (
    AnnotatedAtom,
    active_iff_unstopped,
    before_graph,
    before_is_acyclic,
    stop_edges,
    stops_atom,
    stoppers_in,
)
from repro.chase.trigger import Trigger, triggers_on
from repro.tgds.tgd import TGD

A, B = Constant("a"), Constant("b")
N1, N2 = Null("n1"), Null("n2")


class TestStopsAtom:
    def test_same_atom_stops_itself(self):
        atom = Atom("R", [A, N1])
        assert stops_atom(atom, atom, frozenset({A}))

    def test_frontier_must_be_fixed(self):
        stopped = Atom("R", [A, N1])  # frontier {a}, invented n1
        assert stops_atom(Atom("R", [A, B]), stopped, frozenset({A}))
        assert not stops_atom(Atom("R", [B, B]), stopped, frozenset({A}))

    def test_invented_nulls_flexible(self):
        stopped = Atom("R", [A, N1, N1])
        assert stops_atom(Atom("R", [A, B, B]), stopped, frozenset({A}))
        assert not stops_atom(Atom("R", [A, B, A]), stopped, frozenset({A}))

    def test_predicate_mismatch(self):
        assert not stops_atom(Atom("S", [A]), Atom("R", [A]), frozenset())


class TestFact35:
    """Fact 3.5: a trigger is active iff nothing stops its result."""

    def test_agreement_on_examples(self, example_32_tgds, example_32_database):
        for trigger in triggers_on(example_32_tgds, example_32_database):
            assert active_iff_unstopped(example_32_database, trigger)

    def test_agreement_after_steps(self, example_56_tgds, example_56_database):
        from repro.chase.restricted import restricted_chase

        result = restricted_chase(
            example_56_database, example_56_tgds, max_steps=6
        )
        for trigger in triggers_on(example_56_tgds, result.instance):
            assert active_iff_unstopped(result.instance, trigger)

    def test_stoppers_in_finds_witness(self):
        tgd = TGD.parse("R(x,y) -> S(x,z)")
        trigger = Trigger(tgd, {Variable("x"): A, Variable("y"): B})
        instance = parse_instance("R(a,b), S(a,c)")
        stoppers = stoppers_in(instance, trigger)
        assert stoppers == [Atom("S", [A, Constant("c")])]


class TestBeforeGraph:
    def test_database_before_derived(self):
        annotated = [
            AnnotatedAtom.initial(Atom("R", [A, B])),
            AnnotatedAtom(Atom("S", [A, N1]), frozenset({A})),
        ]
        graph = before_graph(dict(enumerate(annotated)), parent_edges=[(0, 1)])
        assert 1 in graph[0]
        assert before_is_acyclic(graph)

    def test_stop_inverse_creates_cycle_for_mutual_stoppers(self):
        # Two copies of the same derived atom stop each other -> ≺b cycle.
        copy1 = AnnotatedAtom(Atom("S", [A, N1]), frozenset({A}))
        copy2 = AnnotatedAtom(Atom("S", [A, N2]), frozenset({A}))
        graph = before_graph(dict(enumerate([copy1, copy2])), parent_edges=[])
        assert not before_is_acyclic(graph)

    def test_stop_edges_initial_never_stopped(self):
        annotated = [
            AnnotatedAtom.initial(Atom("S", [A, B])),
            AnnotatedAtom(Atom("S", [A, N1]), frozenset({A})),
        ]
        edges = stop_edges(dict(enumerate(annotated)))
        assert (0, 1) in edges
        assert all(stopped != 0 for _, stopped in edges)
