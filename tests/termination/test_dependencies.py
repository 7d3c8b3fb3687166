"""Property tests for the rule-dependency assessor.

Three obligations: ``can_feed`` is a sound over-approximation of the
chase-level firing relation (including the repeated-variable existential
refinement), the graph's SCC/layer structure is deterministic and
topological, and discovery pruning of assessor-dead rules is
*byte-identical* — a pruned TGD never fires in any chase, and pruned vs
unpruned runs agree on instance, derivation, and step counts over the
generator corpus.
"""

from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase, seminaive_chase
from repro.core.parsing import parse_database
from repro.guarded.decision import candidate_databases
from repro.termination.dependencies import RuleDependencyGraph, can_feed
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import TGD, parse_tgds

PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)

FAMILIES = ("linear", "guarded", "sticky", "weakly-acyclic")


def tgd(text, name=None):
    return TGD.parse(text, name=name)


class TestCanFeed:
    def test_head_predicate_must_appear_in_body(self):
        producer = tgd("P(x) -> Q(x)")
        assert can_feed(producer, tgd("Q(x) -> R(x)"))
        assert not can_feed(producer, tgd("P(x) -> Q(x)"))
        assert not can_feed(producer, tgd("R(x) -> P(x)"))

    def test_arity_mismatch_never_feeds(self):
        producer = tgd("P(x) -> Q(x, y)")
        assert not can_feed(producer, tgd("Q(x) -> R(x)"))

    def test_repeated_body_variable_rejects_existential(self):
        # Head S(x, z) with existential z can never supply S(y, y): the
        # fresh null at position 2 never equals the frontier image at 1.
        producer = tgd("A(x) -> S(x, z)")
        consumer = tgd("S(y, y) -> T(y)")
        assert not can_feed(producer, consumer)

    def test_repeated_body_variable_accepts_frontier_pair(self):
        # Both positions frontier: the images may coincide (x = y is a
        # possible binding), so the edge must stay.
        producer = tgd("S(x, y) -> S(y, x)")
        consumer = tgd("S(y, y) -> T(y)")
        assert can_feed(producer, consumer)

    def test_repeated_body_variable_accepts_same_existential(self):
        # The *same* existential at both positions always matches S(y, y).
        producer = tgd("A(x) -> S(z, z)")
        consumer = tgd("S(y, y) -> T(y)")
        assert can_feed(producer, consumer)

    def test_distinct_existentials_reject_repeated_variable(self):
        producer = tgd("A(x) -> S(z, w)")
        consumer = tgd("S(y, y) -> T(y)")
        assert not can_feed(producer, consumer)


class TestGraphStructure:
    def test_chain_is_a_dag_in_topological_order(self):
        tgds = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)", "G(x,y) -> H(x)"])
        graph = RuleDependencyGraph(tgds)
        assert graph.edges() == [(0, 1), (1, 2)]
        assert graph.condensation_is_acyclic()
        assert graph.sccs() == [[0], [1], [2]]
        layers = graph.layers()
        assert [t.name for layer in layers for t in layer] == [
            t.name for t in tgds
        ]

    def test_self_feeding_rule_forms_a_cyclic_scc(self):
        graph = RuleDependencyGraph([tgd("R(x, y) -> R(y, z)")])
        assert graph.edges() == [(0, 0)]
        assert not graph.condensation_is_acyclic()

    def test_duplicate_rules_stay_distinct_nodes(self):
        rules = [tgd("P(x) -> Q(x)", name="a"), tgd("P(x) -> Q(x)", name="b")]
        graph = RuleDependencyGraph(rules)
        assert len(graph.sccs()) == 2

    def test_sccs_topological_over_mutual_recursion(self):
        tgds = parse_tgds(
            ["A(x) -> B(x)", "B(x) -> A(x)", "B(x) -> C(x)", "C(x) -> D(x)"]
        )
        graph = RuleDependencyGraph(tgds)
        sccs = graph.sccs()
        assert [0, 1] in sccs
        # The A/B loop must come before its consumers.
        assert sccs.index([0, 1]) < sccs.index([2])
        assert sccs.index([2]) < sccs.index([3])


class TestLiveness:
    def test_reachable_predicates_need_whole_body(self):
        tgds = parse_tgds(["P(x), S(x) -> Q(x)", "Q(x) -> R(x)"])
        graph = RuleDependencyGraph(tgds)
        # Without S, the first rule can never fire, so Q and R stay dead.
        assert graph.reachable_predicates(["P"]) == frozenset({"P"})
        assert graph.reachable_predicates(["P", "S"]) == frozenset(
            {"P", "S", "Q", "R"}
        )

    def test_dead_rule_never_fires_in_a_full_chase(self):
        tgds = parse_tgds(
            ["E(x,y) -> F(x,y)", "F(x,y) -> G(x)", "Z(x) -> E(x, w)"]
        )
        database = parse_database(["E(a, b)"])
        graph = RuleDependencyGraph(tgds)
        live = graph.live_indices(database.predicates())
        assert 2 not in live  # Z is underivable: no rule heads it
        # The unpruned chase confirms the proof: rule 2 appears in no step.
        result = restricted_chase(database, tgds, prune=False)
        assert result.terminated
        fired = {step.tgd.name for step in result.derivation.steps}
        assert tgds[2].name not in fired

    def test_live_subset_preserves_input_order(self):
        tgds = parse_tgds(["Z(x) -> Q(x)", "P(x) -> Q(x)", "Q(x) -> R(x)"])
        graph = RuleDependencyGraph(tgds)
        live = graph.live_tgds(["P"])
        assert [t.name for t in live] == [tgds[1].name, tgds[2].name]

    def test_triggerable_is_body_intersection(self):
        tgds = parse_tgds(["P(x) -> Q(x)", "Q(x) -> R(x)", "R(x), Q(x) -> S(x)"])
        graph = RuleDependencyGraph(tgds)
        names = [t.name for t in graph.triggerable(["Q"])]
        assert names == [tgds[1].name, tgds[2].name]


def assert_identical(unpruned, pruned):
    assert unpruned.terminated == pruned.terminated
    assert unpruned.steps == pruned.steps
    assert unpruned.instance == pruned.instance
    assert unpruned.instance.sorted_atoms() == pruned.instance.sorted_atoms()
    assert [t.key for t in unpruned.derivation.steps] == [
        t.key for t in pruned.derivation.steps
    ]


class TestPruningByteIdentity:
    def test_corpus_restricted(self):
        for family in FAMILIES:
            for tgds in corpus(family, 2, profile=PROFILE):
                for database in candidate_databases(tgds):
                    assert_identical(
                        restricted_chase(database, tgds, max_steps=25, prune=False),
                        restricted_chase(database, tgds, max_steps=25, prune=True),
                    )

    def test_corpus_seminaive(self):
        for family in FAMILIES:
            for tgds in corpus(family, 2, base_seed=7, profile=PROFILE):
                for database in candidate_databases(tgds):
                    assert_identical(
                        seminaive_chase(database, tgds, max_steps=25, prune=False),
                        seminaive_chase(database, tgds, max_steps=25, prune=True),
                    )

    def test_corpus_oblivious(self):
        for tgds in corpus("weakly-acyclic", 2, profile=PROFILE):
            for database in candidate_databases(tgds):
                unpruned = oblivious_chase(
                    database, tgds, max_atoms=200, max_rounds=20, prune=False
                )
                pruned = oblivious_chase(
                    database, tgds, max_atoms=200, max_rounds=20, prune=True
                )
                assert unpruned.terminated == pruned.terminated
                assert unpruned.instance == pruned.instance
                assert (
                    unpruned.instance.sorted_atoms() == pruned.instance.sorted_atoms()
                )

    def test_dead_distractors_are_pruned_and_identical(self):
        tgds = parse_tgds(
            [
                "E(x,y) -> F(x,y)",
                "F(x,y) -> G(y, w)",
                # Dead: D0 is never in the database and nothing heads it.
                "D0(x) -> D1(x)",
                "D1(x) -> D2(x)",
            ]
        )
        database = parse_database(["E(a, b)"])
        live = RuleDependencyGraph(tgds).live_indices(database.predicates())
        assert live == (0, 1)
        assert_identical(
            restricted_chase(database, tgds, prune=False),
            restricted_chase(database, tgds, prune=True),
        )
