"""Tests for the shared chase kernel (repro.chase.engine).

Covers the head-witness cache (consistency with brute-force
``satisfies_head`` recomputation, monotone deactivation), the forks the
derivation search explores on, and atom-for-atom equivalence of the
indexed engines with the naive baselines on the benchmark workloads.
"""

import gc
import tempfile

import pytest

from repro.core.atoms import Atom
from repro.core.instance import Database, Instance
from repro.core.parsing import parse_database
from repro.core.terms import Constant
from repro.chase.checkpoint import Budget, ChaseCheckpoint
from repro.chase.engine import ChaseEngine, HeadWitnessIndex
from repro.chase.oblivious import oblivious_chase
from repro.chase.plans import RuleTables
from repro.chase.restricted import (
    exists_derivation_of_length,
    restricted_chase,
    restricted_chase_naive,
)
from repro.chase.trigger import is_active, new_triggers, triggers_on
from repro.errors import CheckpointError
from repro.tgds.tgd import parse_tgds
from tests.chase.witness_audit import consistent_with

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


def x11_database(n: int) -> Database:
    atoms = [Atom("E", [Constant(f"c{i}"), Constant(f"c{i + 1}")]) for i in range(n)]
    atoms += [Atom("G", [Constant(f"c{i}"), Constant(f"c{i}")]) for i in range(n + 1)]
    return Database(atoms)


#: (database text or builder, tgds) pairs spanning the benchmark workloads:
#: the intro example (X1), Example 3.2, Example 5.6, the ablation chain, and
#: the X11 chain with pre-witnessed heads.
WORKLOADS = [
    (parse_database("R(a,b)"), parse_tgds(["R(x,y) -> R(x,z)"])),
    (parse_database("P(a,b)"), parse_tgds(
        ["P(x,y) -> R(x,y)", "P(x,y) -> S(x)", "R(x,y) -> S(x)", "S(x) -> R(x,y)"]
    )),
    (parse_database("R(a,b), S(b,c)"), parse_tgds(
        ["S(x,y) -> T(x)", "R(x,y), T(y) -> P(x,y)", "P(x,y) -> P(y,z)"]
    )),
    (chain_database(8), CHAIN_TGDS),
    (x11_database(8), CHAIN_TGDS),
]


class TestHeadWitnessIndex:
    @pytest.mark.parametrize("database,tgds", WORKLOADS)
    def test_consistent_after_seeding(self, database, tgds):
        instance = Instance(database.atoms())
        index = HeadWitnessIndex(RuleTables(tgds), instance)
        assert consistent_with(index, instance)

    @pytest.mark.parametrize("database,tgds", WORKLOADS)
    def test_consistent_throughout_a_chase(self, database, tgds):
        engine = ChaseEngine(database, tgds)
        steps = 0
        while engine.pending and steps < 30:
            trigger = engine.pending.pop(0)
            if not engine.is_active(trigger):
                continue
            engine.apply(trigger)
            steps += 1
            assert consistent_with(engine.witnesses, engine.instance)

    @pytest.mark.parametrize("database,tgds", WORKLOADS)
    def test_agrees_with_bruteforce_is_active(self, database, tgds):
        engine = ChaseEngine(database, tgds)
        steps = 0
        while engine.pending and steps < 30:
            for pending in list(engine.pending):
                assert engine.is_active(pending) == is_active(pending, engine.instance)
            trigger = engine.pending.pop(0)
            if engine.is_active(trigger):
                engine.apply(trigger)
                steps += 1

    def test_deactivation_is_monotone(self):
        # Once a frontier tuple is witnessed the cache hit is permanent:
        # no chase step may flip a trigger back to active.
        tgds = parse_tgds(["R(x,y) -> S(x,z)", "S(x,y) -> T(y)"])
        engine = ChaseEngine(parse_database("R(a,b)"), tgds)
        deactivated = set()
        steps = 0
        while engine.pending and steps < 20:
            for pending in list(engine.pending):
                if not engine.is_active(pending):
                    deactivated.add(pending.key)
                assert not (pending.key in deactivated and engine.is_active(pending))
            trigger = engine.pending.pop(0)
            if engine.is_active(trigger):
                engine.apply(trigger)
                steps += 1


def engine_state(engine):
    """Everything of ``engine`` a fork must leave alone: atoms with their
    births, predicate and position buckets, the pending keys, and the
    witnessed sets."""
    instance = engine.instance
    get = instance.births()
    atoms = list(instance)
    terms = {term for atom in atoms for term in atom.terms}
    buckets = {}
    for predicate in sorted(instance.predicates()):
        buckets[predicate] = list(instance.with_predicate(predicate))
        arity = max(len(atom.terms) for atom in atoms if atom.predicate == predicate)
        for position in range(1, arity + 1):
            for term in terms:
                bucket = list(instance.with_term_at(predicate, position, term))
                if bucket:
                    buckets[predicate, position, term] = bucket
    witnessed = {index: set(keys) for index, keys in engine.witnesses._sets.items()}
    return (
        [(atom, get(atom)) for atom in atoms],
        instance.next_birth(),
        buckets,
        [t.key for t in engine.pending],
        witnessed,
    )


def active_trigger(engine):
    """The first active pending trigger, taken off the worklist."""
    trigger = engine.active_pending()[0]
    engine.pending.remove(trigger)
    return trigger


class TestFork:
    """``ChaseEngine.fork``: a copy that shares nothing mutable."""

    WORKLOAD = (
        parse_database("R(a,b), S(b,c)"),
        parse_tgds(["S(x,y) -> T(x)", "R(x,y), T(y) -> P(x,y)", "P(x,y) -> P(y,z)"]),
    )

    def test_apply_on_a_fork_leaves_the_parent_untouched(self):
        engine = ChaseEngine(*self.WORKLOAD)
        before = engine_state(engine)
        fork = engine.fork()
        assert fork.derivation is None and fork.stats is None
        trigger = active_trigger(fork)
        assert fork.apply(trigger)
        assert trigger.result() in fork.instance
        assert trigger.result() not in engine.instance
        assert engine_state(engine) == before
        assert consistent_with(engine.witnesses, engine.instance)
        assert consistent_with(fork.witnesses, fork.instance)

    def test_nested_forks_leave_every_ancestor_untouched(self):
        engine = ChaseEngine(chain_database(3), CHAIN_TGDS)
        lineage = [(engine, engine_state(engine))]
        for _ in range(3):
            fork = lineage[-1][0].fork()
            fork.apply(active_trigger(fork))
            lineage.append((fork, engine_state(fork)))
        for ancestor, state in lineage:
            assert engine_state(ancestor) == state
            assert consistent_with(ancestor.witnesses, ancestor.instance)
        # Each fork's atoms extend its parent's by exactly one new atom.
        sizes = [len(ancestor.instance) for ancestor, _ in lineage]
        assert sizes == list(range(sizes[0], sizes[0] + 4))

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_a_fork_is_memory_scratch_on_either_backend(
        self, backend, tmp_path, monkeypatch
    ):
        # SQLiteInstance files go to the temp directory; a fork must add
        # none, and closing the parent must leave none behind.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        engine = ChaseEngine(*self.WORKLOAD, backend=backend)
        before = engine_state(engine)
        files = sorted(tmp_path.glob("chase-*.sqlite"))
        assert len(files) == (backend == "sqlite")
        fork = engine.fork()
        assert type(fork.instance) is Instance
        for _ in range(6):
            fork.apply(active_trigger(fork))
        assert len(fork.instance) > len(engine.instance)
        assert engine_state(engine) == before
        assert sorted(tmp_path.glob("chase-*.sqlite")) == files
        getattr(engine.instance, "close", lambda: None)()
        assert list(tmp_path.glob("chase-*.sqlite*")) == []


def holders(atom):
    """The dicts keyed by ``atom`` and the sets holding it, anywhere."""
    return [
        referrer
        for referrer in gc.get_referrers(atom)
        if isinstance(referrer, (dict, set)) and atom in referrer
    ]


class TestRecordedOnce:
    """What one new atom and one applied trigger cost the engine."""

    def test_a_round_atom_is_keyed_by_the_atom_dict_and_its_buckets(self):
        # Cut mid round, when a recorded delta would be live: each atom the
        # round added sits in the atom dict, its predicate bucket and one
        # bucket per indexed position of its predicate, and nowhere else.
        # The memory backend's dicts; the sqlite backend keeps its rows.
        tgds = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y), F(y,z) -> P(x,z)"])
        engine = ChaseEngine(chain_database(4), tgds, backend="memory")
        engine.drive(max_rounds=1)
        start = engine.instance.next_birth()
        result = engine.run_round(max_applications=2)
        assert result.cut and engine.mid_round() and len(result.delta) == 2
        indexed = dict(engine.instance._indexed)
        for atom, birth in engine.instance.born_since(start):
            assert engine.instance.births()(atom) == birth
            expected = 2 + len(indexed.get(atom.predicate, ()))
            assert len(holders(atom)) == expected, atom
        assert indexed.get("F")

    def test_applying_a_full_rule_trigger_adds_no_witness_entry(self):
        tgds = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)"])
        engine = ChaseEngine(chain_database(3), tgds)
        sets = engine.witnesses._sets
        assert len(sets) == 1  # the existential rule's only
        while engine.pending:
            trigger = engine.pending.pop(0)
            if not engine.is_active(trigger):
                continue
            before = sum(map(len, sets.values()))
            assert engine.apply(trigger)
            grown = sum(map(len, sets.values())) - before
            assert grown == (1 if trigger.tgd.existential_variables else 0)
        assert consistent_with(engine.witnesses, engine.instance)


class TestEquivalenceWithNaiveBaselines:
    @pytest.mark.parametrize("database,tgds", WORKLOADS)
    def test_restricted_chase_matches_naive(self, database, tgds):
        indexed = restricted_chase(database, tgds, max_steps=200)
        naive = restricted_chase_naive(database, tgds, max_steps=200)
        assert indexed.terminated == naive.terminated
        if indexed.terminated:
            assert indexed.instance == naive.instance
            assert indexed.steps == naive.steps
        indexed.derivation.validate(tgds)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_chain_workloads_atom_for_atom(self, n):
        for make_db in (chain_database, x11_database):
            db = make_db(n)
            indexed = restricted_chase(db, CHAIN_TGDS)
            naive = restricted_chase_naive(db, CHAIN_TGDS)
            assert indexed.terminated and naive.terminated
            assert indexed.instance == naive.instance

    @pytest.mark.parametrize("database,tgds", WORKLOADS)
    def test_new_triggers_matches_bruteforce(self, database, tgds):
        # Drive a short chase; after each added atom, new_triggers must
        # return exactly the full-enumeration triggers touching that atom.
        result = restricted_chase(database, tgds, max_steps=10)
        instance = Instance(result.derivation.initial.atoms())
        for step in result.derivation.steps:
            atom = step.result()
            instance.add(atom)
            incremental = {t.key for t in new_triggers(tgds, instance, [atom])}
            brute = {
                t.key
                for t in triggers_on(tgds, instance)
                if atom in t.body_image()
            }
            assert incremental == brute

    def test_oblivious_matches_roundless_fixpoint(self):
        # The oblivious fixpoint is order-independent; the engine-driven
        # rounds must land on the same instance as naive saturation.
        database = parse_database("P(a,b)")
        tgds = parse_tgds(
            ["P(x,y) -> R(x,y)", "P(x,y) -> S(x)", "R(x,y) -> S(x)", "S(x) -> R(x,y)"]
        )
        result = oblivious_chase(database, tgds)
        assert result.terminated
        reference = Instance(database.atoms())
        changed = True
        while changed:
            changed = False
            for trigger in list(triggers_on(tgds, reference)):
                if reference.add(trigger.result()):
                    changed = True
        assert result.instance == reference


class TestDerivationSearchOnEngine:
    def test_found_derivations_validate(self):
        database = parse_database("R(a,b), S(b,c)")
        tgds = parse_tgds(
            ["S(x,y) -> T(x)", "R(x,y), T(y) -> P(x,y)", "P(x,y) -> P(y,z)"]
        )
        found = exists_derivation_of_length(database, tgds, 6)
        assert found is not None
        found.validate(tgds)

    def test_search_leaves_no_stale_state(self):
        # The search explores on forks of its root engine, so a full
        # (failed) exhaustive search changes nothing a later search sees:
        # two searches in a row return the same answer.
        database = parse_database("R(a,b)")
        tgds = parse_tgds(["R(x,y) -> R(y,x)"])
        assert exists_derivation_of_length(database, tgds, 3) is None
        assert exists_derivation_of_length(database, tgds, 1) is not None


class TestRunRoundBudgets:
    """Budget cuts in ``run_round``: typed reasons, tail requeue, suspension.

    A violated :class:`~repro.chase.checkpoint.Budget` must cut the round
    with a ``budget:*`` reason, re-queue the unprocessed tail in order, and
    leave the engine *suspended* (round delta live) — never poisoned: a
    later ``run_round`` with headroom completes the same logical round
    byte-identically to an uncut one.
    """

    def fresh_engine(self):
        return ChaseEngine(chain_database(6), CHAIN_TGDS)

    def uncut_round(self):
        engine = self.fresh_engine()
        return engine, engine.run_round()

    def test_application_budget_cuts_with_typed_reason(self):
        engine = self.fresh_engine()
        budget = Budget(max_applications=2)
        budget.start()
        result = engine.run_round(budget=budget)
        assert result.cut and result.reason == "budget:applications"
        assert len(result.applied) == 2
        assert budget.applications == 2  # every application was charged
        assert engine.mid_round()

    def test_atom_budget_cuts_with_typed_reason(self):
        engine = self.fresh_engine()
        base = len(engine.instance)
        budget = Budget(max_atoms=base + 2)
        budget.start()
        result = engine.run_round(budget=budget)
        assert result.cut and result.reason == "budget:atoms"
        assert len(engine.instance) <= base + 2

    def test_wall_budget_cuts_before_any_application(self):
        engine = self.fresh_engine()
        budget = Budget(wall_seconds=0)
        budget.start()
        result = engine.run_round(budget=budget)
        assert result.cut and result.reason == "budget:wall"
        assert result.applied == [] and result.delta == []
        assert engine.mid_round()

    def test_cut_requeues_tail_in_order(self):
        engine = self.fresh_engine()
        before = [t.key for t in engine.pending]
        budget = Budget(max_applications=2)
        budget.start()
        result = engine.run_round(budget=budget)
        applied_keys = [t.key for t in result.applied]
        # The unprocessed tail is exactly the original batch minus what ran,
        # in the original order.
        assert [t.key for t in engine.pending] == [
            k for k in before if k not in applied_keys
        ]

    def test_suspended_round_resumes_byte_identically(self):
        _, uncut = self.uncut_round()
        engine = self.fresh_engine()
        budget = Budget(max_applications=2)
        budget.start()
        first = engine.run_round(budget=budget)
        assert first.cut
        second = engine.run_round()  # headroom restored: same logical round
        assert not second.cut and not engine.mid_round()
        assert [t.key for t in first.applied + second.applied] == [
            t.key for t in uncut.applied
        ]
        assert first.delta + second.delta == uncut.delta
        assert [t.key for t in second.discovered] == [
            t.key for t in uncut.discovered
        ]

    def test_shared_budget_spans_calls(self):
        engine = self.fresh_engine()
        budget = Budget(max_applications=4)
        budget.start()
        first = engine.run_round(budget=budget)
        assert first.cut and budget.applications == 4
        # The same envelope has no headroom left: the next call cuts at once.
        second = engine.run_round(budget=budget)
        assert second.cut and second.reason == "budget:applications"
        assert second.applied == []

    def test_legacy_caps_keep_their_reasons(self):
        engine = self.fresh_engine()
        result = engine.run_round(max_applications=1)
        assert result.cut and result.reason == "max_applications"
        engine = self.fresh_engine()
        result = engine.run_round(max_atoms=len(engine.instance))
        assert result.cut and result.reason == "max_atoms"

    def test_drive_counts_and_collects_only_into_a_given_list(self):
        engine = self.fresh_engine()
        start = len(engine.instance)
        collected = []
        reason, _, added = engine.drive(max_applications=3, into=collected)
        assert reason == "max_applications"
        reason, _, rest = engine.drive(into=collected)
        assert reason is None
        assert (added, rest) == (3, len(collected) - 3)
        assert collected == list(engine.instance)[start:]
        # Without ``into`` the call reports counts only.
        assert self.fresh_engine().drive() == (None, len(collected), len(collected))


class TestConstructor:
    """The one way to build an engine, fresh or resumed."""

    KINDS = ["semi_naive", "restricted:fifo", "restricted:lifo", "oblivious"]

    def suspended(self, kind):
        engine = ChaseEngine(chain_database(4), CHAIN_TGDS, kind)
        assert engine.drive(max_applications=2)[0] == "max_applications"
        return engine, ChaseCheckpoint.capture(engine)

    @pytest.mark.parametrize("kind", KINDS)
    def test_witnesses_and_derivation_iff_not_oblivious(self, kind):
        engine, checkpoint = self.suspended(kind)
        resumed = ChaseEngine(None, CHAIN_TGDS, kind, resume=checkpoint)
        tracked = kind != "oblivious"
        for built in (engine, resumed):
            assert built.kind == kind
            assert (built.witnesses is not None) == tracked
            assert (built.derivation is not None) == tracked
        if tracked:
            assert [t.key for t in resumed.derivation.steps] == [
                t.key for t in engine.derivation.steps
            ]
        else:
            with pytest.raises(RuntimeError):
                resumed.is_active(resumed.pending[0])

    def test_wrong_kind_raises(self):
        _, checkpoint = self.suspended("semi_naive")
        with pytest.raises(CheckpointError, match="cannot resume it as 'oblivious'"):
            ChaseEngine(None, CHAIN_TGDS, "oblivious", resume=checkpoint)

    def test_wrong_version_raises(self):
        _, checkpoint = self.suspended("semi_naive")
        checkpoint.version = 99
        with pytest.raises(CheckpointError, match="version 99 is not supported"):
            ChaseEngine(None, CHAIN_TGDS, resume=checkpoint)

    def test_renamed_rules_raise(self):
        # Equal rules under other names invent other nulls: refused.
        from repro.tgds.tgd import TGD

        _, checkpoint = self.suspended("semi_naive")
        renamed = [TGD(t.body, t.head, name=f"{t.name}_renamed") for t in CHAIN_TGDS]
        assert renamed == list(CHAIN_TGDS)
        with pytest.raises(CheckpointError, match="digest prefixes differ"):
            ChaseEngine(None, renamed, resume=checkpoint)
