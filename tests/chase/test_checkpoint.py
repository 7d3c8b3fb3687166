"""Checkpoint/resume and budget semantics: interrupted ≡ uninterrupted.

The fault-tolerance contract: a chase interrupted by a
:class:`repro.chase.checkpoint.Budget` at *any* point — round boundary or
mid-round — and resumed from its pickled checkpoint must finish
byte-identically to the uninterrupted run: same instance (insertion order
included), same derivation log, same verdict, same step/round counters.
These tests enforce that property over the generator corpus for every cut
depth (first round, second, middle, last), and cover the guard rails:
kind/digest/version validation, RNG-strategy rejection, the deciders'
``TIMEOUT`` verdicts, and the pickle formats a checkpoint is made of.
"""

import pickle
from pathlib import Path

import pytest

from repro.core.atoms import Atom
from repro.core.instance import Database, Instance
from repro.core.substitution import Substitution
from repro.core.terms import Constant, Variable
from repro.chase.checkpoint import CHECKPOINT_VERSION, Budget, ChaseCheckpoint
from repro.chase.engine import ChaseEngine
from repro.chase.multihead import example_b1_tgds, multihead_restricted_chase
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase, seminaive_chase
from repro.chase.trigger import Trigger
from repro.errors import ChaseInterrupted, CheckpointError, ReproError
from repro.guarded.decision import candidate_databases, decide_guarded, scan_suspects
from repro.termination.portfolio import TerminationPortfolio, decide
from repro.termination.verdict import Status
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import TGD, parse_tgds

#: Dense-existential profile shared with the equivalence suites.
PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)

FAMILIES = ("linear", "guarded", "sticky", "weakly-acyclic")

MAX_STEPS = 120

CHAIN_TGDS = parse_tgds(
    [
        "E(x,y) -> F(x,y)",
        "F(x,y) -> G(y,w)",
        "G(x,y) -> H(x)",
    ]
)

DIVERGING_TGDS = parse_tgds(["R(x,y) -> R(y,z)"])


def chain_database(n: int) -> Database:
    return Database(
        Atom("E", [Constant(f"c{i}"), Constant(f"c{i + 1}")]) for i in range(n)
    )


def assert_identical(cold, resumed):
    """The byte-identity obligation: instance, derivation, verdict, counts."""
    assert cold.terminated == resumed.terminated
    assert cold.steps == resumed.steps
    assert cold.instance == resumed.instance
    assert list(cold.instance) == list(resumed.instance)
    assert [t.key for t in cold.derivation.steps] == [
        t.key for t in resumed.derivation.steps
    ]
    assert cold.rounds == resumed.rounds


def interrupt_then_resume(database, tgds, budget):
    """Run under ``budget``; on interrupt, resume the (pickled) checkpoint.

    Returns ``(result, interrupted)`` where ``interrupted`` says whether the
    budget actually bound before termination.
    """
    try:
        return (
            seminaive_chase(
                database, tgds, max_steps=MAX_STEPS, budget=budget
            ),
            False,
        )
    except ChaseInterrupted as error:
        assert error.checkpoint is not None
        assert error.instance is not None
        checkpoint = pickle.loads(pickle.dumps(error.checkpoint))
        return (
            seminaive_chase(
                None, tgds, max_steps=MAX_STEPS, resume=checkpoint
            ),
            True,
        )


class TestResumeByteIdentical:
    """The tentpole property, over the generator corpus."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_boundary_cuts(self, family):
        interrupted_somewhere = False
        multi_round_seen = False
        for tgds in corpus(family, 3, base_seed=1307, profile=PROFILE):
            for database in candidate_databases(tgds):
                cold = seminaive_chase(database, tgds, max_steps=MAX_STEPS)
                total = cold.rounds or 1
                multi_round_seen = multi_round_seen or total >= 2
                # First, second, middle, and last interruptible round.
                cuts = sorted(
                    {1, min(2, total), max(1, total // 2), max(1, total - 1)}
                )
                for k in cuts:
                    resumed, interrupted = interrupt_then_resume(
                        database, tgds, Budget(max_rounds=k)
                    )
                    interrupted_somewhere = interrupted_somewhere or interrupted
                    assert_identical(cold, resumed)
        # Any multi-round chase must have actually exercised a cut.
        assert interrupted_somewhere or not multi_round_seen

    def test_mid_round_cuts_every_application_depth(self):
        database = chain_database(4)
        cold = seminaive_chase(database, CHAIN_TGDS, max_steps=MAX_STEPS)
        assert cold.terminated and cold.steps > 2
        for j in range(1, cold.steps):
            budget = Budget(max_applications=j)
            with pytest.raises(ChaseInterrupted) as excinfo:
                seminaive_chase(
                    database, CHAIN_TGDS, max_steps=MAX_STEPS, budget=budget
                )
            error = excinfo.value
            assert error.reason == "budget:applications"
            assert error.partial["steps"] == j
            checkpoint = pickle.loads(pickle.dumps(error.checkpoint))
            resumed = seminaive_chase(
                None, CHAIN_TGDS, max_steps=MAX_STEPS, resume=checkpoint
            )
            assert_identical(cold, resumed)

    def test_mid_round_checkpoint_carries_live_delta(self):
        budget = Budget(max_applications=2)
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(chain_database(4), CHAIN_TGDS, budget=budget)
        assert excinfo.value.checkpoint.delta is not None

    def test_repeated_interruptions_chain(self):
        # Interrupt every single round; the relay of checkpoints must land
        # on the cold run exactly.
        database = chain_database(5)
        cold = seminaive_chase(database, CHAIN_TGDS, max_steps=MAX_STEPS)
        checkpoint = None
        result = None
        for _ in range(64):
            budget = Budget(max_rounds=1)
            try:
                result = seminaive_chase(
                    database if checkpoint is None else None,
                    CHAIN_TGDS,
                    max_steps=MAX_STEPS,
                    budget=budget,
                    resume=checkpoint,
                )
                break
            except ChaseInterrupted as error:
                checkpoint = error.checkpoint
        assert result is not None
        assert_identical(cold, result)

    def test_wall_clock_budget_zero_interrupts_immediately(self):
        budget = Budget(wall_seconds=0)
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(chain_database(3), CHAIN_TGDS, budget=budget)
        error = excinfo.value
        assert error.reason == "budget:wall"
        cold = seminaive_chase(chain_database(3), CHAIN_TGDS, max_steps=MAX_STEPS)
        resumed = seminaive_chase(None, CHAIN_TGDS, resume=error.checkpoint)
        assert_identical(cold, resumed)

    def test_fifo_and_lifo_resume(self):
        database = chain_database(4)
        for strategy in ("fifo", "lifo"):
            cold = restricted_chase(
                database, CHAIN_TGDS, strategy=strategy, max_steps=MAX_STEPS
            )
            for j in (1, 3, cold.steps - 1):
                budget = Budget(max_applications=j)
                with pytest.raises(ChaseInterrupted) as excinfo:
                    restricted_chase(
                        database,
                        CHAIN_TGDS,
                        strategy=strategy,
                        max_steps=MAX_STEPS,
                        budget=budget,
                    )
                checkpoint = pickle.loads(pickle.dumps(excinfo.value.checkpoint))
                resumed = restricted_chase(
                    None,
                    CHAIN_TGDS,
                    strategy=strategy,
                    max_steps=MAX_STEPS,
                    resume=checkpoint,
                )
                assert cold.terminated == resumed.terminated
                assert cold.steps == resumed.steps
                assert list(cold.instance) == list(resumed.instance)
                assert [t.key for t in cold.derivation.steps] == [
                    t.key for t in resumed.derivation.steps
                ]

    def test_oblivious_resume_counters_match_cold_run(self):
        database = chain_database(3)
        cold = oblivious_chase(database, CHAIN_TGDS, max_rounds=50)
        assert cold.terminated
        for k in range(1, cold.rounds + 1):
            try:
                run = oblivious_chase(
                    database, CHAIN_TGDS, max_rounds=50, budget=Budget(max_rounds=k)
                )
            except ChaseInterrupted as error:
                checkpoint = pickle.loads(pickle.dumps(error.checkpoint))
                run = oblivious_chase(
                    None, CHAIN_TGDS, max_rounds=50, resume=checkpoint
                )
            assert run.terminated == cold.terminated
            assert run.rounds == cold.rounds
            assert run.applications == cold.applications
            assert list(run.instance) == list(cold.instance)

    def test_oblivious_mid_round_resume(self):
        database = chain_database(3)
        cold = oblivious_chase(database, CHAIN_TGDS, max_rounds=50)
        for j in range(1, cold.applications):
            try:
                run = oblivious_chase(
                    database,
                    CHAIN_TGDS,
                    max_rounds=50,
                    budget=Budget(max_applications=j),
                )
            except ChaseInterrupted as error:
                run = oblivious_chase(
                    None, CHAIN_TGDS, max_rounds=50, resume=error.checkpoint
                )
            assert run.rounds == cold.rounds
            assert run.applications == cold.applications
            assert list(run.instance) == list(cold.instance)

    def test_diverging_set_interrupts_and_resumes_to_the_same_cut(self):
        database = Database([Atom("R", [Constant("a"), Constant("b")])])
        cold = seminaive_chase(database, DIVERGING_TGDS, max_steps=40)
        assert not cold.terminated and cold.steps == 40
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(
                database, DIVERGING_TGDS, max_steps=40, budget=Budget(max_rounds=5)
            )
        resumed = seminaive_chase(
            None, DIVERGING_TGDS, max_steps=40, resume=excinfo.value.checkpoint
        )
        assert_identical(cold, resumed)


#: A two-atom body: its pickle must carry the frontier order.
JOIN_TGD = parse_tgds(["F(x,y), F(y,z) -> T(x,z)"])[0]


class TestPickling:
    """The pickle formats checkpoints and their rows ride on."""

    def test_atom_round_trip(self):
        atom = Atom("R", [Constant("a"), Constant("b")])
        assert pickle.loads(pickle.dumps(atom)) == atom

    def test_substitution_round_trip(self):
        sub = Substitution({Variable("x"): Constant("a")})
        assert pickle.loads(pickle.dumps(sub)) == sub

    def test_tgd_round_trip(self):
        tgd = JOIN_TGD
        back = pickle.loads(pickle.dumps(tgd))
        assert back == tgd and back.name == tgd.name
        assert back.frontier_order == tgd.frontier_order

    def test_trigger_round_trip_preserves_key_and_result(self):
        tgd = CHAIN_TGDS[0]
        trigger = Trigger(tgd, {Variable("x"): Constant("a"), Variable("y"): Constant("b")})
        back = pickle.loads(pickle.dumps(trigger))
        assert back.key == trigger.key
        assert back.result() == trigger.result()
        assert back.canonical_key == trigger.canonical_key

    def test_instance_round_trip_preserves_insertion_order(self):
        atoms = [Atom("R", [Constant(f"c{i}"), Constant("a")]) for i in (3, 1, 2)]
        instance = Instance(atoms)
        back = pickle.loads(pickle.dumps(instance))
        assert list(back) == atoms
        # Index buckets are rebuilt in the same (insertion) order.
        assert list(back.with_term_at("R", 2, Constant("a"))) == atoms

    def test_database_round_trip_stays_a_database(self):
        db = chain_database(3)
        back = pickle.loads(pickle.dumps(db))
        assert isinstance(back, Database)
        assert back.sorted_atoms() == db.sorted_atoms()

    def test_delta_snapshot_round_trip(self):
        # A cut round's delta crosses process boundaries only inside a
        # checkpoint, as the tail of its atom list (see chase/checkpoint.py).
        engine = ChaseEngine(chain_database(3), CHAIN_TGDS)
        engine.drive(max_rounds=1)
        start = engine.instance.next_birth()
        assert engine.run_round(max_applications=2).cut
        checkpoint = pickle.loads(pickle.dumps(ChaseCheckpoint.capture(engine)))
        atoms = [atom for atom, _ in engine.instance.born_since(start)]
        assert len(atoms) == 2 and checkpoint.atoms[-2:] == atoms
        assert checkpoint.round_start() == len(checkpoint.atoms) - 2
        back = ChaseEngine(None, CHAIN_TGDS, resume=checkpoint)
        born = back.instance.born_since(back._round_start)
        assert [atom for atom, _ in born] == atoms
        n = len(checkpoint.atoms)
        assert [birth for _, birth in born] == [n - 2, n - 1]

    def test_delta_snapshot_export(self):
        engine = ChaseEngine(chain_database(3), CHAIN_TGDS)
        engine.drive(max_rounds=1)
        atom = engine.pending[0].result()
        assert engine.run_round(max_applications=1).cut
        assert ChaseCheckpoint.capture(engine).delta == ([(atom, 0)], 1)
        engine.drive()
        assert ChaseCheckpoint.capture(engine).delta is None


#: A version-3 blob written before triggers became tuples: a semi-naive
#: chase of :data:`CHAIN_TGDS` on ``chain_database(6)`` cut by
#: ``Budget(max_applications=9)`` in its second round on the memory
#: backend, pickled with protocol 4.  While it resumes, and a fresh capture of the same run
#: reproduces its bytes, ``CHECKPOINT_VERSION`` needs no bump.
GOLDEN_BLOB = Path(__file__).parent / "data" / "checkpoint_v3_chain.pickle"


class TestGoldenBlob:
    def test_committed_blob_resumes_to_the_uninterrupted_run(self):
        checkpoint = pickle.loads(GOLDEN_BLOB.read_bytes())
        assert checkpoint.version == CHECKPOINT_VERSION == 3
        assert checkpoint.delta is not None and checkpoint.pending
        cold = seminaive_chase(chain_database(6), CHAIN_TGDS, max_steps=MAX_STEPS)
        resumed = seminaive_chase(None, CHAIN_TGDS, max_steps=MAX_STEPS, resume=checkpoint)
        assert cold.terminated
        assert_identical(cold, resumed)

    def test_the_same_cut_pickles_to_the_committed_bytes(self):
        # A sqlite instance rebuilds its atoms, so its blob shares fewer
        # objects and has other bytes; the committed blob is a memory one.
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(
                chain_database(6), CHAIN_TGDS, budget=Budget(max_applications=9),
                backend="memory",
            )
        blob = pickle.dumps(excinfo.value.checkpoint, protocol=4)
        assert blob == GOLDEN_BLOB.read_bytes()

    @pytest.mark.parametrize("tamper", ["reorder", "renumber", "count", "not_tail"])
    def test_a_delta_that_is_not_the_atom_lists_tail_is_refused(self, tamper):
        checkpoint = pickle.loads(GOLDEN_BLOB.read_bytes())
        items, count = checkpoint.delta
        assert count == len(items) >= 2
        assert checkpoint.round_start() == len(checkpoint.atoms) - count
        if tamper == "reorder":
            (first, i), (second, j) = items[:2]
            items = [(second, i), (first, j)] + items[2:]
        elif tamper == "renumber":
            items = [(atom, i + 1) for atom, i in items]
        elif tamper == "count":
            count += 1
        else:
            items = [(checkpoint.atoms[i], i) for i in range(count)]
        checkpoint.delta = (items, count)
        with pytest.raises(CheckpointError, match="not the tail"):
            seminaive_chase(None, CHAIN_TGDS, max_steps=MAX_STEPS, resume=checkpoint)


class TestGuardRails:
    def test_budget_rejects_random_strategy(self):
        with pytest.raises(ValueError, match="deterministic strategy"):
            restricted_chase(
                chain_database(2),
                CHAIN_TGDS,
                strategy="random",
                seed=7,
                budget=Budget(max_applications=1),
            )

    def test_resume_rejects_random_strategy(self):
        budget = Budget(max_applications=1)
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(chain_database(3), CHAIN_TGDS, budget=budget)
        with pytest.raises(ValueError, match="deterministic strategy"):
            restricted_chase(
                None,
                CHAIN_TGDS,
                strategy="random",
                seed=7,
                resume=excinfo.value.checkpoint,
            )

    def test_kind_mismatch_is_a_checkpoint_error(self):
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(
                chain_database(3), CHAIN_TGDS, budget=Budget(max_applications=1)
            )
        checkpoint = excinfo.value.checkpoint
        with pytest.raises(CheckpointError, match="cannot resume"):
            restricted_chase(
                None, CHAIN_TGDS, strategy="fifo", resume=checkpoint
            )
        with pytest.raises(CheckpointError):
            oblivious_chase(None, CHAIN_TGDS, resume=checkpoint)

    def test_tgd_digest_mismatch_is_a_checkpoint_error(self):
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(
                chain_database(3), CHAIN_TGDS, budget=Budget(max_applications=1)
            )
        checkpoint = excinfo.value.checkpoint
        other = parse_tgds(["E(x,y) -> F(x,y)"])
        with pytest.raises(CheckpointError, match="different TGD set"):
            seminaive_chase(None, other, resume=checkpoint)
        # Same rules under different names alias different nulls: refused.
        renamed = [
            TGD.parse(text, name=f"renamed{index}")
            for index, text in enumerate(
                ["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)", "G(x,y) -> H(x)"]
            )
        ]
        assert list(renamed) == list(CHAIN_TGDS)  # equal modulo naming
        with pytest.raises(CheckpointError):
            seminaive_chase(None, renamed, resume=checkpoint)

    def test_version_mismatch_is_a_checkpoint_error(self):
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(
                chain_database(3), CHAIN_TGDS, budget=Budget(max_applications=1)
            )
        checkpoint = excinfo.value.checkpoint
        checkpoint.version = 99
        with pytest.raises(CheckpointError, match="version"):
            seminaive_chase(None, CHAIN_TGDS, resume=checkpoint)

    def test_version_2_blob_is_refused(self):
        # Version 3 dropped the seen-key set; a blob stamped with the old
        # version is refused by the version check, not resumed.
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(
                chain_database(3), CHAIN_TGDS, budget=Budget(max_applications=1)
            )
        checkpoint = excinfo.value.checkpoint
        assert checkpoint.version == 3 and not hasattr(checkpoint, "seen")
        checkpoint.version = 2
        blob = pickle.dumps(checkpoint)
        with pytest.raises(CheckpointError, match="version 2 is not supported"):
            seminaive_chase(None, CHAIN_TGDS, resume=pickle.loads(blob))

    @pytest.mark.parametrize(
        "fields",
        [
            # The version-2 code pickled 13 constructor arguments, the
            # seen-key set before the version.
            ("semi_naive", [], [], [], [], None, [], [], 0, 1, 0, True, 2),
            # The current version with one field too many.
            ("semi_naive", [], [], [], None, [], [], 0, 1, 0, True, [], CHECKPOINT_VERSION),
        ],
    )
    def test_blob_of_another_shape_is_refused(self, fields):
        class Blob:
            def __reduce__(self):
                return (ChaseCheckpoint, fields)

        with pytest.raises(CheckpointError, match=f"version {fields[-1]} is not supported"):
            pickle.loads(pickle.dumps(Blob()))

    def test_negative_budget_limits_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Budget(wall_seconds=-1)

    def test_nan_budget_limits_rejected(self):
        # NaN compares false with everything: unchecked, it would disarm
        # exceeded() while remaining_seconds() reads 0.
        for name in ("wall_seconds", "max_atoms", "max_applications", "max_rounds"):
            with pytest.raises(ValueError, match="non-negative"):
                Budget(**{name: float("nan")})

    def test_chase_interrupted_pickles_whole(self):
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(
                chain_database(3), CHAIN_TGDS, budget=Budget(max_applications=2)
            )
        back = pickle.loads(pickle.dumps(excinfo.value))
        assert isinstance(back, ChaseInterrupted)
        assert isinstance(back, ReproError)
        assert back.reason == "budget:applications"
        assert back.partial == excinfo.value.partial
        assert list(back.instance) == list(excinfo.value.instance)
        resumed = seminaive_chase(None, CHAIN_TGDS, resume=back.checkpoint)
        cold = seminaive_chase(chain_database(3), CHAIN_TGDS)
        assert_identical(cold, resumed)

    def test_oblivious_checkpoint_has_no_derivation(self):
        with pytest.raises(ChaseInterrupted) as excinfo:
            oblivious_chase(
                chain_database(3), CHAIN_TGDS, budget=Budget(max_rounds=1)
            )
        with pytest.raises(CheckpointError, match="no derivation"):
            excinfo.value.checkpoint.restore_derivation()

    def test_engine_mid_round_capture_restore_unit(self):
        engine = ChaseEngine(chain_database(4), CHAIN_TGDS)
        assert engine.run_round(max_applications=2).cut
        checkpoint = ChaseCheckpoint.capture(engine, "semi_naive")
        restored = ChaseEngine(
            None, CHAIN_TGDS, resume=pickle.loads(pickle.dumps(checkpoint))
        )
        assert restored.mid_round()
        left, right = engine.run_round(), restored.run_round()
        assert not left.cut and not right.cut
        assert list(engine.instance) == list(restored.instance)
        assert [t.key for t in left.discovered] == [t.key for t in right.discovered]
        assert [t.key for t in engine.pending] == [t.key for t in restored.pending]

    def test_restored_rows_bind_to_the_callers_rule_objects(self):
        budget = Budget(max_applications=2)
        with pytest.raises(ChaseInterrupted) as excinfo:
            seminaive_chase(chain_database(4), CHAIN_TGDS, budget=budget)
        checkpoint = pickle.loads(pickle.dumps(excinfo.value.checkpoint))
        assert checkpoint.pending and checkpoint.derivation_steps
        # Unpickled rows carry copies of the rules...
        assert not any(
            row.tgd is tgd for row in checkpoint.pending for tgd in CHAIN_TGDS
        )
        restored = ChaseEngine(None, CHAIN_TGDS, resume=checkpoint)
        # ...which restore swaps for the caller's own objects.
        rows = restored.pending + restored.derivation.steps
        assert len(restored.pending) == len(checkpoint.pending)
        assert all(any(row.tgd is tgd for tgd in CHAIN_TGDS) for row in rows)


class TestBudgetObject:
    def test_shared_envelope_counts_across_runs(self):
        budget = Budget(max_applications=10_000)
        seminaive_chase(chain_database(2), CHAIN_TGDS, budget=budget)
        first = budget.applications
        assert first > 0
        seminaive_chase(chain_database(2), CHAIN_TGDS, budget=budget)
        assert budget.applications == 2 * first

    def test_start_is_idempotent(self):
        budget = Budget(wall_seconds=60).start()
        deadline = budget._deadline
        assert budget.start()._deadline == deadline
        assert 0 < budget.remaining_seconds() <= 60

    def test_exceeded_reasons(self):
        assert Budget(max_applications=0).exceeded() == "budget:applications"
        assert Budget(max_atoms=5).exceeded(5) == "budget:atoms"
        assert Budget().exceeded(10**9) is None
        assert Budget(wall_seconds=0).start().exceeded() == "budget:wall"
        budget = Budget(max_rounds=1)
        assert not budget.rounds_exhausted()
        budget.charge_round()
        assert budget.rounds_exhausted()


class TestMultiheadBudget:
    def test_interrupt_carries_partial_instance(self):
        database = Database([Atom("R", [Constant("a"), Constant("b"), Constant("b")])])
        with pytest.raises(ChaseInterrupted) as excinfo:
            multihead_restricted_chase(
                database,
                example_b1_tgds(),
                strategy="semi_naive",
                max_steps=50,
                budget=Budget(max_applications=2),
            )
        error = excinfo.value
        assert error.reason == "budget:applications"
        assert error.checkpoint is None  # multi-head runs are not resumable
        assert error.partial["steps"] == 2
        assert len(error.instance) > 0


class TestDeciderTimeout:
    def test_scan_suspects_raises_with_progress(self):
        candidates = [Database([Atom("R", [Constant("a"), Constant("b")])])]
        with pytest.raises(ChaseInterrupted) as excinfo:
            scan_suspects(
                candidates,
                DIVERGING_TGDS,
                max_steps=30,
                replays=2,
                budget=Budget(wall_seconds=0),
            )
        assert excinfo.value.partial == {"completed": 0, "total": 1}

    def test_decide_guarded_times_out_honestly(self):
        verdict = decide_guarded(DIVERGING_TGDS, budget=Budget(wall_seconds=0))
        assert verdict.is_timeout
        assert verdict.status == Status.TIMEOUT
        assert verdict.method == "guarded-budget"
        assert "completed" in verdict.certificate

    def test_decide_guarded_unbudgeted_still_decides(self):
        verdict = decide_guarded(DIVERGING_TGDS)
        assert verdict.is_nonterminating

    def test_generous_budget_matches_unbudgeted_verdict(self):
        unbudgeted = decide_guarded(DIVERGING_TGDS)
        budgeted = decide_guarded(DIVERGING_TGDS, budget=Budget(wall_seconds=600))
        assert budgeted.status == unbudgeted.status
        assert budgeted.method == unbudgeted.method

    def test_decide_times_out_in_the_general_scan(self):
        # Non-guarded, non-sticky, no syntactic certificate: the decider
        # must reach the (budgeted) general suspect scan.
        diverging_join = parse_tgds(["R(x,y), R(y,z) -> R(z,w)"])
        verdict = decide(diverging_join, budget=Budget(wall_seconds=0))
        assert verdict.is_timeout
        assert verdict.method == "general-budget"
        verdict = TerminationPortfolio().analyze(
            diverging_join, budget=Budget(wall_seconds=0)
        )
        assert verdict.status == Status.TIMEOUT
