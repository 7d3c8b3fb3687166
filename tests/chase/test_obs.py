"""Telemetry is strictly passive — and accurate.

Two obligations, enforced over the generator corpus and the targeted
workloads:

* **passivity** — a chase with a ``ChaseStats`` sink attached produces a
  byte-identical run (instance, derivation, steps, verdict) to the bare
  one;
* **accuracy** — the filled stats satisfy their own invariants
  (``validate()`` is empty), agree with the result's headline numbers,
  and the spans/stats/log events land where the glossary says.

Plus the FakeClock payoff: wall-clock budgets drive synchronously, with
zero real sleeping.
"""

import json

import pytest

from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.parsing import parse_atoms, parse_database
from repro.core.terms import Constant
from repro.chase.checkpoint import Budget
from repro.chase.engine import ChaseEngine
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.errors import ChaseInterrupted
from repro.obs import clock, trace
from repro.obs.clock import FakeClock
from repro.obs.stats import ChaseStats
from repro.termination.portfolio import decide
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import parse_tgds

from repro.guarded.decision import candidate_databases

PROFILE = GeneratorProfile(
    num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
)

JOIN_TGDS = parse_tgds(
    [
        "E(x,y) -> F(x,y)",
        "F(x,y), F(y,z) -> T(x,z)",
        "T(x,y) -> S(x)",
    ]
)


def ring_database(n: int) -> Database:
    return Database(
        Atom("E", [Constant(f"c{i}"), Constant(f"c{(i + 1) % n}")]) for i in range(n)
    )


def assert_identical_runs(bare, observed):
    assert bare.terminated == observed.terminated
    assert bare.steps == observed.steps
    assert bare.instance == observed.instance
    assert bare.instance.sorted_atoms() == observed.instance.sorted_atoms()
    assert [t.key for t in bare.derivation.steps] == [
        t.key for t in observed.derivation.steps
    ]


@pytest.fixture
def fake_clock():
    fake = FakeClock()
    previous = clock.set_clock(fake)
    try:
        yield fake
    finally:
        clock.set_clock(previous)


class TestPassivity:
    """Stats attached changes not a single byte."""

    @pytest.mark.parametrize("family", ["linear", "guarded"])
    def test_generator_corpus(self, family):
        for tgds in corpus(family, 2, base_seed=5, profile=PROFILE):
            for database in candidate_databases(tgds)[:2]:
                for max_steps in (7, 30):
                    bare = restricted_chase(
                        database,
                        tgds,
                        strategy="semi_naive",
                        max_steps=max_steps,
                    )
                    stats = ChaseStats()
                    observed = restricted_chase(
                        database,
                        tgds,
                        strategy="semi_naive",
                        max_steps=max_steps,
                        stats=stats,
                    )
                    assert_identical_runs(bare, observed)
                    assert observed.stats is stats
                    assert stats.validate() == []

    def test_fifo_strategy(self):
        db = ring_database(6)
        bare = restricted_chase(db, JOIN_TGDS, strategy="fifo")
        observed = restricted_chase(
            db, JOIN_TGDS, strategy="fifo", stats=ChaseStats()
        )
        assert_identical_runs(bare, observed)
        assert observed.stats.kind == "restricted:fifo"

    def test_oblivious(self):
        db = ring_database(4)
        tgds = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)"])
        bare = oblivious_chase(db, tgds)
        observed = oblivious_chase(db, tgds, stats=ChaseStats())
        assert bare.terminated == observed.terminated
        assert bare.rounds == observed.rounds
        assert bare.applications == observed.applications
        assert bare.instance == observed.instance
        assert observed.stats.kind == "oblivious"
        assert observed.stats.validate() == []

    def test_tracing_is_passive_too(self, tmp_path):
        db = ring_database(6)
        bare = restricted_chase(db, JOIN_TGDS, strategy="semi_naive")
        trace.start_trace(str(tmp_path / "trace.json"))
        try:
            traced = restricted_chase(db, JOIN_TGDS, strategy="semi_naive")
        finally:
            trace.stop_trace()
        assert_identical_runs(bare, traced)


class TestAccuracy:
    """The numbers in a filled ChaseStats mean what they say."""

    def test_seminaive_counts_match_result(self):
        stats = ChaseStats()
        result = restricted_chase(
            ring_database(8), JOIN_TGDS, strategy="semi_naive", stats=stats
        )
        assert result.terminated
        assert stats.kind == "semi_naive"
        assert stats.rounds == result.rounds
        assert stats.triggers_fired == result.steps
        assert stats.triggers_fired <= stats.triggers_discovered
        assert sum(stats.per_tgd_fired.values()) == result.steps
        assert len(stats.delta_sizes) == stats.rounds
        assert sum(stats.delta_sizes) == result.steps
        assert len(stats.pending_depths) >= stats.rounds
        assert stats.cache_lookups >= stats.cache_hits
        assert stats.wall_seconds >= 0
        assert stats.validate() == []

    def test_vacuous_triggers_are_counted(self):
        # The G-facts pre-witness F(x,y) -> ∃w G(y,w): those triggers are
        # discovered, then skipped as inactive — the vacuous tally.
        tgds = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)"])
        atoms = [Atom("E", [Constant("a"), Constant("b")])]
        atoms += [Atom("G", [Constant("b"), Constant("b")])]
        stats = ChaseStats()
        result = restricted_chase(
            Database(atoms), tgds, strategy="semi_naive", stats=stats
        )
        assert result.terminated
        assert stats.triggers_vacuous >= 1
        assert stats.triggers_fired + stats.triggers_vacuous <= (
            stats.triggers_discovered
        )

    def test_budget_cut_recorded_exactly_once(self):
        stats = ChaseStats()
        with pytest.raises(ChaseInterrupted) as excinfo:
            restricted_chase(
                ring_database(8),
                JOIN_TGDS,
                strategy="semi_naive",
                budget=Budget(max_applications=3),
                stats=stats,
            )
        assert stats.budget_cuts == 1
        assert stats.cut_reasons == [excinfo.value.reason]
        assert stats.validate() == []

    def test_checkpoint_counters_roundtrip(self):
        captured = ChaseStats()
        with pytest.raises(ChaseInterrupted) as excinfo:
            restricted_chase(
                ring_database(8),
                JOIN_TGDS,
                strategy="semi_naive",
                budget=Budget(max_applications=3),
                stats=captured,
            )
        assert captured.checkpoints_captured == 1
        assert captured.checkpoints_restored == 0
        resumed = ChaseStats()
        result = restricted_chase(
            None,
            JOIN_TGDS,
            strategy="semi_naive",
            resume=excinfo.value.checkpoint,
            stats=resumed,
        )
        assert result.terminated
        assert resumed.checkpoints_restored == 1
        assert resumed.validate() == []
        # The restored pending worklist counts as discovered, so the
        # fired <= discovered invariant holds across the seam too.
        assert resumed.triggers_fired <= resumed.triggers_discovered

    def test_decider_suspect_entries(self):
        from repro.guarded.decision import decide_guarded

        # Guarded and diverging; analyze() would hand this to the sticky
        # tier first, so drive the guarded decider (and its suspect scan)
        # directly.
        diverging = parse_tgds(["R(x,y) -> R(y,z)"])
        stats = ChaseStats()
        verdict = decide_guarded(diverging, max_steps=20, stats=stats)
        assert verdict is not None
        assert stats.kind == "decider"
        assert stats.suspects, "suspect scans should have recorded entries"
        for entry in stats.suspects:
            assert entry["outcome"] in ("pump", "none", "timeout")
            assert entry["seconds"] >= 0
            assert isinstance(entry["candidate"], int)

    def test_decider_stats_are_passive(self):
        diverging = parse_tgds(["R(x,y) -> R(y,z)"])
        bare = decide(diverging)
        observed = decide(diverging, stats=ChaseStats())
        assert bare.status == observed.status
        assert bare.method == observed.method


#: The chain rules: a full copy, an existential, and a full projection.
CHAIN_TGDS = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)", "G(x,y) -> H(x)"])

#: The birth-order suite's rules (tests/chase/test_birth_order.py): full
#: joins whose heads the instance already holds, next to an existential.
BIRTH_TGDS = parse_tgds([
    "R(x,y), R(y,z) -> S(x,z)",
    "S(x,y) -> R(y,w)",
    "R(x,y), S(y,x) -> U(x)",
    "U(x), R(x,y) -> R(y,x)",
])


class TestWitnessTelemetry:
    """A full rule's membership probe is one cache lookup, and one hit when
    its result atom is present: the counts match the runs that stored full
    rules' frontier tuples."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("strategy", ["semi_naive", "fifo", "lifo"])
    def test_chain_rules(self, strategy, backend):
        database = Database(
            Atom("E", [Constant(f"c{i}"), Constant(f"c{i + 1}")]) for i in range(6)
        )
        stats = ChaseStats()
        result = restricted_chase(
            database, CHAIN_TGDS, strategy=strategy, stats=stats, backend=backend
        )
        assert len(result.instance) == 24
        getattr(result.instance, "close", lambda: None)()
        counts = (stats.cache_lookups, stats.cache_hits, stats.triggers_vacuous)
        assert counts == (18, 0, 0)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_birth_order_rules(self, backend):
        stats = ChaseStats()
        engine = ChaseEngine(
            parse_atoms("R(a,b), R(b,c), R(c,a), U(a)", data=True),
            BIRTH_TGDS,
            stats=stats,
            backend=backend,
        )
        engine.drive(max_rounds=4, max_atoms=60)
        engine.close()
        getattr(engine.instance, "close", lambda: None)()
        counts = (stats.cache_lookups, stats.cache_hits, stats.triggers_vacuous)
        assert counts == (26, 12, 12)

    def test_join_rules_leave_no_witness_entry(self):
        # perfbench's chase_join rules: full rules only, so the index holds
        # no set, while its probes still count.
        tgds = parse_tgds([
            "E(x,y) -> F(x,y)",
            "F(x,y), F(y,z), F(z,x) -> T(x,y,z)",
            "F(x,y), F(y,z), F(z,w), F(w,x) -> Q(x,y,z,w)",
        ])
        engine = ChaseEngine(ring_database(4), tgds)
        engine.drive()
        assert engine.witnesses._sets == {}
        assert engine.witnesses.lookups > 0
        assert engine.instance.with_predicate("Q")


class TestStatsCounters:
    """The run's ChaseStats sees the engine's round and trigger counts."""

    def test_chase_counters_land(self):
        stats = ChaseStats()
        result = restricted_chase(
            ring_database(8), JOIN_TGDS, strategy="semi_naive", stats=stats
        )
        assert result.terminated
        assert stats.rounds >= 1
        assert stats.triggers_fired == result.steps
        assert stats.delta_sizes


class TestTraceSpans:
    """CHASE_TRACE writes the documented span names."""

    def test_serial_run_emits_round_spans(self, tmp_path):
        path = tmp_path / "trace.json"
        trace.start_trace(str(path))
        try:
            restricted_chase(ring_database(8), JOIN_TGDS, strategy="semi_naive")
        finally:
            trace.stop_trace()
        document = json.loads(path.read_text())
        assert trace.validate_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert {"chase.run", "round.apply", "round.discover"} <= names

    def test_budget_cut_emits_instant(self, tmp_path):
        path = tmp_path / "trace.json"
        trace.start_trace(str(path))
        try:
            with pytest.raises(ChaseInterrupted):
                restricted_chase(
                    ring_database(8),
                    JOIN_TGDS,
                    strategy="semi_naive",
                    budget=Budget(max_applications=3),
                )
        finally:
            trace.stop_trace()
        events = json.loads(path.read_text())["traceEvents"]
        cuts = [e for e in events if e["name"] == "round.cut"]
        assert cuts and all(e["ph"] == "i" for e in cuts)


class TestFakeClockIntegration:
    """Wall-clock behavior drives synchronously under the obs clock."""

    def test_wall_budget_expires_without_sleeping(self, fake_clock):
        budget = Budget(wall_seconds=5.0).start()
        assert not budget.out_of_time()
        assert budget.remaining_seconds() == 5.0
        fake_clock.advance(5.0)
        assert budget.out_of_time()
        assert budget.exceeded() == "budget:wall"
        assert budget.remaining_seconds() == 0.0

    def test_wall_budget_cuts_a_chase_instantly(self, fake_clock):
        db = parse_database("R(a,b)")
        tgds = parse_tgds(["R(x,y) -> R(y,z)"])
        budget = Budget(wall_seconds=10.0).start()
        fake_clock.advance(11.0)
        stats = ChaseStats()
        with pytest.raises(ChaseInterrupted) as excinfo:
            restricted_chase(
                db, tgds, strategy="semi_naive", budget=budget, stats=stats
            )
        assert excinfo.value.reason == "budget:wall"
        assert stats.cut_reasons == ["budget:wall"]
