"""Serial-vs-parallel equivalence of pool-backed trigger discovery.

``ParallelMatcher`` must be a drop-in for the serial semi-naive discovery
pass: same trigger list (order included), and therefore byte-identical
chases — instance, verdict, derivation — at every worker count, on every
backend, including after a mid-run fallback from a broken process pool.
These tests enforce that obligation on the generator corpus (the CI
``parallel-equivalence`` job runs them pinned to one pool width via
``CHASE_EQUIV_WORKERS``), cover the pickle support the process pool rides
on, and spot-check the second tier: the deciders' parallel suspect scans.

Every parallel test pins ``parallel.MIN_PARALLEL_WORK`` to 0 so the tiny
corpora here actually cross the pool instead of short-circuiting to the
serial path.  The pool's path is selected from the worker count and the
host, so a test that wants the thread path makes ``fork`` unavailable.
"""

import logging
import os
import pickle
import random
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.atoms import Atom
from repro.core.homomorphism import homomorphisms
from repro.core.instance import Database, Delta, Instance
from repro.core.parsing import parse_database
from repro.core.substitution import Substitution
from repro.core.terms import Constant, Variable
from repro.chase.engine import ChaseEngine
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.chase.trigger import Trigger, materialize, seminaive_triggers
from repro.chase import chaos, parallel, trigger as trigger_module
from repro.chase.parallel import ParallelMatcher, parallel_map
from repro.guarded.decision import candidate_databases, decide_guarded
from repro.obs.stats import ChaseStats
from repro.termination.analyzer import TerminationAnalyzer
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import parse_tgds

#: Pool widths under test; the CI matrix pins one per job.
WORKERS = [
    int(w) for w in os.environ.get("CHASE_EQUIV_WORKERS", "2,4").split(",")
]

#: Same dense-existential profile as the semi-naive equivalence suite.
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


def assert_identical_runs(serial, parallel_run):
    assert serial.terminated == parallel_run.terminated
    assert serial.steps == parallel_run.steps
    assert serial.instance == parallel_run.instance
    assert serial.instance.sorted_atoms() == parallel_run.instance.sorted_atoms()
    assert [t.key for t in serial.derivation.steps] == [
        t.key for t in parallel_run.derivation.steps
    ]


def pin_pool(monkeypatch, backend):
    """Select the ``backend`` pool path (``"process"`` or ``"thread"``)
    for matchers built from here on, with every round crossing the pool.

    ``"thread"`` makes ``fork`` unavailable; ``"process"`` leaves the host
    as it is (a host without ``fork`` degrades it to threads by itself).
    """
    monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
    if backend == "thread":
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)


def materialize_round(database, tgds):
    """Apply one round by hand; returns (engine, delta) for discovery tests."""
    engine = ChaseEngine(database, tgds)
    engine.instance.track_delta()
    for trigger in engine.take_pending():
        if engine.is_active(trigger):
            atom = trigger.result()
            if engine.instance.add(atom):
                engine.witnesses.note(atom)
    return engine, engine.instance.take_delta()


class TestPickling:
    """The wire formats the process pool depends on."""

    def test_atom_round_trip(self):
        atom = Atom("R", [Constant("a"), Constant("b")])
        assert pickle.loads(pickle.dumps(atom)) == atom

    def test_substitution_round_trip(self):
        sub = Substitution({Variable("x"): Constant("a")})
        assert pickle.loads(pickle.dumps(sub)) == sub

    def test_tgd_round_trip(self):
        tgd = JOIN_TGDS[1]
        back = pickle.loads(pickle.dumps(tgd))
        assert back == tgd and back.name == tgd.name
        assert back.frontier_order == tgd.frontier_order

    def test_trigger_round_trip_preserves_key_and_result(self):
        tgd = JOIN_TGDS[0]
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
        db = ring_database(3)
        back = pickle.loads(pickle.dumps(db))
        assert isinstance(back, Database)
        assert back.sorted_atoms() == db.sorted_atoms()

    def test_delta_snapshot_round_trip(self):
        # Deltas cross process boundaries only inside checkpoints, as an
        # explicit snapshot (see chase/checkpoint.py).
        instance = Instance()
        delta = instance.track_delta()
        atoms = [Atom("R", [Constant(f"c{i}")]) for i in range(3)]
        for atom in atoms:
            instance.add(atom)
        instance.take_delta()
        items, counter = pickle.loads(pickle.dumps((delta.snapshot(), len(delta))))
        back = Delta._restore(items, counter)
        assert back.atoms() == atoms
        assert [back.positions()[a] for a in atoms] == [0, 1, 2]
        assert list(back.with_predicate("R")) == atoms

    def test_delta_snapshot_export(self):
        delta = Delta()
        atom = Atom("R", [Constant("a")])
        delta.record(atom)
        assert delta.snapshot() == [(atom, 0)]


class TestMatcherDiscovery:
    """discover() == seminaive_triggers(), order included, on every backend."""

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_identical_to_serial_pass(self, backend, monkeypatch):
        pin_pool(monkeypatch, backend)
        engine, delta = materialize_round(ring_database(8), JOIN_TGDS)
        expected = [
            t.key for t in seminaive_triggers(JOIN_TGDS, engine.instance, delta)
        ]
        assert expected  # the round must actually discover something
        with ParallelMatcher(JOIN_TGDS, workers=3) as matcher:
            got = [t.key for t in matcher.discover(engine.instance, delta)]
            assert got == expected
            assert matcher.rounds_parallel == 1

    def test_process_round_builds_probed_positions_before_forking(self, monkeypatch):
        # A position bucket built in a forked worker dies with it, so the
        # parent builds every position the round's plans probe.  A memory
        # instance whatever CHASE_BACKEND says: sqlite indexes every position.
        instance = Instance()
        delta = instance.track_delta()
        for atom in ring_database(8):
            instance.add(Atom("F", atom.terms))
        instance.take_delta()
        plans = JOIN_TGDS[1].join_plans()
        assert [plan.probes for plan in plans] == [(("F", 1),), (("F", 2),)]
        assert instance._indexed == {}
        pin_pool(monkeypatch, "process")
        with ParallelMatcher(JOIN_TGDS, workers=3) as matcher:
            assert matcher.discover(instance, delta)
            assert matcher.rounds_parallel == 1
        assert sorted(instance._indexed["F"]) == [1, 2]

    def test_workers_one_short_circuits_to_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        engine, delta = materialize_round(ring_database(4), JOIN_TGDS)
        matcher = ParallelMatcher(JOIN_TGDS, workers=1)
        assert matcher.backend == "serial"
        got = [t.key for t in matcher.discover(engine.instance, delta)]
        assert got == [
            t.key for t in seminaive_triggers(JOIN_TGDS, engine.instance, delta)
        ]
        assert matcher.rounds_parallel == 0 and matcher.rounds_serial == 1

    def test_small_rounds_stay_serial_under_default_threshold(self, monkeypatch):
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
        engine, delta = materialize_round(ring_database(4), JOIN_TGDS)
        with ParallelMatcher(JOIN_TGDS, workers=2) as matcher:
            matcher.discover(engine.instance, delta)
            assert matcher.rounds_parallel == 0 and matcher.rounds_serial == 1

    def test_empty_delta(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        matcher = ParallelMatcher(JOIN_TGDS, workers=2)
        assert matcher.discover(Instance(), Delta()) == []

    def test_plan_covers_the_grid_exactly_once(self):
        engine, delta = materialize_round(ring_database(8), JOIN_TGDS)
        matcher = ParallelMatcher(JOIN_TGDS, workers=3)
        tasks, total = matcher._plan(delta)
        seen = {}
        for task in tasks:
            for tgd_index, pivot_index, lo, hi in task:
                assert lo < hi
                spans = seen.setdefault((tgd_index, pivot_index), [])
                spans.append((lo, hi))
        for (tgd_index, pivot_index), spans in seen.items():
            spans.sort()
            predicate = JOIN_TGDS[tgd_index].body[pivot_index].predicate
            size = len(delta.with_predicate(predicate))
            assert spans[0][0] == 0 and spans[-1][1] == size
            for (_, hi), (lo, _) in zip(spans, spans[1:]):
                assert hi == lo  # contiguous, non-overlapping
        assert total == sum(hi - lo for spans in seen.values() for lo, hi in spans)

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_duplicate_equal_tgds_resolve_to_the_first(self, backend, monkeypatch):
        # TGD equality ignores the name, but null naming (digest_prefix)
        # includes it: two same-body/head rules under different names must
        # rebuild through the FIRST rule's index, or the merged triggers
        # invent different nulls than the serial pass (regression test for
        # an equality-keyed last-wins index map).
        from repro.tgds.tgd import TGD

        tgds = [
            TGD.parse("E(x,y) -> F(x,z)", name="alpha"),
            TGD.parse("E(x,y) -> F(x,z)", name="beta"),
        ]
        # One round's delta = the database itself, tracked from empty.
        probe = Instance()
        delta = probe.track_delta()
        for atom in ring_database(6):
            probe.add(atom)
        probe.take_delta()
        serial = seminaive_triggers(tgds, probe, delta)
        assert serial  # E atoms pivot both rules
        pin_pool(monkeypatch, backend)
        with ParallelMatcher(tgds, workers=2) as matcher:
            fanned = matcher.discover(probe, delta)
        assert [t.key for t in fanned] == [t.key for t in serial]
        # The byte-level obligation: identical result atoms (null names).
        assert [t.result() for t in fanned] == [t.result() for t in serial]

    def test_backend_is_selected_from_workers_and_host(self, monkeypatch):
        assert ParallelMatcher(JOIN_TGDS, workers=1).backend == "serial"
        forking = "process" if parallel._fork_available() else "thread"
        assert ParallelMatcher(JOIN_TGDS, workers=2).backend == forking
        pin_pool(monkeypatch, "thread")
        assert ParallelMatcher(JOIN_TGDS, workers=2).backend == "thread"
        assert ParallelMatcher(JOIN_TGDS, workers=1).backend == "serial"

    def test_engine_pool_runs_the_callers_rules(self, monkeypatch):
        # TGD equality ignores names but null digests do not, so the pool
        # must be built from the caller's own rules: renamed-but-equal
        # rules chased on the pool invent the same nulls as serially, and
        # different nulls from the original names.
        from repro.tgds.tgd import TGD

        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        copy = TGD.parse("E(x,y) -> F(x,y)", name="copy")
        tgds = [copy, TGD.parse("F(x,y) -> G(y,z)", name="s1")]
        renamed = [copy, TGD.parse("F(x,y) -> G(y,z)", name="other")]
        assert renamed == tgds
        db = ring_database(6)
        serial = restricted_chase(db, renamed, strategy="semi_naive")
        stats = ChaseStats()
        fanned = restricted_chase(
            db, renamed, strategy="semi_naive", workers=2, stats=stats
        )
        # The G triggers come from a round pass that crossed the pool.
        assert stats.rounds_parallel >= 1
        assert_identical_runs(serial, fanned)
        original = restricted_chase(db, tgds, strategy="semi_naive", workers=2)
        assert fanned.instance.sorted_atoms() != original.instance.sorted_atoms()
        engine = ChaseEngine(db, renamed, workers=2)
        with engine.running():
            assert all(a is b for a, b in zip(engine.matcher.tgds, renamed))


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
    delta = instance.track_delta()
    for edge in edges[old:]:
        instance.add(edge)
    instance.take_delta()
    return instance, delta


class TestExactlyOnceDiscovery:
    """Each trigger surfaces at one pivot hit, already at its final birth."""

    @pytest.mark.parametrize("seed", range(6))
    def test_one_trigger_per_unique_trigger_at_max_birth(self, seed, monkeypatch):
        instance, delta = cycle_round(seed)
        built = []

        class CountingTrigger(Trigger):
            @classmethod
            def from_row(cls, tgd, values):
                trigger = super().from_row(tgd, values)
                built.append(trigger)
                return trigger

        monkeypatch.setattr(trigger_module, "Trigger", CountingTrigger)
        rows = []
        for tgd_index, tgd in enumerate(CYCLE_TGDS):
            for plan in tgd.join_plans():
                bucket = delta.with_predicate(plan.predicate)
                plan.match(bucket, instance, delta.positions(), tgd_index, rows)
        assert not built  # the join emits rows; Triggers come from materialize
        hits = materialize(CYCLE_TGDS, rows)
        keys = [trigger.key for _, trigger in hits]
        assert len(built) == len(hits) == len(rows) == len(set(keys))
        expected = {
            Trigger(tgd, h).key
            for tgd in CYCLE_TGDS
            for h in homomorphisms(tgd.body, instance)
            if any(atom.apply(h) in delta for atom in tgd.body)
        }
        assert expected and set(keys) == expected
        for birth, trigger in hits:
            image = [atom for atom in trigger.body_image() if atom in delta]
            assert birth == max(delta.positions()[atom] for atom in image)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_parallel_equals_serial_elementwise(self, workers, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        for seed in range(4):
            instance, delta = cycle_round(seed)
            serial = seminaive_triggers(CYCLE_TGDS, instance, delta)
            with ParallelMatcher(CYCLE_TGDS, workers=workers) as matcher:
                fanned = matcher.discover(instance, delta)
                assert matcher.rounds_parallel == 1
            assert [t.key for t in fanned] == [t.key for t in serial]
            assert [t.result() for t in fanned] == [t.result() for t in serial]


class TestCorpusEquivalence:
    """Property tests: serial semi-naive ≡ parallel, for workers ∈ {2, 4}."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("family", ["linear", "guarded"])
    def test_generator_corpus(self, workers, family, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        for tgds in corpus(family, 2, base_seed=5, profile=PROFILE):
            for database in candidate_databases(tgds)[:2]:
                for max_steps in (7, 30):
                    serial = restricted_chase(
                        database, tgds, strategy="semi_naive", max_steps=max_steps
                    )
                    fanned = restricted_chase(
                        database,
                        tgds,
                        strategy="semi_naive",
                        max_steps=max_steps,
                        workers=workers,
                    )
                    assert_identical_runs(serial, fanned)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_join_workload(self, workers, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        db = ring_database(12)
        serial = restricted_chase(db, JOIN_TGDS, strategy="semi_naive")
        fanned = restricted_chase(
            db, JOIN_TGDS, strategy="semi_naive", workers=workers
        )
        assert_identical_runs(serial, fanned)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_cutoff_prefixes_are_identical(self, workers, monkeypatch):
        # A diverging set cut off mid-run must still match serial exactly.
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        db = parse_database("R(a,b)")
        tgds = parse_tgds(["R(x,y) -> R(y,z)"])
        for max_steps in (1, 3, 6):
            serial = restricted_chase(
                db, tgds, strategy="semi_naive", max_steps=max_steps
            )
            fanned = restricted_chase(
                db, tgds, strategy="semi_naive", max_steps=max_steps, workers=workers
            )
            assert not fanned.terminated
            assert_identical_runs(serial, fanned)

    def test_oblivious_fixpoint_identical(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        db = parse_database("P(a,b)")
        tgds = parse_tgds(
            ["P(x,y) -> R(x,y)", "R(x,y) -> S(x)", "S(x) -> R(x,y)"]
        )
        serial = oblivious_chase(db, tgds, max_atoms=200, max_rounds=8)
        fanned = oblivious_chase(db, tgds, max_atoms=200, max_rounds=8, workers=2)
        assert serial.terminated == fanned.terminated
        assert serial.rounds == fanned.rounds
        assert serial.applications == fanned.applications
        assert serial.instance == fanned.instance


class TestFallback:
    """Pool unavailable → threaded fallback: no hang, identical results.

    Fallbacks announce themselves as structured log events on the
    ``repro.chase.parallel`` logger (backend, worker count, and the
    triggering exception ride along as record attributes).
    """

    def test_broken_process_pool_falls_back_to_threads(self, monkeypatch, caplog):
        engine, delta = materialize_round(ring_database(8), JOIN_TGDS)
        expected = [
            t.key for t in seminaive_triggers(JOIN_TGDS, engine.instance, delta)
        ]
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        pin_pool(monkeypatch, "process")
        with ParallelMatcher(JOIN_TGDS, workers=2) as matcher:

            def refuse(*args, **kwargs):
                raise OSError("fork restricted")

            monkeypatch.setattr(matcher, "_run_process", refuse)
            with caplog.at_level(logging.WARNING, logger="repro.chase.parallel"):
                got = [t.key for t in matcher.discover(engine.instance, delta)]
            assert got == expected
            assert matcher.backend == "thread"
            events = [
                record
                for record in caplog.records
                if record.name == "repro.chase.parallel"
            ]
            assert len(events) == 1
            assert "falling back to threaded discovery" in events[0].getMessage()
            assert events[0].backend == "process"
            assert events[0].pool_workers == 2
            assert "fork restricted" in events[0].pool_error
            # Subsequent rounds go straight to threads — no more events.
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.chase.parallel"):
                again = [t.key for t in matcher.discover(engine.instance, delta)]
            assert again == expected
            assert not [
                record
                for record in caplog.records
                if record.name == "repro.chase.parallel"
            ]
            assert matcher.rounds_parallel == 2

    def test_fork_unavailable_picks_threads_at_construction(self, monkeypatch):
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
        matcher = ParallelMatcher(JOIN_TGDS, workers=2)
        assert matcher.backend == "thread"

    def test_chase_survives_broken_pool(self, monkeypatch, caplog):
        # End to end: a chase whose every pool launch fails still finishes
        # with byte-identical results via threads.
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)

        def refuse(self, instance, delta, tasks):
            raise OSError("fork restricted")

        monkeypatch.setattr(ParallelMatcher, "_run_process", refuse)
        db = ring_database(8)
        serial = restricted_chase(db, JOIN_TGDS, strategy="semi_naive")
        with caplog.at_level(logging.WARNING, logger="repro.chase.parallel"):
            fanned = restricted_chase(
                db, JOIN_TGDS, strategy="semi_naive", workers=2
            )
        assert any(
            "falling back to threaded" in record.getMessage()
            for record in caplog.records
            if record.name == "repro.chase.parallel"
        )
        assert_identical_runs(serial, fanned)

    @pytest.mark.skipif(not parallel._fork_available(), reason="needs fork")
    def test_fault_counters_reach_chase_stats(self, monkeypatch):
        # Climb the whole fault ladder in the first pooled round: one task
        # failure (a retry on the same pool), one pool collapse (a fresh
        # pool), a second collapse (the thread fallback).  The entry point's
        # ChaseStats carries each rung, and the recomputed round counts once.
        # The script replaces random chaos faults, so the pool is a plain one.
        monkeypatch.delenv(chaos.CHAOS_SEED_ENV, raising=False)
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        monkeypatch.setattr(parallel, "RETRY_BACKOFF", 0)
        script = [
            RuntimeError("task failed"),
            BrokenProcessPool("pool collapsed"),
            BrokenProcessPool("pool collapsed again"),
        ]
        fetch = ParallelMatcher._fetch

        def faulty_fetch(self, future, task_index):
            if script:
                raise script.pop(0)
            return fetch(self, future, task_index)

        db = ring_database(8)
        clean = ChaseStats()
        restricted_chase(db, JOIN_TGDS, strategy="semi_naive", workers=2, stats=clean)
        monkeypatch.setattr(ParallelMatcher, "_fetch", faulty_fetch)
        stats = ChaseStats()
        faulted = restricted_chase(
            db, JOIN_TGDS, strategy="semi_naive", workers=2, stats=stats
        )
        assert script == []
        assert (stats.retries, stats.fresh_pools, stats.pool_fallbacks) == (1, 1, 1)
        assert stats.rounds_parallel == clean.rounds_parallel == 2
        assert stats.rounds_serial == clean.rounds_serial
        assert stats.validate() == []
        assert_identical_runs(restricted_chase(db, JOIN_TGDS, strategy="semi_naive"), faulted)


class TestParallelMap:
    def test_results_in_payload_order(self, monkeypatch):
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
        out = parallel_map(_square, [3, 1, 2], workers=2)
        assert out == [9, 1, 4]

    def test_serial_fallback_for_one_worker(self):
        assert parallel_map(_square, [4, 5], workers=1) == [16, 25]

    def test_process_backend(self, monkeypatch):
        pin_pool(monkeypatch, "process")
        assert parallel_map(_square, [2, 3, 4], workers=2) == [
            4,
            9,
            16,
        ]


def _square(x):
    return x * x


class TestDeciderParallel:
    """Second tier: suspect scans fan out; verdicts stay serial-identical."""

    DIVERGING = ["R(x,y) -> R(y,z)"]
    MIXED = ["R(x,y), S(y) -> R(y,z)", "R(x,y) -> S(y)"]

    def test_guarded_decider_verdict_identical(self):
        tgds = parse_tgds(self.DIVERGING)
        serial = decide_guarded(tgds, max_steps=30)
        fanned = decide_guarded(tgds, max_steps=30, workers=2)
        assert (serial.status, serial.method, serial.detail) == (
            fanned.status,
            fanned.method,
            fanned.detail,
        )

    def test_guarded_corpus_verdicts_identical(self):
        for tgds in corpus("guarded", 2, base_seed=9, profile=PROFILE):
            serial = decide_guarded(tgds, max_steps=25)
            fanned = decide_guarded(tgds, max_steps=25, workers=2)
            assert (serial.status, serial.method, serial.detail) == (
                fanned.status,
                fanned.method,
                fanned.detail,
            )

    def test_analyzer_verdict_identical(self):
        tgds = parse_tgds(self.MIXED)
        serial = TerminationAnalyzer(guarded_max_steps=30).analyze(tgds)
        fanned = TerminationAnalyzer(guarded_max_steps=30, workers=2).analyze(tgds)
        assert (serial.status, serial.method, serial.detail) == (
            fanned.status,
            fanned.method,
            fanned.detail,
        )

    def test_pump_witness_survives_the_pool(self):
        # The certificate (a PumpWitness with derivation + instance) crosses
        # the process boundary intact and still validates.
        tgds = parse_tgds(self.DIVERGING)
        fanned = decide_guarded(tgds, max_steps=30, workers=2)
        if fanned.certificate and "witness" in fanned.certificate:
            witness = fanned.certificate["witness"]
            witness.derivation.validate(tgds)
