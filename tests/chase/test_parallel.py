"""Serial-vs-parallel equivalence of pool-backed trigger discovery.

``ParallelMatcher`` must be a drop-in for the serial semi-naive discovery
pass: same trigger list (order included), and therefore byte-identical
chases — instance, verdict, derivation — at every worker count, on every
storage backend, including after a pooled round fails and the run goes
serial.  These tests enforce that obligation on the generator corpus (the
CI ``parallel-equivalence`` job runs them pinned to one pool width via
``CHASE_EQUIV_WORKERS``) and cover the pickle support the engine's
checkpoints and rows ride on.

Every parallel test pins ``parallel.MIN_PARALLEL_WORK`` to 0 so the tiny
corpora here actually cross the pool instead of short-circuiting to the
serial path.  Tests that count pool rounds need ``fork``; without it the
matcher is serial by construction.
"""

import logging
import os
import pickle
import random
import signal
import threading
import time

import pytest

from repro.core.atoms import Atom
from repro.core.homomorphism import homomorphisms
from repro.core.instance import Database, Delta, Instance
from repro.core.parsing import parse_database
from repro.core.substitution import Substitution
from repro.core.terms import Constant, Variable
from repro.chase.engine import ChaseEngine
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase, seminaive_chase
from repro.chase.trigger import Trigger, seminaive_triggers, triggers_of
from repro.chase import parallel
from repro.chase.parallel import ParallelMatcher
from repro.guarded.decision import candidate_databases
from repro.obs.stats import ChaseStats
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import parse_tgds
from tests.chase.chaos import CHAOS_SEED_ENV

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


needs_fork = pytest.mark.skipif(
    not parallel._fork_available(), reason="the pool needs fork"
)


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

    @needs_fork
    def test_identical_to_serial_pass(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        engine, delta = materialize_round(ring_database(8), JOIN_TGDS)
        expected = [
            t.key for t in seminaive_triggers(JOIN_TGDS, engine.instance, delta)
        ]
        assert expected  # the round must actually discover something
        matcher = ParallelMatcher(JOIN_TGDS, workers=3)
        got = [t.key for t in matcher.discover(engine.instance, delta)]
        assert got == expected
        assert matcher.rounds_parallel == 1

    @needs_fork
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
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        matcher = ParallelMatcher(JOIN_TGDS, workers=3)
        assert matcher.discover(instance, delta)
        assert matcher.rounds_parallel == 1
        assert sorted([i for i, _ in instance._indexed["F"]]) == [1, 2]

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

    def test_small_rounds_stay_serial_under_default_threshold(self):
        engine, delta = materialize_round(ring_database(4), JOIN_TGDS)
        matcher = ParallelMatcher(JOIN_TGDS, workers=2)
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

    def test_duplicate_equal_tgds_resolve_to_the_first(self, monkeypatch):
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
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        fanned = ParallelMatcher(tgds, workers=2).discover(probe, delta)
        assert [t.key for t in fanned] == [t.key for t in serial]
        # The byte-level obligation: identical result atoms (null names).
        assert [t.result() for t in fanned] == [t.result() for t in serial]

    def test_backend_is_selected_from_workers_and_host(self, monkeypatch):
        assert ParallelMatcher(JOIN_TGDS, workers=1).backend == "serial"
        forking = "process" if parallel._fork_available() else "serial"
        assert ParallelMatcher(JOIN_TGDS, workers=2).backend == forking
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
        assert ParallelMatcher(JOIN_TGDS, workers=2).backend == "serial"

    @needs_fork
    def test_engine_pool_runs_the_callers_rules(self, monkeypatch):
        # TGD equality ignores names but null digests do not, so the pool
        # must be built from the caller's own rules: renamed-but-equal
        # rules chased on the pool invent the same nulls as serially, and
        # different nulls from the original names.  Chaos would send the
        # rounds serial before the pool ran one.
        from repro.tgds.tgd import TGD

        monkeypatch.delenv(CHAOS_SEED_ENV, raising=False)
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
    def test_one_trigger_per_unique_trigger_at_max_birth(self, seed):
        instance, delta = cycle_round(seed)
        rows = []
        for tgd_index, tgd in enumerate(CYCLE_TGDS):
            for plan in tgd.join_plans():
                bucket = delta.with_predicate(plan.predicate)
                plan.match(bucket, instance, delta.positions(), tgd_index, rows)
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
            assert birth == max(delta.positions()[atom] for atom in image)

    @needs_fork
    @pytest.mark.parametrize("workers", WORKERS)
    def test_parallel_equals_serial_elementwise(self, workers, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        for seed in range(4):
            instance, delta = cycle_round(seed)
            serial = seminaive_triggers(CYCLE_TGDS, instance, delta)
            matcher = ParallelMatcher(CYCLE_TGDS, workers=workers)
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
        pids = record_children(monkeypatch)
        fanned = restricted_chase(
            db, JOIN_TGDS, strategy="semi_naive", workers=workers
        )
        assert_identical_runs(serial, fanned)
        assert_all_reaped(pids)

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




#: The join rules plus an existential head, so fallback runs also pin the
#: invented null names.
NULL_TGDS = JOIN_TGDS + parse_tgds(["T(x,y) -> U(y,w)"])

#: The failures a pooled round can meet, each where it really surfaces:
#: a child dying mid-round, a child raising, a payload the master's
#: validation rejects.
FAULTS = ["broken-pool", "worker-exception", "corrupt-payload"]

#: Which pooled round fails and how; module state so forked children see it.
_FAULT = {"shape": None, "target": 0, "round": 0, "master": None}
_MATCH_CHUNKS = parallel._match_chunks
_RUN_PROCESS = ParallelMatcher._run_process
_FETCH = ParallelMatcher._fetch
_FORK_TASK = parallel._fork_task


def _faulty_task(tgds, instance, delta, chunks):
    """A task's body, failing in the target round's children for the
    child-side shapes: the child kills itself or raises."""
    if _FAULT["round"] == _FAULT["target"] and os.getpid() != _FAULT["master"]:
        if _FAULT["shape"] == "broken-pool":
            os.kill(os.getpid(), signal.SIGKILL)
        if _FAULT["shape"] == "worker-exception":
            raise RuntimeError("worker failed")
    return _MATCH_CHUNKS(tgds, instance, delta, chunks)


def inject_fault(monkeypatch, shape, target):
    """Make the ``target``-th pooled round (1-based, counted across every
    matcher) fail with ``shape``; every other pooled round runs clean."""
    _FAULT.update(shape=shape, target=target, round=0, master=os.getpid())

    def counting_run(self, instance, delta, tasks):
        _FAULT["round"] += 1
        return _RUN_PROCESS(self, instance, delta, tasks)

    def faulty_fetch(self, child, task_index):
        payload = _FETCH(self, child, task_index)
        # Task 0 is the master's own; task 1 is the first child read.
        if shape == "corrupt-payload" and _FAULT["round"] == target and task_index == 1:
            rows, busy = payload
            return rows + [("corrupt",)], busy
        return payload

    monkeypatch.delenv(CHAOS_SEED_ENV, raising=False)
    monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
    monkeypatch.setattr(parallel, "_match_chunks", _faulty_task)
    monkeypatch.setattr(ParallelMatcher, "_run_process", counting_run)
    monkeypatch.setattr(ParallelMatcher, "_fetch", faulty_fetch)


def record_children(monkeypatch):
    """Record the pid of every child a pooled round forks."""
    pids = []

    def recording_fork(*args):
        child = _FORK_TASK(*args)
        pids.append(child[0])
        return child

    monkeypatch.setattr(parallel, "_fork_task", recording_fork)
    return pids


def assert_all_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def fallback_events(caplog):
    return [
        record
        for record in caplog.records
        if getattr(record, "event", "") == "pool.fallback"
    ]


@needs_fork
class TestFallback:
    """A failed pooled round is recomputed serially, and the run stays serial.

    The fallback announces itself as one structured ``pool.fallback`` event
    on the ``repro.chase.parallel`` logger (worker count and the triggering
    exception ride along as event fields).
    """

    @pytest.mark.parametrize("shape", FAULTS)
    def test_failed_round_goes_serial(self, shape, monkeypatch, caplog):
        engine, delta = materialize_round(ring_database(8), JOIN_TGDS)
        expected = [
            t.key for t in seminaive_triggers(JOIN_TGDS, engine.instance, delta)
        ]
        inject_fault(monkeypatch, shape, target=2)
        matcher = ParallelMatcher(JOIN_TGDS, workers=2)
        with caplog.at_level(logging.WARNING, logger="repro.chase.parallel"):
            for _ in range(3):
                got = [t.key for t in matcher.discover(engine.instance, delta)]
                assert got == expected
        # Round 1 pooled, round 2 failed and recomputed, round 3 serial.
        assert _FAULT["round"] == 2
        assert (matcher.rounds_parallel, matcher.rounds_serial) == (1, 2)
        assert matcher.backend_fallbacks == 1
        assert matcher.backend == "serial"
        events = fallback_events(caplog)
        assert len(events) == 1
        assert events[0].event_fields["pool_workers"] == 2
        assert events[0].event_fields["pool_error"]

    def test_chase_survives_broken_pool(self, monkeypatch, caplog):
        # End to end, per fault shape, pool width and storage backend: the
        # first pooled round fails, and the chase finishes serially with
        # the serial run's instance, derivation and null names.
        db = ring_database(8)
        serial = restricted_chase(db, NULL_TGDS, strategy="semi_naive")
        assert any(atom.predicate == "U" for atom in serial.instance)
        for shape in FAULTS:
            for workers in (2, 4):
                for backend in ("memory", "sqlite"):
                    case = (shape, workers, backend)
                    inject_fault(monkeypatch, shape, target=1)
                    pids = record_children(monkeypatch)
                    stats = ChaseStats()
                    caplog.clear()
                    with caplog.at_level(logging.WARNING, logger="repro.chase.parallel"):
                        fanned = restricted_chase(
                            db,
                            NULL_TGDS,
                            strategy="semi_naive",
                            workers=workers,
                            stats=stats,
                            backend=backend,
                        )
                    assert len(fallback_events(caplog)) == 1, case
                    assert (stats.pool_fallbacks, stats.rounds_parallel) == (1, 0), case
                    assert_identical_runs(serial, fanned)
                    assert list(serial.instance) == list(fanned.instance), case
                    assert [t.result() for t in serial.derivation.steps] == [
                        t.result() for t in fanned.derivation.steps
                    ], case
                    assert_all_reaped(pids)

    def test_fork_unavailable_picks_serial_at_construction(self, monkeypatch):
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
        matcher = ParallelMatcher(JOIN_TGDS, workers=2)
        assert matcher.backend == "serial"

    def test_fault_counters_reach_chase_stats(self, monkeypatch):
        # The round that fails counts once, as serial, and every round
        # after it is serial too.
        db = ring_database(8)
        clean = ChaseStats()
        monkeypatch.delenv(CHAOS_SEED_ENV, raising=False)
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        restricted_chase(db, JOIN_TGDS, strategy="semi_naive", workers=2, stats=clean)
        assert clean.rounds_parallel == 2
        inject_fault(monkeypatch, "broken-pool", target=2)
        stats = ChaseStats()
        faulted = restricted_chase(
            db, JOIN_TGDS, strategy="semi_naive", workers=2, stats=stats
        )
        assert stats.pool_fallbacks == 1
        assert stats.rounds_parallel == 1
        assert stats.rounds_serial == clean.rounds_serial + 1
        assert stats.validate() == []
        assert_identical_runs(restricted_chase(db, JOIN_TGDS, strategy="semi_naive"), faulted)


def assert_same_nulls(serial, fanned):
    assert list(serial.instance) == list(fanned.instance)
    assert [t.result() for t in serial.derivation.steps] == [
        t.result() for t in fanned.derivation.steps
    ]


@needs_fork
class TestChildLifetime:
    """No child outlives its round, even one the master never read (clean
    rounds and each ``FAULTS`` shape are checked in the tests above)."""

    def test_master_failure_at_task_zero_reaps_unread_children(self, monkeypatch):
        # Task 0 is the master's own, and it fails while every child is
        # still matching (they sleep far past the test): the round must kill
        # and reap them rather than wait for them.
        monkeypatch.delenv(CHAOS_SEED_ENV, raising=False)
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        master = os.getpid()

        def failing_in_master(tgds, instance, delta, chunks):
            if os.getpid() == master:
                raise RuntimeError("task 0 failed in the master")
            time.sleep(60.0)
            return _MATCH_CHUNKS(tgds, instance, delta, chunks)

        monkeypatch.setattr(parallel, "_match_chunks", failing_in_master)
        pids = record_children(monkeypatch)
        engine, delta = materialize_round(ring_database(8), JOIN_TGDS)
        expected = [
            t.key for t in seminaive_triggers(JOIN_TGDS, engine.instance, delta)
        ]
        matcher = ParallelMatcher(JOIN_TGDS, workers=4)
        start = time.perf_counter()
        got = [t.key for t in matcher.discover(engine.instance, delta)]
        assert time.perf_counter() - start < 30.0
        assert got == expected
        assert len(pids) >= 2 and matcher.backend_fallbacks == 1
        assert_all_reaped(pids)


@needs_fork
class TestConcurrentPooledRounds:
    """Two threads pool rounds at once, as the service does with
    ``--workers > 1``: each run stays byte-identical to its serial run and
    neither falls back."""

    def test_two_threads_chase_on_the_pool_at_once(self, monkeypatch):
        monkeypatch.delenv(CHAOS_SEED_ENV, raising=False)
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        databases = [ring_database(9), ring_database(12)]
        serial = [seminaive_chase(db, NULL_TGDS) for db in databases]
        runs = [[], []]
        stats = [ChaseStats(), ChaseStats()]
        errors = []
        start = threading.Barrier(2)

        def chase(index):
            try:
                start.wait()
                for _ in range(3):
                    runs[index].append(
                        seminaive_chase(
                            databases[index], NULL_TGDS, workers=2, stats=stats[index]
                        )
                    )
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=chase, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for index in range(2):
            assert len(runs[index]) == 3
            for fanned in runs[index]:
                assert_identical_runs(serial[index], fanned)
                assert_same_nulls(serial[index], fanned)
            assert stats[index].pool_fallbacks == 0
            assert stats[index].rounds_parallel >= 3

    def test_a_round_never_waits_on_another_rounds_child(self, monkeypatch):
        # A pipe reads EOF only once every copy of its write end is closed.
        # Thread B tries to fork while thread A holds its first pipe open,
        # and B's children then sleep: had B's child inherited A's write
        # end, A's round would wait for it.  With payloads past the pipe
        # buffer, two rounds waiting on each other's children deadlock.
        monkeypatch.delenv(CHAOS_SEED_ENV, raising=False)
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        slow_tgds = parse_tgds(["E(x,y) -> F(x,y)", "F(x,y), F(y,z) -> T(x,z)"])
        a_forked, b_forked = threading.Event(), threading.Event()
        real_fork = os.fork
        done = {}

        def fork():
            pid = real_fork()
            if pid and threading.current_thread().name == "a" and not a_forked.is_set():
                a_forked.set()
                b_forked.wait(0.5)
            elif pid and threading.current_thread().name == "b":
                b_forked.set()
            return pid

        def slow_for_b(tgds, instance, delta, chunks):
            if tgds == tuple(slow_tgds):
                time.sleep(1.0)
            return _MATCH_CHUNKS(tgds, instance, delta, chunks)

        def discover(name, tgds, wait):
            engine, delta = materialize_round(ring_database(8), tgds)
            wait.wait(5.0)
            matcher = ParallelMatcher(tgds, workers=2)
            matcher.discover(engine.instance, delta)
            done[name] = (time.perf_counter(), matcher.rounds_parallel)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(parallel, "_match_chunks", slow_for_b)
        go = threading.Event()
        threads = [
            threading.Thread(target=discover, args=("a", JOIN_TGDS, go), name="a"),
            threading.Thread(target=discover, args=("b", slow_tgds, a_forked), name="b"),
        ]
        for thread in threads:
            thread.start()
        go.set()
        for thread in threads:
            thread.join(timeout=30)
        assert done["a"][1] == done["b"][1] == 1
        assert done["b"][0] - done["a"][0] > 0.5
