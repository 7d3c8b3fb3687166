"""Fault injection: chaos'd discovery is byte-identical or cleanly typed.

The contract under test (see the failure model in ``docs/ARCHITECTURE.md``):
whatever :class:`repro.chase.chaos.ChaosMatcher` injects — killed workers,
delayed chunks, corrupted results — a chase completes with results
byte-identical to the undisturbed serial run (a failed pooled round is
recomputed serially).  Never a hang, never a silently partial or
corrupted instance.

The CI ``chaos`` job runs the parallel equivalence suite plus this file
with ``CHASE_CHAOS_SEED`` exported, routing every pool-backed chase in the
process through :func:`repro.chase.chaos.build_matcher`'s chaos path.
"""

import logging

import pytest

from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant
from repro.chase import parallel
from repro.chase.chaos import ChaosMatcher, ChaosPolicy, build_matcher
from repro.chase.engine import ChaseEngine
from repro.chase.parallel import ParallelMatcher, _validate_rows
from repro.chase.restricted import restricted_chase, seminaive_chase
from repro.chase.trigger import seminaive_triggers
from repro.errors import ResultIntegrityError
from repro.tgds.tgd import parse_tgds

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


@pytest.fixture(autouse=True)
def eager_pool(monkeypatch):
    """Send even these tiny rounds through the pool."""
    monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)


def chaos_matcher(policy):
    return ChaosMatcher(JOIN_TGDS, policy, workers=2)


def assert_identical_runs(serial, chaotic):
    assert serial.terminated == chaotic.terminated
    assert serial.steps == chaotic.steps
    assert serial.instance == chaotic.instance
    assert list(serial.instance) == list(chaotic.instance)
    assert [t.key for t in serial.derivation.steps] == [
        t.key for t in chaotic.derivation.steps
    ]


class TestPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        draws = [ChaosPolicy(seed=5).draw() for _ in range(64)]
        again = [ChaosPolicy(seed=5).draw() for _ in range(64)]
        assert draws == again
        assert set(draws) <= {None, "kill", "delay", "corrupt"}

    def test_different_seeds_differ(self):
        a = [ChaosPolicy(seed=1).draw() for _ in range(64)]
        b = [ChaosPolicy(seed=2).draw() for _ in range(64)]
        assert a != b

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="kill_rate"):
            ChaosPolicy(seed=0, kill_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            ChaosPolicy(seed=0, kill_rate=0.5, delay_rate=0.4, corrupt_rate=0.3)


class TestRowValidation:
    def test_rejects_the_chaos_corruption(self):
        with pytest.raises(ResultIntegrityError, match="malformed"):
            _validate_rows(JOIN_TGDS, [("chaos", "corrupt")])

    def test_rejects_non_list(self):
        with pytest.raises(ResultIntegrityError, match="row list"):
            _validate_rows(JOIN_TGDS, None)

    def test_rejects_bad_tgd_index_and_arity(self):
        with pytest.raises(ResultIntegrityError, match="TGD index"):
            _validate_rows(JOIN_TGDS, [(99, (Constant("a"),), 0)])
        with pytest.raises(ResultIntegrityError, match="arity"):
            _validate_rows(JOIN_TGDS, [(0, (Constant("a"),), 0)])

    def test_accepts_genuine_rows(self):
        engine, delta = materialize_round(ring_database(4), JOIN_TGDS)
        rows = parallel._match_chunks(
            JOIN_TGDS, engine.instance, delta, [(0, 0, 0, len(delta))]
        )
        _validate_rows(JOIN_TGDS, rows)  # must not raise


def fallback_events(caplog):
    return [
        record
        for record in caplog.records
        if getattr(record, "event", "") == "pool.fallback"
    ]


@pytest.mark.skipif(not parallel._fork_available(), reason="chaos bites the fork pool")
class TestChaosEquivalence:
    """Every fault shape heals into byte-identical discovery."""

    def expected_keys(self):
        engine, delta = materialize_round(ring_database(8), JOIN_TGDS)
        serial = [
            t.key for t in seminaive_triggers(JOIN_TGDS, engine.instance, delta)
        ]
        return engine, delta, serial

    def assert_recomputed_serially(self, policy, fault, caplog):
        engine, delta, serial = self.expected_keys()
        matcher = chaos_matcher(policy)
        with caplog.at_level(logging.WARNING, logger="repro.chase.parallel"):
            for _ in range(3):
                got = [t.key for t in matcher.discover(engine.instance, delta)]
                assert got == serial
        assert matcher.faults[fault] == 1
        # The serial pass is never chaos'd: one fault, one fallback.
        assert matcher.backend == "serial"
        assert matcher.backend_fallbacks == 1
        assert (matcher.rounds_parallel, matcher.rounds_serial) == (0, 3)
        assert len(fallback_events(caplog)) == 1

    def test_corrupt_results_are_rejected_and_recomputed(self, caplog):
        policy = ChaosPolicy(seed=2, kill_rate=0.0, delay_rate=0.0, corrupt_rate=1.0)
        self.assert_recomputed_serially(policy, "corrupt", caplog)

    def test_killed_workers_are_recomputed_serially(self, caplog):
        policy = ChaosPolicy(seed=1, kill_rate=1.0, delay_rate=0.0, corrupt_rate=0.0)
        self.assert_recomputed_serially(policy, "kill", caplog)

    def test_delays_change_nothing(self):
        engine, delta, serial = self.expected_keys()
        policy = ChaosPolicy(
            seed=7, kill_rate=0.0, delay_rate=1.0, corrupt_rate=0.0,
            delay_seconds=0.001,
        )
        matcher = chaos_matcher(policy)
        got = [t.key for t in matcher.discover(engine.instance, delta)]
        assert got == serial
        assert matcher.faults["delay"] > 0
        assert matcher.backend_fallbacks == 0 and matcher.rounds_parallel == 1

    def test_end_to_end_chase_under_chaos(self, monkeypatch):
        serial = restricted_chase(ring_database(8), JOIN_TGDS, strategy="semi_naive")
        for seed in (1, 2, 3):
            monkeypatch.setenv("CHASE_CHAOS_SEED", str(seed))
            chaotic = restricted_chase(
                ring_database(8), JOIN_TGDS, strategy="semi_naive", workers=2
            )
            assert_identical_runs(serial, chaotic)


class TestBuildMatcher:
    def test_plain_matcher_without_seed(self, monkeypatch):
        monkeypatch.delenv("CHASE_CHAOS_SEED", raising=False)
        matcher = build_matcher(JOIN_TGDS, workers=2)
        assert type(matcher) is ParallelMatcher

    def test_chaos_matcher_with_seed(self, monkeypatch):
        # The seed is the one setting: the schedule's rates are the policy's.
        monkeypatch.setenv("CHASE_CHAOS_SEED", "1307")
        matcher = build_matcher(JOIN_TGDS, workers=2)
        assert isinstance(matcher, ChaosMatcher)
        assert matcher.policy.seed == 1307
        default = ChaosPolicy(seed=1307)
        assert (
            matcher.policy.kill_rate,
            matcher.policy.delay_rate,
            matcher.policy.corrupt_rate,
        ) == (default.kill_rate, default.delay_rate, default.corrupt_rate)

    def test_single_worker_build_is_serial_either_way(self, monkeypatch):
        monkeypatch.setenv("CHASE_CHAOS_SEED", "1307")
        matcher = build_matcher(JOIN_TGDS, workers=1)
        assert matcher.backend == "serial"

    def test_seminaive_chase_routes_through_build_matcher(self, monkeypatch):
        # workers>1 must pick up the env seed without any explicit opt-in.
        monkeypatch.setenv("CHASE_CHAOS_SEED", "1307")
        built = []
        original = build_matcher

        def spy(tgds, **kwargs):
            matcher = original(tgds, **kwargs)
            built.append(matcher)
            return matcher

        import repro.chase.chaos as chaos_module

        monkeypatch.setattr(chaos_module, "build_matcher", spy)
        seminaive_chase(ring_database(8), JOIN_TGDS, workers=2)
        assert built and all(isinstance(m, ChaosMatcher) for m in built)
