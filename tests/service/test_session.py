"""Session semantics: incremental resume ≡ cold chase of the union.

The service's headline obligation, enforced over the generator corpus:
posting facts to a warm session and letting it resume must leave the
session byte-identical — canonical atom serialization, insertion order,
termination verdict, application count (≥, exactly equal when the posted
facts are underivable) — to a cold oblivious chase of all the facts at
once.  Plus the session lifecycle: budget-cut
suspension and continuation, checkpoint round-trips, store bookkeeping,
and the stats counters the obs layer validates.
"""

import gc
import pickle

import pytest

from repro.core.instance import Instance
from repro.core.parsing import parse_atoms
from repro.core.terms import Null
from repro.chase.checkpoint import Budget
from repro.chase.oblivious import oblivious_chase
from repro.errors import CheckpointError, ServiceError
from repro.guarded.decision import candidate_databases
from repro.service.session import (
    ChaseService,
    ChaseSession,
    budget_from_payload,
    parse_fact_payload,
    parse_tgd_payload,
)
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import parse_tgds, tgd_set_digest

#: Dense-existential profile shared with the equivalence suites.
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


def make_session(tgds, facts, **kwargs):
    session = ChaseSession("t1", tgds, [], **kwargs)
    result = session.post_facts(facts)
    assert result["status"] == "complete"
    return session


class TestIncrementalEqualsCold:
    """The equivalence property, over the generator corpus."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_post_then_resume_equals_cold_union(self, family):
        for tgds in corpus(family, 3, base_seed=1307, profile=PROFILE):
            databases = candidate_databases(tgds)
            if len(databases) < 2:
                continue
            seed, extra = list(databases[0]), list(databases[1])
            session = ChaseSession(
                "s", tgds, [], max_atoms=4000, max_rounds=200
            )
            try:
                first = session.post_facts(seed)
                second = session.post_facts(extra)
                if first["status"] != "complete" or second["status"] != "complete":
                    continue  # hit the safety ceilings; nothing to compare
                cold = oblivious_chase(
                    Instance(seed + extra),
                    tgds,
                    max_atoms=4000,
                    max_rounds=200,
                    prune=False,
                )
                if not cold.terminated:
                    continue
                cold_atoms = [repr(a) for a in cold.instance.sorted_atoms()]
                assert session.canonical_atoms() == cold_atoms
                # Posted facts may themselves be derivable, in which case
                # the warm path counted their derivation and the cold path
                # saw them as seed — so >=, never <.
                assert session.applications >= cold.applications
            finally:
                session.close()

    def test_applications_equal_when_posts_underivable(self):
        # E appears in no head: posted E-edges can never collide with a
        # derived atom, so the counts must agree exactly.
        session = make_session(CHAIN_TGDS, parse_atoms("E(a,b)", data=True))
        session.post_facts(parse_atoms("E(b,c), E(c,d)", data=True))
        cold = oblivious_chase(
            Instance(parse_atoms("E(a,b), E(b,c), E(c,d)", data=True)),
            CHAIN_TGDS,
            prune=False,
        )
        assert session.canonical_atoms() == [
            repr(a) for a in cold.instance.sorted_atoms()
        ]
        assert session.applications == cold.applications

    def test_derived_delta_excludes_posted_facts(self):
        session = make_session(CHAIN_TGDS, parse_atoms("E(a,b)", data=True))
        result = session.post_facts(parse_atoms("E(b,c)", data=True))
        derived = {repr(a) for a in result["derived"]}
        assert "E(b,c)" not in derived
        assert "F(b,c)" in derived
        assert result["facts_added"] == 1

    def test_duplicate_posts_are_noops(self):
        session = make_session(CHAIN_TGDS, parse_atoms("E(a,b)", data=True))
        before = session.canonical_atoms()
        result = session.post_facts(parse_atoms("E(a,b)", data=True))
        assert result["facts_added"] == 0
        assert result["derived"] == []
        assert session.canonical_atoms() == before


class TestBudgetsAndSuspension:
    def test_budget_cut_suspends_then_continues(self):
        tgds = parse_tgds(["R(x,y) -> R(y,z)"])  # diverging
        session = ChaseSession("s", tgds, [], max_rounds=10_000)
        result = session.post_facts(
            parse_atoms("R(a,b)", data=True), budget=Budget(max_rounds=3)
        )
        assert result["status"] == "timeout"
        assert result["reason"] == "budget:rounds"
        assert session.suspended_reason == "budget:rounds"
        # An empty post with fresh budget continues the same saturation.
        more = session.post_facts([], budget=Budget(max_rounds=3))
        assert more["status"] == "timeout"
        assert more["derived"]  # progressed further down the R-chain
        assert session.applications >= result["applications"]

    def test_suspended_equals_cold_after_continuation(self):
        session = make_session(CHAIN_TGDS, parse_atoms("E(a,b)", data=True))
        cut = session.post_facts(
            parse_atoms("E(b,c), E(c,d)", data=True), budget=Budget(max_rounds=1)
        )
        assert cut["status"] == "timeout"
        finished = session.post_facts([])
        assert finished["status"] == "complete"
        cold = oblivious_chase(
            Instance(parse_atoms("E(a,b), E(b,c), E(c,d)", data=True)),
            CHAIN_TGDS,
            prune=False,
        )
        assert session.canonical_atoms() == [
            repr(a) for a in cold.instance.sorted_atoms()
        ]

    def test_max_rounds_ceiling_suspends(self):
        tgds = parse_tgds(["R(x,y) -> R(y,z)"])
        session = ChaseSession("s", tgds, [], max_rounds=2)
        result = session.post_facts(parse_atoms("R(a,b)", data=True))
        assert result["status"] == "timeout"
        assert result["reason"] == "max_rounds"

    def test_non_ground_facts_rejected(self):
        session = make_session(CHAIN_TGDS, parse_atoms("E(a,b)", data=True))
        atoms = parse_atoms("E(c, ?n)", data=True)
        # Nulls are ground terms for the chase; a variable is not.
        from repro.core.atoms import Atom
        from repro.core.terms import Variable

        with pytest.raises(ServiceError):
            session.post_facts([Atom("E", [Variable("x"), Variable("y")])])
        # ?-nulls in client facts are fine.
        result = session.post_facts(atoms)
        assert result["facts_added"] == 1


class TestCheckpointRoundTrip:
    def test_pickled_checkpoint_restores_byte_identically(self):
        session = make_session(CHAIN_TGDS, parse_atoms("E(a,b), E(b,c)", data=True))
        blob = pickle.dumps(session.checkpoint())
        restored = ChaseSession.from_checkpoint("s2", CHAIN_TGDS, pickle.loads(blob))
        assert restored.canonical_atoms() == session.canonical_atoms()
        assert list(restored.engine.instance) == list(session.engine.instance)
        assert restored.applications == session.applications
        assert restored.rounds == session.rounds
        # And the restored session keeps serving increments identically.
        extra = parse_atoms("E(c,d)", data=True)
        a = session.post_facts(list(extra))
        b = restored.post_facts(list(extra))
        assert [repr(x) for x in a["derived"]] == [repr(x) for x in b["derived"]]

    def test_mid_suspension_checkpoint_round_trips(self):
        tgds = parse_tgds(["R(x,y) -> R(y,z)"])
        session = ChaseSession("s", tgds, [])
        session.post_facts(parse_atoms("R(a,b)", data=True), budget=Budget(max_rounds=2))
        restored = ChaseSession.from_checkpoint(
            "s2", tgds, pickle.loads(pickle.dumps(session.checkpoint()))
        )
        a = session.post_facts([], budget=Budget(max_rounds=2))
        b = restored.post_facts([], budget=Budget(max_rounds=2))
        assert [repr(x) for x in a["derived"]] == [repr(x) for x in b["derived"]]

    def test_restored_suspension_reports_suspended(self):
        tgds = parse_tgds(["R(x,y) -> R(y,z)"])
        session = ChaseSession("s", tgds, [])
        session.post_facts(parse_atoms("R(a,b)", data=True), budget=Budget(max_rounds=3))
        assert session.info()["suspended"]
        restored = ChaseSession.from_checkpoint(
            "s2", tgds, pickle.loads(pickle.dumps(session.checkpoint()))
        )
        assert restored.info()["suspended"]
        assert restored.rounds == session.rounds == 3
        finished = make_session(CHAIN_TGDS, parse_atoms("E(a,b)", data=True))
        assert not finished.info()["suspended"]
        assert not ChaseSession.from_checkpoint(
            "s3", CHAIN_TGDS, finished.checkpoint()
        ).info()["suspended"]

    def test_wrong_tgds_rejected(self):
        session = make_session(CHAIN_TGDS, parse_atoms("E(a,b)", data=True))
        with pytest.raises(CheckpointError):
            ChaseSession.from_checkpoint(
                "s2", parse_tgds(["E(x,y) -> F(y,x)"]), session.checkpoint()
            )


class TestChaseService:
    def test_store_lifecycle_and_counters(self):
        service = ChaseService(default_wall_seconds=None)
        created = service.create_session(
            CHAIN_TGDS, parse_atoms("E(a,b)", data=True)
        )
        sid = created["session"]
        assert created["digest"] == tgd_set_digest(CHAIN_TGDS)
        assert service.stats.sessions_opened == 1
        assert service.stats.sessions_resumed == 0  # the create is not a resume
        result = service.post_facts(sid, parse_atoms("E(b,c)", data=True))
        assert service.stats.sessions_resumed == 1
        assert service.stats.increment_sizes == {len(result["derived"]): 1}
        assert service.stats.validate() == []
        assert [s["session"] for s in service.list_sessions()] == [sid]
        service.delete(sid)
        assert service.list_sessions() == []
        with pytest.raises(ServiceError) as err:
            service.get(sid)
        assert err.value.status == 404
        service.close()

    def test_deleted_session_releases_its_interned_nulls(self):
        # Terms are interned through weak tables: a long-lived service must
        # not pin the nulls of sessions it has closed.
        service = ChaseService(default_wall_seconds=None)
        sid = service.create_session(
            CHAIN_TGDS, parse_atoms("E(gc1,gc2), E(gc2,gc3)", data=True)
        )["session"]
        # Hold the session's nulls, not only their names, while it lives:
        # on a disk backend nothing else in memory need keep them interned.
        nulls = [
            term
            for atom in service.get(sid).engine.instance
            for term in atom.terms
            if isinstance(term, Null)
        ]
        names = [null.name for null in nulls]
        assert names and all(name in Null._interned for name in names)
        del nulls
        service.delete(sid)
        service.close()
        gc.collect()
        assert not [name for name in names if name in Null._interned]

    def test_sessions_are_isolated(self):
        service = ChaseService(default_wall_seconds=None)
        a = service.create_session(CHAIN_TGDS, parse_atoms("E(a,b)", data=True))
        b = service.create_session(CHAIN_TGDS, parse_atoms("E(x,y)", data=True))
        assert a["session"] != b["session"]
        atoms_a = service.get(a["session"]).canonical_atoms()
        assert not any("x" in atom for atom in atoms_a)
        service.close()

    def test_analyze_memoizes_by_digest(self):
        service = ChaseService(default_wall_seconds=None)
        tgds = parse_tgds(["E(x,y) -> F(x,y)"])
        first = service.analyze(tgds)
        second = service.analyze(tgds)
        assert first["verdict"] == second["verdict"]
        assert not first["cached"] and second["cached"]
        # THE acceptance assertion: the warm trail is one cache stage —
        # no certificate / stratification / decider entry at all.
        assert [e["stage"] for e in second["portfolio"]] == ["cache"]
        assert service.stats.verdict_cache_hits == 1
        assert service.stats.verdict_cache_misses == 1
        service.close()


class TestPayloadParsing:
    def test_budget_payload_round_trip(self):
        budget = budget_from_payload(
            {"wall_seconds": 2, "max_rounds": 5}, default_wall=None
        )
        assert budget.wall_seconds == 2
        assert budget.max_rounds == 5

    def test_budget_default_wall_applies(self):
        assert budget_from_payload(None, default_wall=30.0).wall_seconds == 30.0
        assert budget_from_payload(None, default_wall=None) is None

    @pytest.mark.parametrize(
        "payload",
        [
            {"walls": 1},
            {"wall_seconds": "fast"},
            {"wall_seconds": True},
            {"max_rounds": -1},
            [1, 2],
        ],
    )
    def test_bad_budgets_rejected(self, payload):
        with pytest.raises(ServiceError):
            budget_from_payload(payload, default_wall=None)

    def test_fact_payload_forms(self):
        assert len(parse_fact_payload("E(a,b), E(b,c)")) == 2
        assert len(parse_fact_payload(["E(a,b)", "E(b,c)"])) == 2
        assert parse_fact_payload(None) == []
        with pytest.raises(ServiceError):
            parse_fact_payload("E(a,")
        with pytest.raises(ServiceError):
            parse_fact_payload([1, 2])

    def test_tgd_payload_forms(self):
        assert len(parse_tgd_payload(["E(x,y) -> F(x,y)"])) == 1
        for bad in (None, [], "E(x,y) -> F(x,y)", ["E(x,"], [3]):
            with pytest.raises(ServiceError):
                parse_tgd_payload(bad)
