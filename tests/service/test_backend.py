"""Backend selection through the service layer.

Covers the per-request ``"backend"`` field on session create, the
service-level default, per-session backend reporting in ``info()`` and
``/statz``, rejection of invalid specs, and byte-identity of a
sqlite-backed session's canonical serialization with a memory one.
"""

import http.client
import json
import os

import pytest

from repro.backends.sqlite import SQLiteInstance
from repro.chase.checkpoint import Budget
from repro.core.parsing import parse_atoms
from repro.errors import ServiceError
from repro.service.http import start_in_process
from repro.service.session import (
    ChaseService,
    ChaseSession,
    parse_backend_payload,
    parse_fact_payload,
    parse_tgd_payload,
)

CHAIN = ["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)", "G(x,y) -> H(x)"]


def make(tgds=CHAIN, facts="E(a,b)"):
    return parse_tgd_payload(tgds), parse_fact_payload(facts)


class TestParseBackendPayload:
    def test_none_defaults_to_memory(self, monkeypatch):
        monkeypatch.delenv("CHASE_BACKEND", raising=False)
        assert parse_backend_payload(None).name == "memory"

    def test_none_falls_back_to_service_default(self):
        from repro.backends import BackendSpec

        default = BackendSpec("sqlite")
        assert parse_backend_payload(None, default=default) is default

    def test_string_and_dict(self):
        assert parse_backend_payload("sqlite").name == "sqlite"
        assert parse_backend_payload({"name": "sqlite"}).name == "sqlite"

    @pytest.mark.parametrize("bad", ["lmdb", {"name": "sqlite", "bogus": 1}, 7])
    def test_invalid_is_service_error(self, bad):
        with pytest.raises(ServiceError, match="invalid backend"):
            parse_backend_payload(bad)


class TestServiceBackend:
    def test_session_backend_override_and_statz(self, monkeypatch):
        monkeypatch.delenv("CHASE_BACKEND", raising=False)
        service = ChaseService()
        try:
            tgds, facts = make()
            memory = service.create_session(tgds, facts)
            sqlite = service.create_session(tgds, facts, backend="sqlite")
            assert memory["backend"] == "memory"
            assert sqlite["backend"] == "sqlite"
            statz = service.statz()
            assert statz["sessions"] == 2
            assert statz["backends"] == {"memory": 1, "sqlite": 1}
            info = service.get(sqlite["session"]).info()
            assert info["backend"] == "sqlite"
        finally:
            service.close()

    def test_service_level_default(self):
        service = ChaseService(backend="sqlite")
        try:
            tgds, facts = make()
            created = service.create_session(tgds, facts)
            assert created["backend"] == "sqlite"
            assert service.statz()["backends"] == {"sqlite": 1}
        finally:
            service.close()

    def test_sqlite_session_serves_identical_closure(self):
        service = ChaseService()
        try:
            tgds, facts = make()
            memory = service.create_session(tgds, facts)
            sqlite = service.create_session(tgds, facts, backend="sqlite")
            more = parse_fact_payload("E(b,c), E(c,d)")
            memory_post = service.post_facts(memory["session"], more)
            sqlite_post = service.post_facts(sqlite["session"], more)
            assert memory_post["derived"] == sqlite_post["derived"]
            assert memory_post["atoms"] == sqlite_post["atoms"]
            memory_atoms = service.get(memory["session"]).canonical_atoms()
            sqlite_atoms = service.get(sqlite["session"]).canonical_atoms()
            assert memory_atoms == sqlite_atoms
        finally:
            service.close()

    def test_invalid_backend_rejected_before_session_exists(self):
        service = ChaseService()
        try:
            tgds, facts = make()
            with pytest.raises(ServiceError, match="invalid backend"):
                service.create_session(tgds, facts, backend="lmdb")
            assert service.statz()["sessions"] == 0
        finally:
            service.close()

    def test_checkpoint_restore_onto_sqlite(self):
        service = ChaseService()
        try:
            tgds, facts = make()
            created = service.create_session(tgds, facts)
            session = service.get(created["session"])
            checkpoint = session.checkpoint()
            restored = ChaseSession.from_checkpoint(
                "r1", tgds, checkpoint, backend="sqlite"
            )
            try:
                assert restored.backend.name == "sqlite"
                assert restored.canonical_atoms() == session.canonical_atoms()
            finally:
                restored.close()
        finally:
            service.close()


def chain_edges(start, stop):
    return parse_fact_payload([f"E(c{i},c{i + 1})" for i in range(start, stop)])


def tail_beyond(session, start, posted):
    """What ``derived`` must hold: the atoms after ``start``, posted ones out."""
    posted = set(posted)
    return [a for a in list(session.engine.instance)[start:] if a not in posted]


class TestPostCollectsOnlyItsOwnAtoms:
    def test_post_never_iterates_the_sqlite_instance(self, monkeypatch):
        service = ChaseService(backend="sqlite")
        try:
            tgds = parse_tgd_payload(CHAIN)
            sid = service.create_session(tgds, chain_edges(0, 300))["session"]
            walks = []
            real_iter = SQLiteInstance.__iter__

            def spy(instance):
                walks.append(len(instance))
                return real_iter(instance)

            monkeypatch.setattr(SQLiteInstance, "__iter__", spy)
            session = service.get(sid)
            start = len(session.engine.instance)
            facts = chain_edges(300, 301)
            posted = service.post_facts(sid, facts)
            monkeypatch.undo()
            assert walks == []
            assert [a.predicate for a in posted["derived"]] == ["F", "G", "H"]
            assert posted["derived"] == tail_beyond(session, start, facts)
        finally:
            service.close()

    @pytest.mark.parametrize("cut", [False, True])
    def test_derived_is_the_instance_tail_on_both_backends(self, cut):
        service = ChaseService(default_wall_seconds=None)
        try:
            tgds = parse_tgd_payload(CHAIN)
            derived = {}
            for backend in ("memory", "sqlite"):
                created = service.create_session(tgds, chain_edges(0, 5), backend=backend)
                session = service.get(created["session"])
                answers = []
                for batch in range(1, 5):
                    facts = chain_edges(batch * 5, batch * 5 + 5)
                    start = len(session.engine.instance)
                    # A one-application budget cuts the round after the
                    # injected facts joined its live delta.
                    budget = Budget(max_applications=1) if cut else None
                    answer = service.post_facts(created["session"], facts, budget)
                    assert answer["status"] == ("timeout" if cut else "complete")
                    assert answer["derived"] == tail_beyond(session, start, facts)
                    answers.append([repr(a) for a in answer["derived"]])
                derived[backend] = answers
            assert derived["memory"] == derived["sqlite"]
            assert all(derived["memory"])
        finally:
            service.close()


class TestFailedCreate:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_failed_first_increment_registers_nothing(self, backend, monkeypatch):
        closed = []
        real_close = ChaseSession.close

        def spy(session):
            closed.append(getattr(session.engine.instance, "path", None))
            real_close(session)

        monkeypatch.setattr(ChaseSession, "close", spy)
        service = ChaseService()
        try:
            tgds = parse_tgd_payload(CHAIN)
            non_ground = parse_atoms("E(x,y)")
            with pytest.raises(ServiceError, match="must be ground"):
                service.create_session(tgds, non_ground, backend=backend)
            assert service.sessions == {}
            assert service.statz()["sessions"] == 0
            assert service.stats.sessions_opened == 0
            assert len(closed) == 1
            if backend == "sqlite":
                assert not os.path.exists(closed[0])
            created = service.create_session(tgds, parse_fact_payload("E(a,b)"))
            assert list(service.sessions) == [created["session"]]
        finally:
            service.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_close_during_first_increment_registers_nothing(self, backend, monkeypatch):
        """A create still in its first increment when the service closes
        (a server shutting down with executor work in flight) closes its
        own session and answers 503 instead of registering into a closed
        service."""
        service = ChaseService()
        sessions = []
        real_post = ChaseSession.post_facts

        def post_then_close(session, facts, budget=None):
            sessions.append(session)
            result = real_post(session, facts, budget=budget)
            service.close()
            return result

        monkeypatch.setattr(ChaseSession, "post_facts", post_then_close)
        tgds = parse_tgd_payload(CHAIN)
        with pytest.raises(ServiceError, match="closed") as refused:
            service.create_session(tgds, parse_fact_payload("E(a,b)"), backend=backend)
        assert refused.value.status == 503
        assert service.sessions == {}
        assert service.stats.sessions_opened == 0
        (session,) = sessions
        assert session.closed
        if backend == "sqlite":
            assert not os.path.exists(session.engine.instance.path)


@pytest.fixture(scope="module")
def server():
    handle = start_in_process(default_wall_seconds=None)
    yield handle
    handle.close()


def request(server, method, path, payload=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHTTPBackend:
    def test_create_with_backend_field(self, server):
        status, data = request(
            server,
            "POST",
            "/v1/sessions",
            {"tgds": CHAIN, "facts": "E(a,b)", "backend": "sqlite"},
        )
        assert status == 200, data
        assert data["backend"] == "sqlite"
        status, info = request(server, "GET", f"/v1/sessions/{data['session']}")
        assert status == 200
        assert info["backend"] == "sqlite"
        status, statz = request(server, "GET", "/statz")
        assert status == 200
        assert statz["backends"].get("sqlite", 0) >= 1
        request(server, "DELETE", f"/v1/sessions/{data['session']}")

    def test_invalid_backend_is_400(self, server):
        status, data = request(
            server,
            "POST",
            "/v1/sessions",
            {"tgds": CHAIN, "facts": "E(a,b)", "backend": "lmdb"},
        )
        assert status == 400
        assert "invalid backend" in data["error"]
