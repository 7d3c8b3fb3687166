"""HTTP front-end behavior: routing, malformed payloads, budgets, concurrency.

Black-box tests over real sockets against the in-process server
(``start_in_process``): JSON error contracts for malformed payloads and
unknown routes, budget-cut ``"timeout"`` responses that leave the session
continuable, concurrent clients with isolated sessions, and the /statz
counters' consistency after a workload.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.service.http import start_in_process


@pytest.fixture(scope="module")
def server():
    handle = start_in_process(default_wall_seconds=None)
    yield handle
    handle.close()


def request(server, method, path, payload=None, raw_body=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = raw_body if raw_body is not None else (
            json.dumps(payload) if payload is not None else None
        )
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


CHAIN = ["E(x,y) -> F(x,y)", "F(x,y) -> G(y,w)", "G(x,y) -> H(x)"]


def create_session(server, facts="E(a,b)", tgds=CHAIN):
    status, data = request(
        server, "POST", "/v1/sessions", {"tgds": tgds, "facts": facts}
    )
    assert status == 200, data
    return data


class TestRoutingAndErrors:
    def test_healthz(self, server):
        assert request(server, "GET", "/healthz") == (200, {"ok": True})

    def test_unknown_route_404(self, server):
        status, data = request(server, "GET", "/nope")
        assert status == 404 and "error" in data

    def test_unknown_session_404(self, server):
        status, data = request(server, "GET", "/v1/sessions/s12345")
        assert status == 404 and "no session" in data["error"]

    def test_method_not_allowed_405(self, server):
        status, _ = request(server, "PATCH", "/v1/sessions")
        assert status == 405

    def test_non_json_body_400(self, server):
        status, data = request(
            server, "POST", "/v1/sessions", raw_body="this is not json"
        )
        assert status == 400 and "not valid JSON" in data["error"]

    def test_non_object_body_400(self, server):
        status, data = request(server, "POST", "/v1/sessions", raw_body="[1, 2]")
        assert status == 400 and "JSON object" in data["error"]

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({}, "tgds"),
            ({"tgds": []}, "tgds"),
            ({"tgds": "E(x,y) -> F(x,y)"}, "tgds"),
            ({"tgds": ["E(x,"]}, "malformed tgds"),
            ({"tgds": CHAIN, "facts": "E(a,"}, "malformed facts"),
            ({"tgds": CHAIN, "facts": [1]}, "facts"),
            ({"tgds": CHAIN, "budget": {"walls": 1}}, "unknown budget"),
            ({"tgds": CHAIN, "budget": {"wall_seconds": "x"}}, "number"),
        ],
    )
    def test_malformed_create_payloads_400(self, server, payload, fragment):
        status, data = request(server, "POST", "/v1/sessions", payload)
        assert status == 400
        assert fragment in data["error"]

    @pytest.mark.parametrize(
        "declared, status, fragment",
        [
            ("abc", 400, "malformed Content-Length"),
            ("-5", 400, "malformed Content-Length"),
            (str(10**12), 413, "too large"),
        ],
    )
    def test_unreadable_body_answers_then_closes(self, server, declared, status, fragment):
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(
                f"POST /v1/sessions HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {declared}\r\n\r\n".encode()
            )
            reply = b""
            while True:  # the server closes the connection after answering
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in head
        assert fragment in json.loads(body)["error"]

    def test_malformed_facts_post_400(self, server):
        session = create_session(server)["session"]
        status, data = request(
            server, "POST", f"/v1/sessions/{session}/facts", {"facts": "E(b"}
        )
        assert status == 400 and "malformed facts" in data["error"]


class TestSessionFlow:
    def test_create_post_atoms_delete(self, server):
        created = create_session(server)
        session = created["session"]
        assert created["status"] == "complete"
        assert "F(a,b)" in created["derived"]
        status, posted = request(
            server, "POST", f"/v1/sessions/{session}/facts", {"facts": ["E(b,c)"]}
        )
        assert status == 200 and posted["status"] == "complete"
        assert "F(b,c)" in posted["derived"]
        assert "E(b,c)" not in posted["derived"]
        status, atoms = request(server, "GET", f"/v1/sessions/{session}/atoms")
        assert status == 200
        assert atoms["atoms"] == sorted(atoms["atoms"])  # canonical order
        assert "E(a,b)" in atoms["atoms"]
        status, info = request(server, "GET", f"/v1/sessions/{session}")
        assert status == 200 and info["increments"] == 2
        status, closed = request(server, "DELETE", f"/v1/sessions/{session}")
        assert status == 200 and closed["closed"]
        status, _ = request(server, "GET", f"/v1/sessions/{session}")
        assert status == 404

    def test_budget_cut_answers_timeout_and_continues(self, server):
        status, data = request(
            server,
            "POST",
            "/v1/sessions",
            {
                "tgds": ["R(x,y) -> R(y,z)"],
                "facts": "R(a,b)",
                "budget": {"max_rounds": 3},
            },
        )
        assert status == 200 and data["status"] == "timeout"
        assert data["reason"] == "budget:rounds"
        session = data["session"]
        status, info = request(server, "GET", f"/v1/sessions/{session}")
        assert info["suspended"] and info["suspended_reason"] == "budget:rounds"
        # An empty facts POST with a fresh budget keeps going.
        status, more = request(
            server,
            "POST",
            f"/v1/sessions/{session}/facts",
            {"budget": {"max_rounds": 2}},
        )
        assert status == 200 and more["status"] == "timeout"
        assert more["derived"]
        request(server, "DELETE", f"/v1/sessions/{session}")

    def test_concurrent_sessions_stay_isolated(self, server):
        errors = []

        def client(k):
            try:
                created = create_session(server, facts=f"E(a{k}, b{k})")
                session = created["session"]
                for step in range(3):
                    status, data = request(
                        server,
                        "POST",
                        f"/v1/sessions/{session}/facts",
                        {"facts": [f"E(b{k}_{step}, c{k}_{step})"]},
                    )
                    assert status == 200 and data["status"] == "complete", data
                status, atoms = request(
                    server, "GET", f"/v1/sessions/{session}/atoms"
                )
                assert status == 200
                mine = [a for a in atoms["atoms"] if f"a{k}" in a or f"b{k}" in a]
                assert mine, atoms
                others = [
                    a
                    for a in atoms["atoms"]
                    for j in range(8)
                    if j != k and (f"a{j}," in a or f"b{j}," in a)
                ]
                assert others == [], others
                request(server, "DELETE", f"/v1/sessions/{session}")
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append((k, error))

        threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestAnalyzeAndStatz:
    def test_analyze_twice_hits_cache(self, server):
        payload = {"tgds": ["P(x,y) -> Q(y,x)", "Q(x,y) -> P(x,y)"]}
        status, first = request(server, "POST", "/v1/analyze", payload)
        assert status == 200 and not first["cached"]
        status, second = request(server, "POST", "/v1/analyze", payload)
        assert status == 200 and second["cached"]
        assert second["verdict"] == first["verdict"]
        assert [e["stage"] for e in second["portfolio"]] == ["cache"]

    def test_analyze_budget_cut_is_an_uncached_timeout(self, server):
        # A diverging sticky set whose automaton search takes about half a
        # second unbudgeted (arity 7); a 0.1 s request budget cuts it.
        args = ",".join(f"x{i}" for i in range(7))
        shifted = ",".join(f"x{i}" for i in range(1, 7)) + ",z"
        tgds = [
            f"Rb({args}) -> Rb({shifted})",
            f"Rb({args}) -> Sb({shifted})",
            f"Sb({args}) -> Rb({shifted})",
        ]
        payload = {"tgds": tgds, "budget": {"wall_seconds": 0.1}}
        for _ in range(2):
            status, data = request(server, "POST", "/v1/analyze", payload)
            assert status == 200
            assert data["verdict"]["status"] == "timeout"
            assert data["verdict"]["method"] in ("sticky-budget", "portfolio-budget")
            assert not data["cached"]

    def test_statz_counters_consistent(self, server):
        status, data = request(server, "GET", "/statz")
        assert status == 200
        stats = data["stats"]
        assert stats["kind"] == "service"
        assert stats["sessions_resumed"] == sum(stats["increment_sizes"].values())
        assert data["verdict_cache"]["entries"] >= 1
        # The server-side object agrees with what it serves.
        assert server.service.stats.validate() == []


class TestStatzIsBounded:
    def test_statz_does_not_grow_with_resumes(self):
        # Every post adds a fresh chain edge that derives the same three
        # atoms, so the served histogram keeps one bucket: from 10 to 1000
        # resumes the body grows only by the two extra digits of
        # ``sessions_resumed`` and of that bucket's count.
        handle = start_in_process(default_wall_seconds=None)
        try:
            session = create_session(handle)["session"]

            def statz_bytes():
                conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
                try:
                    conn.request("GET", "/statz")
                    return conn.getresponse().read()
                finally:
                    conn.close()

            def post(start, stop):
                for i in range(start, stop):
                    status, data = request(
                        handle,
                        "POST",
                        f"/v1/sessions/{session}/facts",
                        {"facts": f"E(u{i:04d},v{i:04d})"},
                    )
                    assert status == 200 and len(data["derived"]) == 3, data

            post(0, 10)
            early = statz_bytes()
            post(10, 1000)
            late = statz_bytes()
        finally:
            handle.close()
        assert json.loads(early)["stats"]["increment_sizes"] == {"3": 10}
        assert json.loads(late)["stats"]["increment_sizes"] == {"3": 1000}
        assert len(late) == len(early) + 4
