"""The ``service_mixed`` workload: the chase service under session traffic.

The traffic is the repository's own service load,
``benchmarks/bench_service.py`` in its quick shape (the one recorded in
``BENCH_chase.json``): ``CLIENTS`` closed-loop client threads, each on its
own keep-alive connection to a server process (``serve.py``), each running
sessions of

* 1 ``POST /v1/sessions`` with the chain rules and ``BATCH`` chain edges,
* ``REQUESTS - 1`` ``POST /v1/sessions/{id}/facts`` with ``BATCH`` fresh
  chain edges each (inject, semi-naive resume, delta answer).

Only these requests are measured.  The run is cut into slices of equal
work, ``SLICE_SESSIONS`` sessions per client; between slices, with every
client idle, the benchmark reads each finished session back
(``GET .../atoms``), checks it against the oblivious closure it expects,
and deletes it, so each slice starts with no session open.  Every facts
answer must also carry exactly the expected number of derived atoms.

The server process and the clients share one CPU, so a request's latency
includes the clients' own work.  Throughput is therefore counted against
the server's CPU seconds, which the server reports itself between slices:
it is what one server CPU answers per second.  The clients' share of the
CPU is printed on standard error.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import HostSpeed, Outcome, mean, median

SERVE = Path(__file__).resolve().parent / "serve.py"

#: ``SERVICE_TGD_TEXTS`` of ``benchmarks/bench_service.py``.
SESSION_RULES = (
    "E(x,y) -> F(x,y)",
    "F(x,y) -> G(y,w)",
    "G(x,y) -> H(x)",
)
#: ``bench_service.py --quick``: clients, requests per session, edges per request.
CLIENTS = 4
REQUESTS = 6
BATCH = 8
#: Chain edges have pairwise distinct targets, so each edge derives one
#: F-, one G- and one H-atom.
DERIVED_PER_EDGE = 3
#: Distinct session scripts per client; a long run cycles through them.
SCRIPTS = 24
#: Sessions per client in one slice of the run (about a third of a second).
SLICE_SESSIONS = 8

_ATOM = re.compile(r"^([A-Za-z0-9_]+)\((.*)\)$")


def build_inputs(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}:{seed}")
    tags = rng.sample(range(10**9), (CLIENTS + 1) * SCRIPTS)
    scripts = []
    for client in range(CLIENTS + 1):
        sessions = []
        for tag in tags[client * SCRIPTS:(client + 1) * SCRIPTS]:
            facts = [f"E(s{tag}_{i},s{tag}_{i + 1})" for i in range(REQUESTS * BATCH)]
            sessions.append([facts[k:k + BATCH] for k in range(0, len(facts), BATCH)])
        scripts.append(sessions)
    return {"scripts": scripts}


def _check_session(data: dict, facts: List[str]) -> str:
    """The problem with a session's atoms, or ``""`` if they are its closure."""
    edges = {fact[2:-1] for fact in facts}
    targets = sorted(edge.split(",")[1] for edge in edges)
    groups: Dict[str, List[str]] = {}
    for text in data["atoms"]:
        match = _ATOM.match(text)
        if match is None:
            return f"unparsable atom {text!r}"
        groups.setdefault(match.group(1), []).append(match.group(2))
    if set(groups) != set("EFGH"):
        return f"session predicates are {sorted(groups)}"
    if set(groups["E"]) != edges or set(groups["F"]) != edges:
        return "E/F atoms differ from the posted edges"
    if sorted(groups["H"]) != targets:
        return "H atoms differ from the edge targets"
    g_args = [args.split(",") for args in groups["G"]]
    if sorted(first for first, _ in g_args) != targets:
        return "G atoms are not one per edge"
    nulls = {null for _, null in g_args}
    if len(nulls) != len(g_args) or not all(null.startswith("?") for null in nulls):
        return "G witnesses are not distinct nulls"
    if data["applications"] != DERIVED_PER_EDGE * len(edges):
        return f"{data['applications']} applications for {len(edges)} edges"
    return ""


class Server:
    """The server process: started by ``setup``, stopped by ``stop``."""

    host = "127.0.0.1"

    def __init__(self, trace: bool):
        self.process = subprocess.Popen(
            [sys.executable, str(SERVE), "--trace", "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.report = None
        try:
            self.port = int(self.process.stdout.readline())
        except ValueError:
            self.stop()
            raise RuntimeError(f"server did not start (exit {self.process.returncode})")

    def mark(self) -> dict:
        """The server's CPU seconds and trace sample counts, now."""
        self.process.stdin.write("mark\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def stop(self) -> dict:
        """Stop the server (once) and return its final report."""
        if self.report is None:
            try:
                out, _ = self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                out, _ = self.process.communicate()
            lines = out.strip().splitlines()
            self.report = json.loads(lines[-1]) if lines else {}
        return self.report


def setup(inputs: dict, trace: bool) -> dict:
    return {"server": Server(trace)}


def teardown(state: dict) -> None:
    state["server"].stop()


def _connect(server: Server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(server.host, server.port, timeout=60)


def _request(conn, method: str, path: str, payload=None) -> dict:
    conn.request(method, path, body=json.dumps(payload) if payload is not None else None)
    response = conn.getresponse()
    data = json.loads(response.read())
    if response.status != 200:
        raise RuntimeError(f"{method} {path} answered {response.status}: {data}")
    return data


class _Client:
    """One closed-loop client; records its answered requests and failures."""

    def __init__(self, server: Server, scripts):
        self.server = server
        self.scripts = scripts
        #: Sessions started so far; the next one runs script ``index``.
        self.index = 0
        #: ``(route, seconds)`` of every answered request, in order.
        self.samples: List[Tuple[str, float]] = []
        #: ``(session id, posted facts or None if the session failed)`` of
        #: the sessions not yet checked and deleted.
        self.finished: List[Tuple[str, Optional[List[str]]]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _timed(self, conn, route: str, path: str, payload: dict) -> dict:
        self.attempted += 1
        started = time.perf_counter()
        data = _request(conn, "POST", path, payload)
        self.samples.append((route, time.perf_counter() - started))
        return data

    def _session(self, conn, batches) -> None:
        session = None
        posted: Optional[List[str]] = []
        try:
            for index, facts in enumerate(batches):
                if index == 0:
                    data = self._timed(
                        conn, "create", "/v1/sessions",
                        {"tgds": list(SESSION_RULES), "facts": facts},
                    )
                    session = data["session"]
                else:
                    data = self._timed(
                        conn, "facts", f"/v1/sessions/{session}/facts", {"facts": facts},
                    )
                posted += facts
                expected = DERIVED_PER_EDGE * len(facts)
                if data["status"] != "complete" or len(data["derived"]) != expected:
                    raise RuntimeError(
                        f"increment {index} derived {len(data['derived'])} atoms "
                        f"({data['status']}), expected {expected}"
                    )
        except Exception:
            posted = None
            raise
        finally:
            if session is not None:
                self.finished.append((session, posted))

    def run(self, sessions: int) -> None:
        """Run ``sessions`` whole sessions, the next scripts in turn."""
        conn = _connect(self.server)
        try:
            for _ in range(sessions):
                batches = self.scripts[self.index % len(self.scripts)]
                self.index += 1
                try:
                    self._session(conn, batches)
                except Exception as error:  # noqa: BLE001 - counted, the loop goes on
                    self.failed += 1
                    if len(self.problems) < 5:
                        self.problems.append(f"{type(error).__name__}: {error}")
                    conn.close()
                    conn = _connect(self.server)
        finally:
            conn.close()


def _run_clients(clients: List[_Client], sessions: int) -> None:
    threads = [threading.Thread(target=client.run, args=(sessions,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client did not finish within 120 s")


def _check_and_delete(server: Server, clients: List[_Client], outcome: Outcome) -> None:
    """Check every finished session's atoms, then delete the session."""
    conn = _connect(server)
    try:
        for client in clients:
            for session, facts in client.finished:
                if facts is not None:
                    problem = _check_session(
                        _request(conn, "GET", f"/v1/sessions/{session}/atoms"), facts
                    )
                    if problem:
                        outcome.fail(f"session {session}: {problem}")
                _request(conn, "DELETE", f"/v1/sessions/{session}")
            client.finished.clear()
    finally:
        conn.close()


def measure(state: dict, inputs: dict, seconds: float, trace: bool) -> Outcome:
    server = state["server"]
    outcome = Outcome()
    # Warm-up, not measured: one session.
    warm = _Client(server, inputs["scripts"][CLIENTS])
    _run_clients([warm], 1)
    _check_and_delete(server, [warm], outcome)
    if warm.failed or outcome.failed:
        outcome.attempted = warm.attempted
        outcome.fail(f"warm-up failed: {warm.problems}")
        return outcome
    clients = [_Client(server, inputs["scripts"][k]) for k in range(CLIENTS)]
    speed = HostSpeed()
    routes: Dict[str, List[float]] = {}
    spans = []
    client_cpu = server_cpu = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        marks = [len(client.samples) for client in clients]
        before = server.mark()
        cpu_started = time.process_time()
        _run_clients(clients, SLICE_SESSIONS)
        client_cpu += time.process_time() - cpu_started
        after = server.mark()
        # The host probe runs while the server is idle (they share a CPU).
        factor = speed.factor()
        latencies = []
        for client, mark in zip(clients, marks):
            for route, latency in client.samples[mark:]:
                routes.setdefault(route, []).append(latency)
                latencies.append(latency)
        server_seconds = after["cpu"] - before["cpu"]
        server_cpu += server_seconds
        outcome.add_slice(latencies, server_seconds, factor)
        spans.append((before, after))
        _check_and_delete(server, clients, outcome)
    outcome.speed = median(speed.factors)
    report = server.stop()
    outcome.peak_rss_mb = report["peak_rss_mb"]
    for client in clients:
        outcome.attempted += client.attempted
        outcome.failed += client.failed
        outcome.problems.extend(client.problems)
    print(
        f"perfbench: client CPU share {client_cpu / (client_cpu + server_cpu):.3f}",
        file=sys.stderr,
    )
    if trace:
        calls = [
            sample for before, after in spans
            for sample in report["service_calls"][before["service_calls"]:after["service_calls"]]
        ]
        dispatches = [
            sample for before, after in spans
            for sample in report["dispatches"][before["dispatches"]:after["dispatches"]]
        ]
        for route in ("create", "facts"):
            outcome.layers[f"route_{route}_ms"] = median(routes[route]) * 1000
        outcome.layers["service_call_ms"] = median(calls) * 1000
        outcome.layers["server_dispatch_ms"] = median(dispatches) * 1000
        client_side = [latency for values in routes.values() for latency in values]
        outcome.layers["http_overhead_ms"] = (mean(client_side) - mean(dispatches)) * 1000
    return outcome
