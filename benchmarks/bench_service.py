"""Load-bench the chase service: throughput, tail latency, equivalence.

Boots the in-process server (``repro.service.http.start_in_process``) and
drives it with closed-loop client threads over real sockets.  Each client
opens its own session on the weakly-acyclic chain rules and then posts
batches of fresh chain edges, so every request exercises the incremental
path: inject → semi-naive resume → delta response.  All request latencies
pool into the reported p50/p99 and requests/sec.

Two gates ride along, and both are *equivalence* gates (never skippable in
``check_regression.py``):

* **incremental ≡ cold** — after the load phase, every session's canonical
  atom serialization (sorted reprs) must be byte-identical to a cold
  oblivious chase of that client's accumulated facts, and the session's
  lifetime application count must equal the cold run's (posted facts are
  base-predicate edges the chase never derives, so the counts must agree
  exactly — see ``docs/SERVICE.md``).
* **warm cache hit invokes no decider** — ``/v1/analyze`` asked twice for
  the same rule set must answer the second time from the verdict cache
  with a portfolio trail of exactly one ``"cache"`` stage: no certificate,
  no stratification check, no decider.

Standalone::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]

exits nonzero if either gate fails.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import threading
import time
from pathlib import Path

if __package__ in (None, ""):  # allow `python benchmarks/bench_service.py`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.instance import Instance
from repro.core.parsing import parse_atoms
from repro.chase.oblivious import oblivious_chase
from repro.tgds.tgd import parse_tgds

#: The chain rules every bench session runs (same shape as the harness's
#: kernel rules).  Posted facts are always ``E``-edges: ``E`` appears in
#: no head, so a posted fact can never collide with a derived atom and
#: the incremental application count must equal the cold one exactly.
SERVICE_TGD_TEXTS = (
    "E(x,y) -> F(x,y)",
    "F(x,y) -> G(y,w)",
    "G(x,y) -> H(x)",
)

#: A disjoint rule set for the warm-cache probe (so the load phase's
#: sessions cannot have pre-warmed its digest).
ANALYZE_TGD_TEXTS = (
    "P(x,y) -> Q(y,x)",
    "Q(x,y) -> P(x,y)",
)


class _Client:
    """One closed-loop load generator on its own keep-alive connection."""

    def __init__(self, host: str, port: int, name: str, requests: int, batch: int):
        self.host = host
        self.port = port
        self.name = name
        self.requests = requests
        self.batch = batch
        #: Per-request wall seconds, in request order.
        self.latencies = []
        #: Every fact this client ever posted (the cold-chase seed).
        self.facts = []
        self.session_id = None
        self.error = None

    def _request(self, conn, method: str, path: str, payload=None):
        body = json.dumps(payload) if payload is not None else None
        start = time.perf_counter()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        data = json.loads(response.read())
        self.latencies.append(time.perf_counter() - start)
        if response.status != 200:
            raise RuntimeError(
                f"{method} {path} answered {response.status}: {data}"
            )
        return data

    def _edges(self, start: int, count: int):
        return [
            f"E({self.name}_{i}, {self.name}_{i + 1})"
            for i in range(start, start + count)
        ]

    def run(self):
        try:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            try:
                seed = self._edges(0, self.batch)
                self.facts.extend(seed)
                created = self._request(
                    conn,
                    "POST",
                    "/v1/sessions",
                    {"tgds": list(SERVICE_TGD_TEXTS), "facts": seed},
                )
                self.session_id = created["session"]
                for step in range(1, self.requests):
                    edges = self._edges(step * self.batch, self.batch)
                    self.facts.extend(edges)
                    result = self._request(
                        conn,
                        "POST",
                        f"/v1/sessions/{self.session_id}/facts",
                        {"facts": edges},
                    )
                    if result["status"] != "complete":
                        raise RuntimeError(
                            f"increment did not complete: {result}"
                        )
            finally:
                conn.close()
        except Exception as error:  # noqa: BLE001 - surfaced by the driver
            self.error = error


def _percentile(sorted_values, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _check_equivalence(handle, client) -> dict:
    """Session state vs a cold oblivious chase of the accumulated facts."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        conn.request("GET", f"/v1/sessions/{client.session_id}/atoms")
        response = conn.getresponse()
        data = json.loads(response.read())
    finally:
        conn.close()
    tgds = parse_tgds(list(SERVICE_TGD_TEXTS))
    cold = oblivious_chase(
        Instance(parse_atoms(client.facts, data=True)), tgds, prune=False
    )
    if not cold.terminated:
        raise RuntimeError("cold reference chase was cut off")
    cold_atoms = [repr(atom) for atom in cold.instance.sorted_atoms()]
    return {
        "session": client.session_id,
        "facts": len(client.facts),
        "atoms": len(cold_atoms),
        "atoms_identical": data["atoms"] == cold_atoms,
        "applications_match": data["applications"] == cold.applications,
    }


def _check_warm_cache(handle) -> dict:
    """Two analyze calls; the second must be a pure cache answer."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        payload = json.dumps({"tgds": list(ANALYZE_TGD_TEXTS)})
        results = []
        for _ in range(2):
            conn.request("POST", "/v1/analyze", body=payload)
            response = conn.getresponse()
            results.append(json.loads(response.read()))
    finally:
        conn.close()
    first, second = results
    stages = [entry["stage"] for entry in second["portfolio"]]
    return {
        "first_cached": first["cached"],
        "second_cached": second["cached"],
        "second_stages": stages,
        "verdicts_agree": first["verdict"] == second["verdict"],
        # THE acceptance assertion: a warm hit's trail is exactly one
        # cache stage — no decider (or any other stage) ever ran.
        "hit_no_decider": second["cached"] and stages == ["cache"],
    }


def measure_service(clients: int, requests: int, batch: int) -> dict:
    """The ``service`` section of ``BENCH_chase.json``."""
    from repro.service.http import start_in_process

    handle = start_in_process(default_wall_seconds=60.0)
    try:
        runners = [
            _Client(handle.host, handle.port, f"c{k}", requests, batch)
            for k in range(clients)
        ]
        threads = [
            threading.Thread(target=runner.run, name=runner.name)
            for runner in runners
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        for runner in runners:
            if runner.error is not None:
                raise RuntimeError(f"client {runner.name} failed") from runner.error

        latencies = sorted(
            latency for runner in runners for latency in runner.latencies
        )
        total_requests = len(latencies)
        equivalences = [_check_equivalence(handle, runner) for runner in runners]
        warm = _check_warm_cache(handle)
        stats = handle.service.stats
        problems = stats.validate()
        if problems:
            raise RuntimeError(f"service stats failed validation: {problems}")
        return {
            "workload": "service_sessions",
            "clients": clients,
            "requests": total_requests,
            "requests_per_sec": round(total_requests / wall, 1),
            "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
            "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
            "wall_seconds": round(wall, 6),
            "batch": batch,
            "equivalence": all(
                row["atoms_identical"] and row["applications_match"]
                for row in equivalences
            ),
            "equivalence_rows": equivalences,
            "warm_cache_hit_no_decider": warm["hit_no_decider"],
            "warm_cache": warm,
            "cpu_count": os.cpu_count() or 1,
            "stats": stats.as_dict(),
        }
    finally:
        handle.close()


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    clients, requests, batch = (4, 6, 8) if quick else (8, 10, 16)
    section = measure_service(clients, requests, batch)
    print(
        f"service: {section['requests']} requests from {section['clients']} "
        f"clients -> {section['requests_per_sec']} req/s "
        f"(p50 {section['p50_ms']}ms, p99 {section['p99_ms']}ms)"
    )
    print(
        f"equivalence={'ok' if section['equivalence'] else 'FAIL'} "
        f"warm_cache_hit_no_decider="
        f"{'ok' if section['warm_cache_hit_no_decider'] else 'FAIL'}"
    )
    return 0 if section["equivalence"] and section["warm_cache_hit_no_decider"] else 1


if __name__ == "__main__":
    sys.exit(main())
