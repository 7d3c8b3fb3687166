"""Checkpoint/resume overhead on the join-heavy chase workload.

Fault tolerance must be close to free: a chase that is interrupted once at
mid-run — checkpoint captured, pickled, unpickled, engine restored, run
resumed to completion — must land within ``CHECKPOINT_OVERHEAD_THRESHOLD``
(≤ 10% overhead) of the uninterrupted cold run, with a byte-identical
final instance and derivation.  The checkpoint stays cheap because it
ships only the canonical chase state (atoms in insertion order, the
worklist as trigger rows, the derivation log); witnesses and term-position
indexes are rebuilt on restore as pure functions of that state.

The workload is ``bench_parallel``'s join-heavy digraph: most of the work
sits *after* the mid-run cut (the wide join-discovery pass), so the
measured ratio exposes restore costs rather than hiding them behind a
finished run.

Run under pytest-benchmark via ``make bench-exhibits``, or let
``benchmarks/harness.py`` fold the produce/restore timings into
``BENCH_chase.json`` (gated by ``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import pickle
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # allow direct imports when run by pytest/harness
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.chase.checkpoint import Budget
from repro.chase.restricted import seminaive_chase
from repro.errors import ChaseInterrupted
from repro.obs import trace

from bench_parallel import join_database, parallel_tgds

#: Acceptance threshold: (interrupt + pickle + restore + resume) total wall
#: time over the uninterrupted cold run, at the largest measured size.
CHECKPOINT_OVERHEAD_THRESHOLD = 1.10

#: Parsed once: rule parsing is workload *construction*, not chase time.
TGDS = parallel_tgds()


def run_cold(database, max_steps: int = 1_000_000):
    return seminaive_chase(database, TGDS, max_steps=max_steps)


def interrupt_at(database, rounds: int, max_steps: int = 1_000_000) -> bytes:
    """Run until ``rounds`` rounds complete; return the pickled checkpoint."""
    budget = Budget(max_rounds=rounds)
    try:
        seminaive_chase(database, TGDS, max_steps=max_steps, budget=budget)
    except ChaseInterrupted as interrupted:
        return pickle.dumps(interrupted.checkpoint)
    raise RuntimeError(f"chase terminated before the round-{rounds} cut")


def resume_from(blob: bytes, max_steps: int = 1_000_000):
    return seminaive_chase(None, TGDS, max_steps=max_steps, resume=pickle.loads(blob))


def run_interrupted(database, rounds: int, max_steps: int = 1_000_000):
    """One full interrupted run: chase → cut → pickle → restore → finish."""
    return resume_from(interrupt_at(database, rounds, max_steps), max_steps)


def measure(n: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` cold vs interrupted timings plus stage costs.

    Cold and interrupted runs are *interleaved* (cold, cut+resume, cold,
    …): the measured overhead sits in single-digit percent, so letting
    scheduler or thermal drift land on only one side of the ratio would
    dominate the signal.

    Tracing is suspended around the timed runs (the resumed side executes
    more instrumented rounds than cold, so span emission would bias the
    ratio); a ``--trace`` harness run gets its ``checkpoint.capture`` /
    ``checkpoint.restore`` spans from one extra untimed run instead.
    """
    database = join_database(n)
    mid = max(1, run_cold(database).rounds // 2)
    cold_s = resumed_s = produce_s = restore_s = float("inf")
    cold = resumed = None
    blob = b""
    with trace.suspended():
        for _ in range(repeats):
            start = time.perf_counter()
            cold = run_cold(database)
            cold_s = min(cold_s, time.perf_counter() - start)
            start = time.perf_counter()
            blob = interrupt_at(database, mid)
            cut = time.perf_counter()
            resumed = resume_from(blob)
            done = time.perf_counter()
            produce_s = min(produce_s, cut - start)
            restore_s = min(restore_s, done - cut)
            resumed_s = min(resumed_s, done - start)
    if trace.tracing():
        run_interrupted(database, mid)
    return {
        "workload": "checkpoint_join",
        "size": n,
        "cut_round": mid,
        "total_rounds": cold.rounds,
        "cold_seconds": round(cold_s, 6),
        "resumed_seconds": round(resumed_s, 6),
        "produce_seconds": round(produce_s, 6),
        "restore_seconds": round(restore_s, 6),
        "checkpoint_bytes": len(blob),
        "overhead_ratio": round(resumed_s / cold_s, 3),
        "identical_instances": cold.instance == resumed.instance
        and list(cold.instance) == list(resumed.instance),
        "identical_derivations": [t.key for t in cold.derivation.steps]
        == [t.key for t in resumed.derivation.steps],
    }


def test_resume_is_byte_identical():
    database = join_database(24)
    cold = run_cold(database)
    resumed = run_interrupted(database, max(1, cold.rounds // 2))
    assert cold.terminated and resumed.terminated
    assert cold.steps == resumed.steps and cold.rounds == resumed.rounds
    assert list(cold.instance) == list(resumed.instance)
    assert [t.key for t in cold.derivation.steps] == [
        t.key for t in resumed.derivation.steps
    ]


def test_bench_cold_run(benchmark):
    database = join_database(32)
    result = benchmark(run_cold, database)
    assert result.terminated


def test_bench_interrupted_run(benchmark):
    database = join_database(32)
    mid = max(1, run_cold(database).rounds // 2)
    result = benchmark(run_interrupted, database, mid)
    assert result.terminated


def test_checkpoint_overhead_gate():
    """The ≤10% acceptance gate (best-of-3, like the harness)."""
    row = measure(48)
    print(
        f"\n[checkpoint_join n=48] cold {row['cold_seconds']:.4f}s  "
        f"resumed {row['resumed_seconds']:.4f}s  "
        f"({row['checkpoint_bytes']} bytes at round "
        f"{row['cut_round']}/{row['total_rounds']})  "
        f"overhead {row['overhead_ratio']:.3f}x"
    )
    assert row["identical_instances"] and row["identical_derivations"]
    assert row["overhead_ratio"] <= CHECKPOINT_OVERHEAD_THRESHOLD
