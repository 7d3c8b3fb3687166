"""Checkpoint/resume overhead on the join-heavy chase workload.

Fault tolerance must be close to free: a chase that is interrupted once at
mid-run — checkpoint captured, pickled, unpickled, engine restored, run
resumed to completion — must land within ``CHECKPOINT_OVERHEAD_THRESHOLD``
(≤ 10% overhead) of the uninterrupted cold run, with a byte-identical
final instance and derivation.  The checkpoint stays cheap because it
ships only the canonical chase state (atoms in insertion order, the
worklist as trigger rows, the derivation log); witnesses and term-position
indexes are rebuilt on restore as pure functions of that state.

The workload is a join-heavy digraph: a copy rule feeds an ``n``-node
pseudo-random digraph into a derived predicate, and cycle-closing join
rules (triangles and 4-cycles over the derived edges) make the next
round's discovery pass the dominant cost.  Most of the work therefore
sits *after* the mid-run cut, so the measured ratio exposes restore costs
rather than hiding them behind a finished run.

Run under pytest-benchmark via ``make bench-exhibits``, or let
``benchmarks/harness.py`` fold the produce/restore timings into
``BENCH_chase.json`` (gated by ``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import gc
import pickle
import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # allow direct imports when run by pytest/harness
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant
from repro.chase.checkpoint import Budget
from repro.chase.restricted import seminaive_chase
from repro.errors import ChaseInterrupted
from repro.obs import trace
from repro.tgds.tgd import parse_tgds

from bench_obs import iqr

#: Acceptance threshold: (interrupt + pickle + restore + resume) total wall
#: time over the uninterrupted cold run, at the largest measured size.
CHECKPOINT_OVERHEAD_THRESHOLD = 1.10

#: Out-degree of the pseudo-random digraph (edges per node).
DEGREE = 8

#: One copy rule plus two cycle-closing join rules over derived edges: the
#: joins only become discoverable when the copy round's delta lands.
#: Parsed once: rule parsing is workload *construction*, not chase time.
TGDS = parse_tgds(
    [
        "E(x,y) -> F(x,y)",
        "F(x,y), F(y,z), F(z,x) -> T(x,y,z)",
        "F(x,y), F(y,z), F(z,w), F(w,x) -> Q(x,y,z,w)",
    ]
)


def join_database(n: int, degree: int = DEGREE) -> Database:
    """An ``n``-node digraph with ``degree`` deterministic out-edges per node.

    The edge formula scatters targets without an RNG (runs must be
    reproducible byte for byte); self-loops are skipped so cycle counts
    stay join-driven rather than loop-driven.
    """
    atoms = []
    for i in range(n):
        for k in range(1, degree + 1):
            j = (i * k + k * k + k) % n
            if j != i:
                atoms.append(Atom("E", [Constant(f"c{i}"), Constant(f"c{j}")]))
    return Database(atoms)


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


def _timed_cold(database):
    """One cold run, GC-levelled like ``bench_obs._timed``."""
    gc.collect()
    start = time.perf_counter()
    result = run_cold(database)
    return time.perf_counter() - start, result


def _timed_interrupted(database, rounds: int):
    """One interrupted run, GC-levelled: ``(produce_s, restore_s, blob,
    result)``, the cut (chase, capture, pickle) and the resume (unpickle,
    restore, finish) timed apart."""
    gc.collect()
    start = time.perf_counter()
    blob = interrupt_at(database, rounds)
    cut = time.perf_counter()
    result = resume_from(blob)
    return cut - start, time.perf_counter() - cut, blob, result


def measure(n: int, repeats: int = 9) -> dict:
    """Cold vs interrupted timings as a median of *paired* ratios.

    Each repeat times one cold run and one interrupted run (cut, pickle,
    restore, resume) back-to-back, so the pair shares whatever scheduler
    or frequency drift the host is under; ``overhead_ratio`` is the median
    of the per-pair ``resumed / cold`` ratios, the way ``bench_obs.measure``
    reads the telemetry gate, with ``overhead_iqr`` (the ratios'
    interquartile range) and ``pairs`` recorded next to it.  Within-pair
    order alternates every repeat, and each run is preceded by a
    ``gc.collect()``.  ``cold_seconds``, ``resumed_seconds`` and the stage
    costs stay the best-of wall times for trajectory plots.

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
    ratios = []
    with trace.suspended():
        for i in range(repeats):
            if i % 2 == 0:
                pair_cold, cold = _timed_cold(database)
                produce, restore, blob, resumed = _timed_interrupted(database, mid)
            else:
                produce, restore, blob, resumed = _timed_interrupted(database, mid)
                pair_cold, cold = _timed_cold(database)
            cold_s = min(cold_s, pair_cold)
            produce_s = min(produce_s, produce)
            restore_s = min(restore_s, restore)
            resumed_s = min(resumed_s, produce + restore)
            ratios.append((produce + restore) / pair_cold)
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
        "overhead_ratio": round(statistics.median(ratios), 3),
        "overhead_iqr": round(iqr(ratios), 3),
        "pairs": len(ratios),
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
    """The ≤10% acceptance gate (median of paired ratios, like the harness)."""
    row = measure(48)
    print(
        f"\n[checkpoint_join n=48] cold {row['cold_seconds']:.4f}s  "
        f"resumed {row['resumed_seconds']:.4f}s  "
        f"({row['checkpoint_bytes']} bytes at round "
        f"{row['cut_round']}/{row['total_rounds']})  "
        f"overhead {row['overhead_ratio']:.3f}x "
        f"(IQR {row['overhead_iqr']} over {row['pairs']} pairs)"
    )
    assert row["identical_instances"] and row["identical_derivations"]
    assert row["overhead_ratio"] <= CHECKPOINT_OVERHEAD_THRESHOLD
