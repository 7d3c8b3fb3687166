"""Machine-readable chase benchmark harness.

Runs the chase-cost kernels (the ablation-engine chain workload and the
X11 "smaller instances at a cost per step" workload) with both the indexed
incremental engine (``restricted_chase`` on the shared ``ChaseEngine``)
and the naive baseline (``restricted_chase_naive``: full active-trigger
re-enumeration and head scans per step), checks that the two produce
atom-for-atom identical results, and writes ``BENCH_chase.json`` so the
perf trajectory is machine-readable from PR 1 onward.

Since PR 3 the harness also times the ``seminaive_dense`` workload
(``bench_seminaive.py``): semi-naive set-at-a-time rounds against the
step-at-a-time engine, gated at ≥2× with byte-identical instances.

Every report row records the host CPU count so trajectory comparisons
stay apples-to-apples.

Since PR 6 it also times the ``checkpoint_join`` workload
(``bench_checkpoint.py``): an interrupt-at-mid → pickle → restore → resume
run against the uninterrupted cold run, gated at ≤1.1× total overhead with
byte-identical instances and derivations.

Since PR 7 it also times the ``obs_dense`` workload (``bench_obs.py``):
a stats-on run (a ``ChaseStats`` sink attached) against the plain run,
gated at ≤1.05× overhead with byte-identical instances; the semi-naive
and obs report rows additionally embed a ``stats`` dict (rounds, trigger
accounting, cache hit rate — see
``repro.obs.stats.BENCH_STATS_FIELDS``) collected by one extra untimed
run, and ``--trace PATH`` records the whole bench session as a Chrome
trace (``PYTHONPATH=src python -m repro.obs.report`` prints
the per-workload stats summary).

Since PR 8 it also runs the ``portfolio_cascade`` workload
(``bench_portfolio.py``): the cheap-first termination portfolio against
the decider-only ``decide`` over the generator corpus, gated on verdict
agreement (equivalence), a ≥50% settled-without-automata floor, and a
strictly-faster-than-decider-only floor on the settled subset.

Since PR 9 it also runs the ``service_sessions`` workload
(``bench_service.py``): the chase service under closed-loop HTTP load —
requests/sec and p50/p99 latency — gated on two equivalence bits: every
session's incremental state byte-identical (atoms *and* application
counts) to a cold chase of its accumulated facts, and a warm
verdict-cache hit answering without invoking any portfolio stage.

Since PR 10 it also runs the ``persistent_closure`` workload
(``bench_persistent.py``): the disk-backed sqlite instance backend
against the memory backend — byte-identity on a gate-sized corpus plus
canonical digests of the big closure, and an RSS-capped subprocess pair
(``resource.setrlimit``) where the memory backend must exhaust the cap
while the sqlite backend completes the identical closure beyond the
in-memory high-water mark.

It also counts ``gc_tracked_per_chase``: the GC-tracked objects one
``seminaive_dense`` chase at n=32 leaves alive, result held (a
``gc.get_objects()`` diff with the collector off), recorded with the
interpreter's ``major.minor`` version.  Unlike the timed ratios the count
is deterministic, so ``check_regression.py`` gates it against the count
it accepts for that version.

It also times the sticky decider (the ``sticky_decider`` section):
``decide_sticky`` on a diverging arity-6 set and a terminating one, with
wall time, the automaton states the decision explored and the verdict.
The section is a trajectory record, not a gate.

It also records the text layer (the ``parse`` row): atoms/s on the
service's 8-fact request shape, parsed as a facts payload is, and rules/s
parsing every rule of the generator corpus back into a TGD.  The row is a
trajectory record, not a gate.

``benchmarks/check_regression.py`` turns the written report into a CI
gate; see ``docs/CI.md``.

Usage::

    PYTHONPATH=src python benchmarks/harness.py            # full mode
    PYTHONPATH=src python benchmarks/harness.py --quick    # smaller sizes
    PYTHONPATH=src python benchmarks/harness.py --out PATH
    PYTHONPATH=src python benchmarks/harness.py --trace trace.json

or ``make bench`` / ``make bench-quick`` from the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from functools import partial
from pathlib import Path

if __package__ in (None, ""):  # allow `python benchmarks/harness.py`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# The workload definitions live next door; make them importable in script
# mode *and* module mode (`python -m benchmarks.harness`).
_BENCH_DIR = str(Path(__file__).resolve().parent)
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.parsing import parse_atoms
from repro.core.terms import Constant
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase, restricted_chase_naive
from repro.obs import trace
from repro.obs.stats import ChaseStats, bench_stats_row
from repro.sticky.automaton import CaterpillarAutomatonFamily
from repro.sticky.decision import decide_sticky
from repro.tgds.generators import corpus
from repro.tgds.tgd import TGD, parse_tgds

from bench_checkpoint import (
    CHECKPOINT_OVERHEAD_THRESHOLD,
    measure as measure_checkpoint,
)
from bench_obs import (
    OBS_OVERHEAD_THRESHOLD,
    iqr,
    measure as measure_obs,
)
from bench_portfolio import (
    PORTFOLIO_SETTLED_FLOOR,
    PORTFOLIO_SPEEDUP_FLOOR,
    measure_portfolio,
)
from bench_seminaive import (
    SEMINAIVE_SPEEDUP_THRESHOLD,
    dense_database,
    dense_tgds,
)
from bench_persistent import measure_persistent
from bench_service import measure_service

#: The weakly-acyclic chain rules shared by both kernels.
TGDS = parse_tgds(
    [
        "E(x,y) -> F(x,y)",
        "F(x,y) -> G(y,w)",
        "G(x,y) -> H(x)",
    ]
)

SPEEDUP_THRESHOLD = 5.0


def chain_database(n: int) -> Database:
    """The ablation-engine workload: a bare E-chain."""
    return Database(
        Atom("E", [Constant(f"c{i}"), Constant(f"c{i + 1}")]) for i in range(n)
    )


def x11_database(n: int) -> Database:
    """The X11 workload: an E-chain plus reflexive G-facts.

    The G-facts already witness ``F(x,y) → ∃w G(y,w)``, so the restricted
    chase skips those triggers while the oblivious chase materializes one
    redundant null per edge — §1's size gap, paid for by activity checks.
    """
    atoms = [Atom("E", [Constant(f"c{i}"), Constant(f"c{i + 1}")]) for i in range(n)]
    atoms += [Atom("G", [Constant(f"c{i}"), Constant(f"c{i}")]) for i in range(n + 1)]
    return Database(atoms)


def _time(fn, *args, repeats: int, **kwargs):
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def _collect_stats(fn, *args, **kwargs) -> dict:
    """One extra *untimed* run with a ChaseStats sink; returns the compact
    stats dict the report rows embed.  Kept out of the timed runs so the
    measured ratios stay those of the shipping (stats-free) configuration;
    the telemetry cost itself is gated separately by the obs_dense rows."""
    result = fn(*args, stats=ChaseStats(), **kwargs)
    return bench_stats_row(result.stats)


def run_kernel(workload: str, make_db, sizes, repeats: int, max_steps: int = 1_000_000):
    """Time indexed vs naive restricted chase; verify identical instances."""
    rows = []
    speedups = []
    for n in sizes:
        db = make_db(n)
        indexed_s, indexed = _time(
            restricted_chase, db, TGDS, max_steps=max_steps, repeats=repeats
        )
        naive_s, naive = _time(
            restricted_chase_naive, db, TGDS, max_steps=max_steps, repeats=repeats
        )
        if not (indexed.terminated and naive.terminated):
            raise RuntimeError(f"{workload} n={n}: a run was cut off")
        equivalent = indexed.instance == naive.instance
        for engine, seconds, result in (
            ("indexed", indexed_s, indexed),
            ("naive", naive_s, naive),
        ):
            rows.append(
                {
                    "workload": workload,
                    "size": n,
                    "engine": engine,
                    "seconds": round(seconds, 6),
                    "steps": result.steps,
                    "atoms": len(result.instance),
                    "atoms_per_sec": round(len(result.instance) / seconds, 1),
                }
            )
        speedups.append(
            {
                "workload": workload,
                "size": n,
                "indexed_seconds": round(indexed_s, 6),
                "naive_seconds": round(naive_s, 6),
                "speedup": round(naive_s / indexed_s, 2),
                "identical_instances": equivalent,
            }
        )
    return rows, speedups


def _time_pairs(first, second, repeats: int):
    """``repeats`` back-to-back runs of ``first`` and ``second``.

    Within-pair order alternates every repeat and each run is preceded by
    a ``gc.collect()``, as in ``bench_obs.measure``: a pair shares
    whatever frequency or scheduler drift the host is under, so the ratio
    of its two times is steadier than a ratio of independent best-ofs.
    Returns ``(first best, second best, first/second ratio per pair, last
    first result, last second result)``.
    """
    first_s = second_s = float("inf")
    ratios = []
    for i in range(repeats):
        order = (first, second) if i % 2 == 0 else (second, first)
        seconds = {}
        results = {}
        for fn in order:
            gc.collect()
            start = time.perf_counter()
            results[fn] = fn()
            seconds[fn] = time.perf_counter() - start
        first_s = min(first_s, seconds[first])
        second_s = min(second_s, seconds[second])
        ratios.append(seconds[first] / seconds[second])
    return first_s, second_s, ratios, results[first], results[second]


def run_seminaive_kernel(sizes, repeats: int, max_steps: int = 1_000_000):
    """Time step-at-a-time vs semi-naive rounds on the dense workload.

    Both run the indexed engine; the semi-naive mode must be ≥2× at the
    largest size with byte-identical instances *and* derivations.  The
    speedup is the median of ``repeats`` paired ratios (:func:`_time_pairs`,
    step over semi-naive) and the row records their interquartile range;
    the seconds are the best-of times.

    Both sides run with dependency pruning off: the workload's distractor
    rules exist precisely so per-atom discovery has to consider them while
    the delta-restricted pass skips them by predicate — the static prune
    (``repro.termination.dependencies``) would remove them for *both*
    engines and turn this into a different (much easier) workload.
    """
    tgds = dense_tgds()
    rows = []
    speedups = []
    for n in sizes:
        db = dense_database(n)
        chase = partial(restricted_chase, db, tgds, max_steps=max_steps, prune=False)
        step_s, semi_s, ratios, step, semi = _time_pairs(
            partial(chase, strategy="fifo"), partial(chase, strategy="semi_naive"), repeats
        )
        if not (step.terminated and semi.terminated):
            raise RuntimeError(f"seminaive_dense n={n}: a run was cut off")
        identical_instances = step.instance == semi.instance
        identical_derivations = [t.key for t in step.derivation.steps] == [
            t.key for t in semi.derivation.steps
        ]
        for engine, seconds, result in (
            ("step_at_a_time", step_s, step),
            ("semi_naive", semi_s, semi),
        ):
            rows.append(
                {
                    "workload": "seminaive_dense",
                    "size": n,
                    "engine": engine,
                    "seconds": round(seconds, 6),
                    "steps": result.steps,
                    "atoms": len(result.instance),
                    "atoms_per_sec": round(len(result.instance) / seconds, 1),
                }
            )
        speedups.append(
            {
                "workload": "seminaive_dense",
                "size": n,
                "baseline": "step_at_a_time",
                "step_seconds": round(step_s, 6),
                "seminaive_seconds": round(semi_s, 6),
                "speedup": round(statistics.median(ratios), 2),
                "speedup_iqr": round(iqr(ratios), 3),
                "pairs": len(ratios),
                "identical_instances": identical_instances,
                "identical_derivations": identical_derivations,
                "stats": _collect_stats(
                    restricted_chase, db, tgds, strategy="semi_naive",
                    max_steps=max_steps,
                ),
            }
        )
    return rows, speedups


#: The ``seminaive_dense`` size the allocation count is taken at.
GC_TRACKED_SIZE = 32


def measure_gc_tracked(n: int = GC_TRACKED_SIZE) -> int:
    """GC-tracked objects alive after one ``seminaive_dense`` chase at ``n``.

    A warm-up chase first fills the process-wide caches (compiled plans
    and head kernels, interned terms), so the count is what one chase
    itself leaves alive: its result — instance, indexes, derivation — and
    whatever it left for the cyclic collector, which is off meanwhile.
    """
    tgds = dense_tgds()
    database = dense_database(n)

    def chase():
        return restricted_chase(
            database, tgds, strategy="semi_naive", max_steps=1_000_000, prune=False
        )

    warm = chase()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = chase()
        after = len(gc.get_objects())
    finally:
        if enabled:
            gc.enable()
    if not (warm.terminated and result.terminated):
        raise RuntimeError(f"seminaive_dense n={n}: a run was cut off")
    return after - before


def run_checkpoint_kernel(sizes, repeats: int):
    """Checkpoint/resume overhead rows (``bench_checkpoint.py``).

    Each row times an uninterrupted cold run against an interrupt-at-mid →
    pickle → restore → resume run of the join-heavy workload; the resumed
    total must stay within ``CHECKPOINT_OVERHEAD_THRESHOLD`` of cold at the
    largest size, byte-identical instances and derivations throughout.
    """
    return [measure_checkpoint(n, repeats=repeats) for n in sizes]


def run_obs_kernel(sizes, repeats: int):
    """Telemetry overhead rows (``bench_obs.py``).

    Each row times the plain (no stats) run against a stats-on run (a
    ``ChaseStats`` sink attached) of the dense semi-naive workload; the
    stats-on run must stay within ``OBS_OVERHEAD_THRESHOLD`` of plain at
    the largest size, with a byte-identical instance and derivation.
    """
    return [measure_obs(n, repeats=repeats) for n in sizes]


def run_oblivious(sizes, repeats: int):
    """The oblivious side of the X11 exhibit (indexed engine only)."""
    rows = []
    for n in sizes:
        db = x11_database(n)
        seconds, result = _time(oblivious_chase, db, TGDS, repeats=repeats)
        if not result.terminated:
            raise RuntimeError(f"x11 oblivious n={n} was cut off")
        rows.append(
            {
                "workload": "x11_chase_cost",
                "size": n,
                "engine": "oblivious",
                "seconds": round(seconds, 6),
                "steps": result.applications,
                "atoms": len(result.instance),
                "atoms_per_sec": round(len(result.instance) / seconds, 1),
            }
        )
    return rows


def _shift_rules(arity: int) -> list:
    """``R(x̄) → ∃z R(x̄'z)``, ``R(x̄) → ∃z S(x̄'z)``, ``S(x̄) → ∃z R(x̄'z)``,
    x̄' being x̄ shifted by one: diverging."""
    args = ",".join(f"x{i}" for i in range(arity))
    shifted = ",".join(f"x{i}" for i in range(1, arity)) + ",z"
    return [
        f"R({args}) -> R({shifted})",
        f"R({args}) -> S({shifted})",
        f"S({args}) -> R({shifted})",
    ]


#: The ``sticky_decider`` sets: name -> rules.  The terminating one is the
#: paper's introductory rule widened to arity 6 (every new atom keeps the
#: first five terms, so its predecessor always stops it).
STICKY_DECIDER_SETS = {
    "shift-6 (diverging)": _shift_rules(6),
    "keep-prefix-6 (terminating)": ["R(x1,x2,x3,x4,x5,x6) -> R(x1,x2,x3,x4,x5,z)"],
}


def _explored_states(tgds) -> int:
    """States the decision's emptiness search explores: every component up
    to and including the first that accepts."""
    family = CaterpillarAutomatonFamily(tgds)
    total = 0
    for etype, pi0 in family.start_pairs():
        automaton = family.component(etype, pi0)
        total += len(automaton.explore())
        if automaton.find_lasso() is not None:
            break
    return total


def measure_sticky_decider(repeats: int) -> list:
    """The ``sticky_decider`` rows: best-of-``repeats`` ``decide_sticky``."""
    rows = []
    for name, rules in STICKY_DECIDER_SETS.items():
        tgds = parse_tgds(rules)
        seconds, verdict = _time(decide_sticky, tgds, repeats=repeats)
        rows.append(
            {
                "workload": "sticky_decider",
                "set": name,
                "seconds": round(seconds, 6),
                "explored_states": _explored_states(tgds),
                "status": verdict.status,
                "method": verdict.method,
            }
        )
    return rows


#: One ``service_mixed`` facts post: 8 chain edges, as a list of strings.
PARSE_FACTS = [f"E(s123456789_{i},s123456789_{i + 1})" for i in range(8)]
#: Facts posts parsed per timed run of the ``parse`` row.
PARSE_LOOPS = 500
#: Sets per generator family in the ``parse`` row's rule corpus.
PARSE_SETS_PER_FAMILY = 25


def measure_parse(repeats: int) -> dict:
    """The ``parse`` row: best-of-``repeats`` text-layer throughput.

    ``atoms_per_sec`` parses :data:`PARSE_FACTS` the way a facts payload
    is parsed (``parse_atoms(..., data=True)`` over a list of atom
    strings); nothing keeps the parsed atoms, so every run interns its
    constants afresh, as a request of new edges does.  ``rules_per_sec``
    parses every rule of the generator corpus, written as
    ``body -> head``, into a :class:`TGD` (what a ``tgds`` payload costs).
    """
    rules = [
        ", ".join(map(repr, tgd.body)) + " -> " + repr(tgd.head)
        for family in ("linear", "guarded", "sticky", "weakly-acyclic")
        for tgds in corpus(family, PARSE_SETS_PER_FAMILY)
        for tgd in tgds
    ]

    def parse_facts():
        for _ in range(PARSE_LOOPS):
            parse_atoms(PARSE_FACTS, data=True)

    def parse_rules():
        for text in rules:
            TGD.parse(text)

    facts_s, _ = _time(parse_facts, repeats=repeats)
    rules_s, _ = _time(parse_rules, repeats=repeats)
    return {
        "workload": "parse",
        "request_atoms": len(PARSE_FACTS),
        "atoms_per_sec": round(PARSE_LOOPS * len(PARSE_FACTS) / facts_s),
        "corpus_rules": len(rules),
        "rules_per_sec": round(len(rules) / rules_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller sizes, fewer repeats")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_chase.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record the whole bench session as a Chrome trace-event JSON "
        "file (loadable in chrome://tracing / Perfetto)",
    )
    args = parser.parse_args(argv)

    if args.trace:
        trace.start_trace(args.trace)

    if args.quick:
        sizes, repeats = (8, 16, 32), 2
        # The semi-naive gate is defined at n >= 64, so its ladder always
        # reaches 64 even in quick mode; its chases are short, and the
        # median of 9 alternating pairs keeps the ratio out of
        # scheduler-noise territory.
        seminaive_sizes, seminaive_repeats = (32, 64), 9
        # The checkpoint gate is a single-digit-percent ratio: the median
        # of 9 paired cold/interrupted ratios (order alternating within
        # the pair), like the telemetry gate.
        checkpoint_sizes, checkpoint_repeats = (32, 48), 9
        # The ≤1.05x telemetry gate is tighter still: median of 9 paired
        # ratios (order alternating within the pair), gated at n=128 where
        # runs are long enough that blips stay inside the headroom.
        obs_sizes, obs_repeats = (64, 128), 9
        # The portfolio gate is a corpus-wide fraction plus a summed-time
        # ratio, both stable at a smaller corpus.
        portfolio_per_family, portfolio_repeats = (4, 2)
        # The service gates are equivalence bits, not ratios — a small
        # load (clients, requests/client, edges/request) suffices.
        service_clients, service_requests, service_batch = (4, 6, 8)
        # The persistent gates are also equivalence/capability bits; the
        # quick workload still clears the capped-subprocess calibration.
        persistent_width, persistent_depth = (1500, 40)
    else:
        sizes, repeats = (8, 16, 32, 64), 3
        seminaive_sizes, seminaive_repeats = (16, 32, 64), 9
        checkpoint_sizes, checkpoint_repeats = (24, 32, 48), 9
        obs_sizes, obs_repeats = (64, 128), 9
        portfolio_per_family, portfolio_repeats = (6, 3)
        service_clients, service_requests, service_batch = (8, 10, 16)
        persistent_width, persistent_depth = (3000, 60)

    results = []
    speedups = []
    for workload, make_db in (
        ("ablation_engine", chain_database),
        ("x11_chase_cost", x11_database),
    ):
        rows, ups = run_kernel(workload, make_db, sizes, repeats)
        results.extend(rows)
        speedups.extend(ups)
    results.extend(run_oblivious(sizes, repeats))
    seminaive_rows, seminaive_speedups = run_seminaive_kernel(
        seminaive_sizes, seminaive_repeats
    )
    results.extend(seminaive_rows)
    checkpoint_overheads = run_checkpoint_kernel(checkpoint_sizes, checkpoint_repeats)
    obs_overheads = run_obs_kernel(obs_sizes, obs_repeats)
    portfolio_section = measure_portfolio(
        portfolio_per_family, portfolio_repeats
    )
    service_section = measure_service(
        service_clients, service_requests, service_batch
    )
    persistent_section = measure_persistent(persistent_width, persistent_depth)
    sticky_decider_rows = measure_sticky_decider(repeats)
    parse_row = measure_parse(max(repeats, 5))
    gc_tracked_per_chase = measure_gc_tracked()

    # CPU provenance on every entry, so trajectory diffs never compare
    # across host sizes unknowingly.
    cpus = os.cpu_count() or 1
    for row in results + speedups + seminaive_speedups + checkpoint_overheads + obs_overheads:
        row.setdefault("cpu_count", cpus)

    largest = max(sizes)
    seminaive_largest = max(seminaive_sizes)
    at_largest = [s for s in speedups if s["size"] == largest]
    seminaive_at_largest = [
        s for s in seminaive_speedups if s["size"] == seminaive_largest
    ]
    indexed_pass = all(s["identical_instances"] for s in speedups) and all(
        s["speedup"] >= SPEEDUP_THRESHOLD for s in at_largest
    )
    seminaive_pass = all(
        s["identical_instances"] and s["identical_derivations"]
        for s in seminaive_speedups
    ) and all(
        s["speedup"] >= SEMINAIVE_SPEEDUP_THRESHOLD for s in seminaive_at_largest
    )
    checkpoint_largest = max(checkpoint_sizes)
    checkpoint_at_largest = [
        r for r in checkpoint_overheads if r["size"] == checkpoint_largest
    ]
    checkpoint_pass = all(
        r["identical_instances"] and r["identical_derivations"]
        for r in checkpoint_overheads
    ) and all(
        r["overhead_ratio"] <= CHECKPOINT_OVERHEAD_THRESHOLD
        for r in checkpoint_at_largest
    )
    obs_largest = max(obs_sizes)
    obs_at_largest = [r for r in obs_overheads if r["size"] == obs_largest]
    obs_pass = all(
        r["identical_instances"] and r["identical_derivations"]
        for r in obs_overheads
    ) and all(
        r["overhead_ratio"] <= OBS_OVERHEAD_THRESHOLD for r in obs_at_largest
    )
    portfolio_pass = (
        portfolio_section["agreement"]
        and portfolio_section["settled_fraction"] >= PORTFOLIO_SETTLED_FLOOR
        and portfolio_section["settled_speedup"] > PORTFOLIO_SPEEDUP_FLOOR
    )
    service_pass = (
        service_section["equivalence"]
        and service_section["warm_cache_hit_no_decider"]
    )
    persistent_pass = (
        persistent_section["equivalence"]
        and persistent_section["sqlite_completes_under_cap"]
    )
    verdict = {
        "threshold": SPEEDUP_THRESHOLD,
        "seminaive_threshold": SEMINAIVE_SPEEDUP_THRESHOLD,
        "largest_size": largest,
        "seminaive_largest_size": seminaive_largest,
        "min_speedup_at_largest": min(s["speedup"] for s in at_largest),
        "min_seminaive_speedup_at_largest": min(
            s["speedup"] for s in seminaive_at_largest
        ),
        "checkpoint_overhead_threshold": CHECKPOINT_OVERHEAD_THRESHOLD,
        "checkpoint_largest_size": checkpoint_largest,
        "max_checkpoint_overhead_at_largest": max(
            r["overhead_ratio"] for r in checkpoint_at_largest
        ),
        "obs_overhead_threshold": OBS_OVERHEAD_THRESHOLD,
        "obs_largest_size": obs_largest,
        "max_obs_overhead_at_largest": max(
            r["overhead_ratio"] for r in obs_at_largest
        ),
        "portfolio_settled_floor": PORTFOLIO_SETTLED_FLOOR,
        "portfolio_speedup_floor": PORTFOLIO_SPEEDUP_FLOOR,
        "portfolio_settled_fraction": portfolio_section["settled_fraction"],
        "portfolio_settled_speedup": portfolio_section["settled_speedup"],
        "portfolio_agreement": portfolio_section["agreement"],
        "all_instances_identical": all(
            s["identical_instances"]
            for s in speedups + seminaive_speedups
        ),
        "all_derivations_identical": all(
            s["identical_derivations"] for s in seminaive_speedups
        ),
        "service_equivalence": service_section["equivalence"],
        "service_warm_cache_hit": service_section["warm_cache_hit_no_decider"],
        "service_requests_per_sec": service_section["requests_per_sec"],
        "service_p50_ms": service_section["p50_ms"],
        "service_p99_ms": service_section["p99_ms"],
        "persistent_equivalence": persistent_section["equivalence"],
        "persistent_sqlite_under_cap": persistent_section[
            "sqlite_completes_under_cap"
        ],
        "persistent_memory_oom_under_cap": persistent_section[
            "memory_oom_under_cap"
        ],
        "cpu_count": cpus,
        "pass": indexed_pass
        and seminaive_pass
        and checkpoint_pass
        and obs_pass
        and portfolio_pass
        and service_pass
        and persistent_pass,
    }

    report = {
        "generated_by": "benchmarks/harness.py",
        "mode": "quick" if args.quick else "full",
        "tgds": [repr(t) for t in TGDS],
        "results": results,
        "speedups": speedups,
        "seminaive_speedups": seminaive_speedups,
        "checkpoint_overheads": checkpoint_overheads,
        "obs_overheads": obs_overheads,
        "portfolio": portfolio_section,
        "service": service_section,
        "persistent": persistent_section,
        "sticky_decider": sticky_decider_rows,
        "parse": parse_row,
        "gc_tracked_per_chase": {
            "objects": gc_tracked_per_chase,
            "python": "%d.%d" % sys.version_info[:2],
        },
        "acceptance": verdict,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, ensure_ascii=False) + "\n")
    if args.trace:
        trace.stop_trace()
        print(f"wrote Chrome trace to {args.trace}")

    print(f"wrote {args.out}")
    header = f"{'workload':<16} {'n':>4} {'indexed s':>10} {'naive s':>10} {'speedup':>8}  identical"
    print(header)
    for s in speedups:
        print(
            f"{s['workload']:<16} {s['size']:>4} {s['indexed_seconds']:>10.4f} "
            f"{s['naive_seconds']:>10.4f} {s['speedup']:>7.1f}x  {s['identical_instances']}"
        )
    print(f"{'workload':<16} {'n':>4} {'semi s':>10} {'step s':>10} {'speedup':>8}  identical")
    for s in seminaive_speedups:
        print(
            f"{s['workload']:<16} {s['size']:>4} {s['seminaive_seconds']:>10.4f} "
            f"{s['step_seconds']:>10.4f} {s['speedup']:>7.1f}x  "
            f"{s['identical_instances'] and s['identical_derivations']}"
        )
    print(f"{'workload':<16} {'n':>4} {'cold s':>10} {'resumed s':>10} {'overhead':>8}  identical")
    for r in checkpoint_overheads:
        print(
            f"{r['workload']:<16} {r['size']:>4} {r['cold_seconds']:>10.4f} "
            f"{r['resumed_seconds']:>10.4f} {r['overhead_ratio']:>7.2f}x  "
            f"{r['identical_instances'] and r['identical_derivations']}"
        )
    print(f"{'workload':<16} {'n':>4} {'plain s':>10} {'record s':>10} {'overhead':>8}  identical")
    for r in obs_overheads:
        print(
            f"{r['workload']:<16} {r['size']:>4} {r['plain_seconds']:>10.4f} "
            f"{r['recording_seconds']:>10.4f} {r['overhead_ratio']:>7.2f}x  "
            f"{r['identical_instances'] and r['identical_derivations']}"
        )
    print(
        f"{'portfolio':<16} settled {portfolio_section['settled']}/"
        f"{portfolio_section['total']} "
        f"({portfolio_section['settled_fraction']:.0%}), "
        f"agreement={portfolio_section['agreement']}, settled-subset speedup "
        f"{portfolio_section['settled_speedup']}x, "
        f"stages={portfolio_section['stage_counts']}"
    )
    print(
        f"{'service':<16} {service_section['requests']} requests / "
        f"{service_section['clients']} clients -> "
        f"{service_section['requests_per_sec']} req/s "
        f"(p50 {service_section['p50_ms']}ms, p99 {service_section['p99_ms']}ms), "
        f"equivalence={service_section['equivalence']}, "
        f"warm_cache_hit={service_section['warm_cache_hit_no_decider']}"
    )
    cap_mb = (
        round(persistent_section["cap_bytes"] / (1024 * 1024))
        if persistent_section["cap_bytes"]
        else "?"
    )
    print(
        f"{'persistent':<16} {persistent_section['atoms']} atoms "
        f"(width {persistent_section['width']} x depth "
        f"{persistent_section['depth']}), equivalence="
        f"{persistent_section['equivalence']}, cap {cap_mb}MB -> "
        f"memory_oom={persistent_section['memory_oom_under_cap']}, "
        f"sqlite_completes={persistent_section['sqlite_completes_under_cap']}"
    )
    for r in sticky_decider_rows:
        print(
            f"{'sticky_decider':<16} {r['set']}: {r['seconds']:.4f}s, "
            f"{r['explored_states']} states explored, {r['status']}"
        )
    print(
        f"{'parse':<16} {parse_row['atoms_per_sec']} atoms/s on "
        f"{parse_row['request_atoms']}-fact requests, "
        f"{parse_row['rules_per_sec']} rules/s over "
        f"{parse_row['corpus_rules']} corpus rules"
    )
    print(
        f"{'gc_tracked':<16} {gc_tracked_per_chase} objects alive after one "
        f"seminaive_dense chase at n={GC_TRACKED_SIZE}"
    )
    print(
        f"acceptance: min indexed speedup at n={largest} is "
        f"{verdict['min_speedup_at_largest']}x (threshold {SPEEDUP_THRESHOLD}x), "
        f"min semi-naive speedup is "
        f"{verdict['min_seminaive_speedup_at_largest']}x "
        f"(threshold {SEMINAIVE_SPEEDUP_THRESHOLD}x), "
        f"max checkpoint overhead is "
        f"{verdict['max_checkpoint_overhead_at_largest']}x "
        f"(threshold {CHECKPOINT_OVERHEAD_THRESHOLD}x), "
        f"max telemetry overhead is "
        f"{verdict['max_obs_overhead_at_largest']}x "
        f"(threshold {OBS_OVERHEAD_THRESHOLD}x), "
        f"portfolio settled "
        f"{verdict['portfolio_settled_fraction']:.0%} "
        f"(floor {PORTFOLIO_SETTLED_FLOOR:.0%}) at "
        f"{verdict['portfolio_settled_speedup']}x on the settled subset "
        f"(floor {PORTFOLIO_SPEEDUP_FLOOR}x), "
        f"service equivalence={verdict['service_equivalence']} "
        f"warm_cache_hit={verdict['service_warm_cache_hit']}, "
        f"persistent equivalence={verdict['persistent_equivalence']} "
        f"sqlite_under_cap={verdict['persistent_sqlite_under_cap']} -> "
        f"{'PASS' if verdict['pass'] else 'FAIL'}"
    )
    return 0 if verdict["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
