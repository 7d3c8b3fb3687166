"""CI gate on the bench trajectory recorded in ``BENCH_chase.json``.

Reads the report ``benchmarks/harness.py`` wrote and fails (exit 1) when
the perf floors regress:

* every indexed-engine workload must hold ≥ ``threshold`` (5×) over its
  naive baseline at the largest measured size;
* the semi-naive mode must hold ≥ ``seminaive_threshold`` (2×) over the
  step-at-a-time engine at its largest measured size;
* an interrupt-at-mid → checkpoint → resume run must stay within
  ``checkpoint_overhead_threshold`` (≤1.1×) of the uninterrupted cold run
  at the largest measured size (lower is better, so the noise margin
  loosens this ceiling instead of tightening it);
* a stats-on run (a ``ChaseStats`` sink attached) must stay within
  ``obs_overhead_threshold`` (≤1.05×) of the plain run at the largest
  measured size (same loosening-margin rule) — a report without an
  ``obs_overheads`` section predates the telemetry layer and only earns a
  note;
* the termination portfolio must agree with the decider-only analyzer on
  every corpus set (a contradiction is a soundness bug — treated as an
  equivalence failure, never skippable), settle at least
  ``portfolio_settled_floor`` (50%) of the corpus without launching an
  automata decider, and beat decider-only by more than
  ``portfolio_speedup_floor`` (1×) on the settled subset — a report
  without a ``portfolio`` section predates the cascade and only earns a
  note;
* the chase service's incremental sessions must be byte-identical (atoms
  and application counts) to a cold chase of each session's accumulated
  facts, and a warm verdict-cache hit must answer without invoking any
  portfolio stage — both are equivalence failures (never skippable); a
  report without a ``service`` section predates the service tier and
  only earns a note;
* the ``persistent_closure`` workload's sqlite backend must be
  byte-identical to the memory backend (gate corpus plus canonical
  digests of the big closure — an equivalence failure, never skippable)
  and must complete the closure inside the self-calibrated RSS cap that
  kills the memory backend — a report without a ``persistent`` section
  predates the disk backend and only earns a note;
* every ``stats`` dict embedded in a report row must satisfy the
  telemetry invariants (fired ≤ discovered, hits ≤ lookups, non-negative
  counters) — a violation means the instrumentation itself is buggy, so
  it is treated like an equivalence failure (never skippable); rows
  without a ``stats`` key are fine (older snapshots);
* ``gc_tracked_per_chase`` — the GC-tracked objects one
  ``seminaive_dense`` chase leaves alive — must not grow more than
  ``GC_TRACKED_GROWTH`` (10%) over the accepted count in
  ``GC_TRACKED_ACCEPTED`` for the interpreter the report was measured on.
  The accepted counts live in this file, not in the refreshed report, so
  only an explicit edit here raises them.  The count is deterministic,
  so the noise margin does not scale this ceiling; a report without the
  count, or from an interpreter with no accepted count, only earns a note;
* every engine pair must have produced identical instances (and, where
  recorded, identical derivations) — an equivalence failure is never
  skippable.

Skipping on noisy runners
-------------------------

Shared CI runners can be noisy enough to flake a wall-clock gate.  Two
knobs, both documented in ``docs/CI.md``:

* ``BENCH_GATE_SKIP=1`` (or ``--skip``) — validate the report's shape and
  the instance-equivalence bits, but only *warn* about speedup misses;
* ``BENCH_GATE_MARGIN=0.8`` (or ``--margin 0.8``) — scale the thresholds,
  e.g. accept 4×/1.6× on a runner known to wobble by 20%.

Usage::

    python benchmarks/check_regression.py [--report BENCH_chase.json]
                                          [--skip] [--margin 1.0]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: The accepted ``gc_tracked_per_chase`` objects, per interpreter
#: (``major.minor``) the count was taken on: object layouts differ between
#: CPython versions, so a count only compares with one from the same
#: version.  A change that lowers a count may lower it here; raising one
#: takes an explicit edit of this line, never just a refreshed report.
GC_TRACKED_ACCEPTED = {"3.11": 5213, "3.12": 5213}

#: Allowed growth of ``gc_tracked_per_chase`` over the accepted count.
GC_TRACKED_GROWTH = 1.10


def spread_lines(report: dict) -> list:
    """The paired-ratio gates' readings at their gated size, each with the
    interquartile range and number of pairs it was measured over (rows
    from before those fields were recorded are left out)."""
    lines = []
    for section, workload, ratio, spread in (
        ("seminaive_speedups", "seminaive_dense", "speedup", "speedup_iqr"),
        ("checkpoint_overheads", "checkpoint_join", "overhead_ratio", "overhead_iqr"),
        ("obs_overheads", "obs_dense", "overhead_ratio", "overhead_iqr"),
    ):
        rows = report.get(section) or []
        if rows:
            row = max(rows, key=lambda r: r["size"])
            if "pairs" in row:
                lines.append(
                    f"{workload} n={row['size']}: {row[ratio]}x, IQR "
                    f"{row.get(spread)} over {row['pairs']} pairs"
                )
    return lines


def stats_violations(stats: dict, context: str) -> list:
    """Telemetry-invariant violations in one embedded ``stats`` dict.

    Validates the compact ``BENCH_STATS_FIELDS`` shape the harness embeds.
    Every message is prefixed ``"equivalence:"`` — a stats dict that lies
    about its own accounting means the instrumentation is buggy, which is
    as fatal as a nonidentical instance.  Absent keys are tolerated (older
    snapshots embed fewer fields).
    """
    problems = []

    def field(name, default=0):
        value = stats.get(name, default)
        return default if value is None else value

    if field("triggers_fired") > field("triggers_discovered"):
        problems.append(
            f"equivalence: {context}: stats fired "
            f"({field('triggers_fired')}) exceeds discovered "
            f"({field('triggers_discovered')})"
        )
    if field("cache_hits") > field("cache_lookups"):
        problems.append(
            f"equivalence: {context}: stats cache hits "
            f"({field('cache_hits')}) exceed lookups "
            f"({field('cache_lookups')})"
        )
    rate = stats.get("cache_hit_rate")
    if rate is not None and not (0.0 <= rate <= 1.0):
        problems.append(
            f"equivalence: {context}: stats cache_hit_rate {rate} outside [0, 1]"
        )
    for name in (
        "rounds",
        "triggers_discovered",
        "triggers_fired",
        "triggers_vacuous",
        "cache_lookups",
        "cache_hits",
        "max_delta",
        "budget_cuts",
    ):
        if field(name) < 0:
            problems.append(
                f"equivalence: {context}: stats counter {name} went negative "
                f"({stats[name]})"
            )
    return problems


def gc_tracked_violations(report: dict, accepted: dict = GC_TRACKED_ACCEPTED) -> list:
    """The allocation-count gate: the report's count against ``accepted``."""
    measured = report.get("gc_tracked_per_chase")
    if measured is None:
        return [
            "note: report has no gc_tracked_per_chase count — "
            "allocation gate not applied"
        ]
    count, python = measured["objects"], measured["python"]
    reference = accepted.get(python)
    if reference is None:
        return [
            f"note: no accepted gc_tracked_per_chase count for Python {python} "
            "— allocation gate not applied"
        ]
    ceiling = int(reference * GC_TRACKED_GROWTH)
    if count > ceiling:
        return [
            f"gc_tracked_per_chase: {count} objects alive after one chase, "
            f"above {ceiling} (the accepted {reference} on Python {python} "
            f"plus {round((GC_TRACKED_GROWTH - 1) * 100)}%)"
        ]
    return []


def gate(report: dict, margin: float) -> list:
    """All speedup/equivalence violations in the report, as messages.

    Equivalence violations are prefixed ``"equivalence:"`` — callers must
    treat those as fatal even in skip mode.  Informational lines (a gate
    the report predates, say) are prefixed ``"note:"`` and never fail the
    gate.
    """
    failures = []
    threshold = report["acceptance"]["threshold"] * margin
    seminaive_threshold = report["acceptance"].get("seminaive_threshold", 2.0) * margin

    by_workload: dict = {}
    for row in report.get("speedups", []):
        by_workload.setdefault(row["workload"], []).append(row)
    for workload, rows in by_workload.items():
        largest = max(row["size"] for row in rows)
        for row in rows:
            if not row["identical_instances"]:
                failures.append(
                    f"equivalence: {workload} n={row['size']}: indexed and naive "
                    f"instances differ"
                )
            if row["size"] == largest and row["speedup"] < threshold:
                failures.append(
                    f"{workload} n={row['size']}: indexed speedup "
                    f"{row['speedup']}x below the {threshold}x floor"
                )

    seminaive_rows = report.get("seminaive_speedups", [])
    if not seminaive_rows:
        failures.append("equivalence: report has no seminaive_speedups section")
    else:
        largest = max(row["size"] for row in seminaive_rows)
        for row in seminaive_rows:
            if not row["identical_instances"]:
                failures.append(
                    f"equivalence: seminaive_dense n={row['size']}: semi-naive and "
                    f"step-at-a-time instances differ"
                )
            if not row.get("identical_derivations", True):
                failures.append(
                    f"equivalence: seminaive_dense n={row['size']}: instances match "
                    f"but the derivations differ"
                )
            if row["size"] == largest and row["speedup"] < seminaive_threshold:
                failures.append(
                    f"seminaive_dense n={row['size']}: semi-naive speedup "
                    f"{row['speedup']}x below the {seminaive_threshold}x floor"
                )

    checkpoint_rows = report.get("checkpoint_overheads", [])
    if not checkpoint_rows:
        failures.append("equivalence: report has no checkpoint_overheads section")
    else:
        # Overhead is lower-is-better, so the noise margin *loosens* the
        # ceiling (margin 0.8 accepts 1.10/0.8 = 1.375x).
        ceiling = report["acceptance"].get("checkpoint_overhead_threshold", 1.1) / margin
        largest = max(row["size"] for row in checkpoint_rows)
        for row in checkpoint_rows:
            if not row["identical_instances"]:
                failures.append(
                    f"equivalence: checkpoint_join n={row['size']}: resumed and "
                    f"cold instances differ"
                )
            if not row.get("identical_derivations", True):
                failures.append(
                    f"equivalence: checkpoint_join n={row['size']}: instances "
                    f"match but the derivations differ"
                )
            if row["size"] == largest and row["overhead_ratio"] > ceiling:
                spread = (
                    f" (IQR {row.get('overhead_iqr')} over {row['pairs']} pairs)"
                    if "pairs" in row
                    else ""
                )
                failures.append(
                    f"checkpoint_join n={row['size']}: resume overhead "
                    f"{row['overhead_ratio']}x above the {round(ceiling, 3)}x "
                    f"ceiling{spread}"
                )
    obs_rows = report.get("obs_overheads", [])
    if not obs_rows:
        # Older snapshots predate the telemetry layer: tolerated, noted.
        failures.append(
            "note: report has no obs_overheads section (pre-telemetry "
            "snapshot) — telemetry gate not applied"
        )
    else:
        # Lower-is-better like the checkpoint ceiling, so the margin loosens.
        ceiling = report["acceptance"].get("obs_overhead_threshold", 1.05) / margin
        largest = max(row["size"] for row in obs_rows)
        for row in obs_rows:
            if not row["identical_instances"]:
                failures.append(
                    f"equivalence: obs_dense n={row['size']}: recording and "
                    f"plain instances differ"
                )
            if not row.get("identical_derivations", True):
                failures.append(
                    f"equivalence: obs_dense n={row['size']}: instances match "
                    f"but the derivations differ"
                )
            if row["size"] == largest and row["overhead_ratio"] > ceiling:
                spread = (
                    f" (IQR {row.get('overhead_iqr')} over {row['pairs']} pairs)"
                    if "pairs" in row
                    else ""
                )
                failures.append(
                    f"obs_dense n={row['size']}: telemetry overhead "
                    f"{row['overhead_ratio']}x above the {round(ceiling, 3)}x "
                    f"ceiling{spread}"
                )
    portfolio = report.get("portfolio")
    if portfolio is None:
        # Older snapshots predate the portfolio cascade: tolerated, noted.
        failures.append(
            "note: report has no portfolio section (pre-portfolio "
            "snapshot) — portfolio gate not applied"
        )
    else:
        if not portfolio.get("agreement", False):
            failures.append(
                "equivalence: portfolio_cascade: the portfolio contradicted "
                "the decider-only analyzer on at least one corpus set"
            )
        settled_floor = (
            report["acceptance"].get("portfolio_settled_floor", 0.5) * margin
        )
        if portfolio.get("settled_fraction", 0.0) < settled_floor:
            failures.append(
                f"portfolio_cascade: settled fraction "
                f"{portfolio.get('settled_fraction')} below the "
                f"{round(settled_floor, 3)} floor"
            )
        speedup_floor = (
            report["acceptance"].get("portfolio_speedup_floor", 1.0) * margin
        )
        if portfolio.get("settled_speedup", 0.0) <= speedup_floor:
            failures.append(
                f"portfolio_cascade: settled-subset speedup "
                f"{portfolio.get('settled_speedup')}x not above the "
                f"{round(speedup_floor, 3)}x floor"
            )
    service = report.get("service")
    if service is None:
        # Older snapshots predate the service tier: tolerated, noted.
        failures.append(
            "note: report has no service section (pre-service snapshot) — "
            "service gate not applied"
        )
    else:
        if not service.get("equivalence", False):
            failures.append(
                "equivalence: service_sessions: a session's incremental "
                "state differs from a cold chase of its accumulated facts"
            )
        if not service.get("warm_cache_hit_no_decider", False):
            failures.append(
                "equivalence: service_sessions: a warm verdict-cache hit "
                "invoked a portfolio stage (decider not bypassed)"
            )
        stats = service.get("stats")
        if stats is not None:
            failures.extend(stats_violations(stats, "service_sessions"))
            resumed = stats.get("sessions_resumed")
            sizes = stats.get("increment_sizes")
            if (
                resumed is not None
                and sizes is not None
                and resumed != sum(sizes.values())
            ):
                failures.append(
                    "equivalence: service_sessions: sessions_resumed "
                    f"({resumed}) disagrees with increment_sizes "
                    f"({sum(sizes.values())} counted)"
                )
    persistent = report.get("persistent")
    if persistent is None:
        # Older snapshots predate the disk-backed backend: tolerated, noted.
        failures.append(
            "note: report has no persistent section (pre-persistent "
            "snapshot) — persistent gate not applied"
        )
    else:
        if not persistent.get("equivalence", False):
            failures.append(
                "equivalence: persistent_closure: sqlite and memory "
                "closures differ (corpus or canonical digests)"
            )
        if not persistent.get("sqlite_completes_under_cap", False):
            failures.append(
                "persistent_closure: sqlite backend did not complete the "
                "closure under the RSS cap "
                f"({persistent.get('cap_bytes')} bytes)"
            )
        if not persistent.get("memory_oom_under_cap", False):
            failures.append(
                "note: persistent_closure: memory backend survived the "
                "RSS cap — the workload no longer exceeds the in-memory "
                "high-water mark; consider widening it"
            )
    # Embedded stats dicts, wherever a section carries them.
    for section in (
        "speedups",
        "seminaive_speedups",
        "checkpoint_overheads",
        "obs_overheads",
    ):
        for row in report.get(section, []):
            stats = row.get("stats")
            if stats is not None:
                failures.extend(
                    stats_violations(
                        stats, f"{row.get('workload', section)} n={row.get('size')}"
                    )
                )
    failures.extend(gc_tracked_violations(report))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_chase.json"),
        help="path to the harness report (default: repo-root BENCH_chase.json)",
    )
    parser.add_argument(
        "--skip",
        action="store_true",
        help="warn instead of failing on speedup misses (noisy runners); "
        "equivalent to BENCH_GATE_SKIP=1",
    )
    parser.add_argument(
        "--margin",
        type=float,
        default=float(os.environ.get("BENCH_GATE_MARGIN", "1.0")),
        help="scale factor on both thresholds (default 1.0; "
        "BENCH_GATE_MARGIN env var)",
    )
    args = parser.parse_args(argv)
    skip = args.skip or os.environ.get("BENCH_GATE_SKIP", "") not in ("", "0")

    path = Path(args.report)
    if not path.exists():
        print(f"check_regression: no report at {path}; run `make bench-quick` first")
        return 1
    report = json.loads(path.read_text())

    for line in spread_lines(report):
        print(f"check_regression: {line}")
    failures = gate(report, args.margin)
    equivalence = [f for f in failures if f.startswith("equivalence:")]
    notes = [f for f in failures if f.startswith("note:")]
    perf = [f for f in failures if f not in equivalence and f not in notes]

    for failure in failures:
        print(f"check_regression: {failure}")
    if equivalence:
        print("check_regression: FAIL (equivalence violations are never skippable)")
        return 1
    if perf and not skip:
        print("check_regression: FAIL")
        return 1
    if perf:
        print("check_regression: speedup misses ignored (skip knob set)")
    print(
        "check_regression: PASS — indexed >= "
        f"{report['acceptance']['threshold']}x, semi-naive >= "
        f"{report['acceptance'].get('seminaive_threshold', 2.0)}x, "
        f"checkpoint overhead <= "
        f"{report['acceptance'].get('checkpoint_overhead_threshold', 1.1)}x, "
        f"telemetry overhead <= "
        f"{report['acceptance'].get('obs_overhead_threshold', 1.05)}x "
        f"(cpus={report['acceptance'].get('cpu_count', '?')}), "
        "instances identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
