"""CLI: summarize the telemetry recorded in a bench report.

``PYTHONPATH=src python -m repro.obs.report BENCH_chase.json`` (or
``make stats``) prints a per-workload summary of the stats fields the
bench harness embeds in its rows — rounds, trigger accounting, cache hit
rate, delta shape, pool efficiency — next to each workload's headline
speedup, so a trajectory diff answers "where did the time go" without
replaying the run.

``--validate-trace PATH`` additionally loads a Chrome trace file written
via ``CHASE_TRACE``/``--trace`` and checks it against the trace-event
schema (:func:`repro.obs.trace.validate_trace`); the CI observability job
uses this to assert the artifact is well-formed and non-empty.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.obs.trace import validate_trace


def _format_stats(stats: dict) -> str:
    parts = []
    for label, key in (
        ("rounds", "rounds"),
        ("discovered", "triggers_discovered"),
        ("fired", "triggers_fired"),
        ("vacuous", "triggers_vacuous"),
    ):
        if key in stats:
            parts.append(f"{label}={stats[key]}")
    rate = stats.get("cache_hit_rate")
    if rate is not None:
        parts.append(f"cache_hit={rate:.3f}")
    if stats.get("max_delta") is not None:
        parts.append(f"max_delta={stats['max_delta']}")
    efficiency = stats.get("parallel_efficiency")
    if efficiency is not None:
        parts.append(f"pool_eff={efficiency:.2f}")
    if stats.get("pool_fallbacks"):
        parts.append(f"fallbacks={stats['pool_fallbacks']}")
    if stats.get("budget_cuts"):
        parts.append(f"cuts={stats['budget_cuts']}")
    return " ".join(parts) or "(no stats recorded)"


def _speedup_of(row: dict) -> Optional[float]:
    for key in ("speedup", "overhead_ratio"):
        if key in row:
            return row[key]
    return None


def print_report(report: dict, out=None) -> None:
    """Render the per-workload stats summary of one harness report."""
    out = sys.stdout if out is None else out
    mode = report.get("mode", "?")
    print(f"bench report ({mode} mode, "
          f"cpus={report.get('acceptance', {}).get('cpu_count', '?')})", file=out)

    sections = (
        ("speedups", "speedup"),
        ("seminaive_speedups", "speedup"),
        ("parallel_speedups", "speedup"),
        ("checkpoint_overheads", "overhead"),
        ("obs_overheads", "overhead"),
    )
    for section, ratio_label in sections:
        rows = report.get(section, [])
        for row in rows:
            workload = row.get("workload", section)
            size = row.get("size", "?")
            ratio = _speedup_of(row)
            ratio_text = f"{ratio_label}={ratio}x" if ratio is not None else ""
            print(f"{workload:<18} n={size:<5} {ratio_text:<16} "
                  f"{_format_stats(row.get('stats', {}))}", file=out)

    service = report.get("service")
    if service:
        stats = service.get("stats", {})
        parts = [
            f"rps={service.get('requests_per_sec', '?')}",
            f"p50={service.get('p50_ms', '?')}ms",
            f"p99={service.get('p99_ms', '?')}ms",
            f"clients={service.get('clients', '?')}",
        ]
        if stats.get("sessions_opened") is not None:
            parts.append(f"sessions={stats['sessions_opened']}")
        if stats.get("sessions_resumed") is not None:
            parts.append(f"resumes={stats['sessions_resumed']}")
        hits = stats.get("verdict_cache_hits", 0)
        misses = stats.get("verdict_cache_misses", 0)
        if hits or misses:
            parts.append(f"verdict_cache={hits}/{hits + misses}")
        # JSON turns the {size: resumes} histogram's keys into strings.
        sizes = {
            int(size): count
            for size, count in (stats.get("increment_sizes") or {}).items()
        }
        if sizes:
            total = sum(size * count for size, count in sizes.items())
            mean = total / sum(sizes.values())
            parts.append(f"increments(mean={mean:.1f}, max={max(sizes)})")
        parts.append(f"equivalence={'ok' if service.get('equivalence') else 'FAIL'}")
        parts.append(
            "warm_cache="
            f"{'ok' if service.get('warm_cache_hit_no_decider') else 'FAIL'}"
        )
        print(f"service            {' '.join(parts)}", file=out)

    per_tgd: dict = {}
    for section, _ in sections:
        for row in report.get(section, []):
            for name, count in row.get("stats", {}).get("per_tgd_fired", {}).items():
                per_tgd[name] = per_tgd.get(name, 0) + count
    if per_tgd:
        print("per-TGD fired (summed over rows):", file=out)
        for name in sorted(per_tgd):
            print(f"  {name}: {per_tgd[name]}", file=out)

    acceptance = report.get("acceptance", {})
    if "pass" in acceptance:
        print(f"acceptance: {'PASS' if acceptance['pass'] else 'FAIL'}", file=out)


def check_trace(path: Path, out=None) -> int:
    """Validate one Chrome trace file; returns a process exit code."""
    out = sys.stdout if out is None else out
    if not path.exists():
        print(f"trace: {path} does not exist", file=out)
        return 1
    try:
        document = json.loads(path.read_text())
    except ValueError as error:
        print(f"trace: {path} is not JSON ({error})", file=out)
        return 1
    problems = validate_trace(document)
    events = document.get("traceEvents", document if isinstance(document, list) else [])
    if not events:
        print(f"trace: {path} contains no events", file=out)
        return 1
    if problems:
        for problem in problems:
            print(f"trace: {problem}", file=out)
        return 1
    names = sorted({event.get("name", "?") for event in events})
    print(f"trace: {path} OK — {len(events)} events, spans: {', '.join(names)}",
          file=out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report",
        nargs="?",
        default="BENCH_chase.json",
        help="path to the harness report (default: ./BENCH_chase.json)",
    )
    parser.add_argument(
        "--validate-trace",
        metavar="PATH",
        default=None,
        help="also validate a Chrome trace file against the event schema",
    )
    args = parser.parse_args(argv)

    status = 0
    path = Path(args.report)
    if not path.exists():
        print(f"report: no file at {path}; run `make bench-quick` first")
        status = 1
    else:
        try:
            report = json.loads(path.read_text())
        except ValueError as error:
            print(f"report: {path} is not JSON ({error})")
            status = 1
        else:
            print_report(report)
    if args.validate_trace is not None:
        status = max(status, check_trace(Path(args.validate_trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
