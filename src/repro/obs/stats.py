"""Per-run chase telemetry: the :class:`ChaseStats` aggregate report.

One ``ChaseStats`` object rides through a chase (``stats=`` on
``restricted_chase``/``seminaive_chase``/``oblivious_chase``) or a decider
run and accumulates the cost breakdown the serving/fleet ROADMAP items
need: round and trigger accounting, per-TGD fire counts, witness-cache hit
rate, per-round delta sizes and worklist depths, budget cuts, the parallel
tier's serial-fallback tally, and worker busy-vs-wall efficiency (the
worker-side timings ship back in the compact result rows and are merged
master-side by :class:`repro.chase.parallel.ParallelMatcher`).

The object is *passive*: engines write plain counters into it, so a run
with stats attached is byte-identical to one without (enforced by
``tests/chase/test_obs.py`` over the generator corpus).  Aggregation
happens once per round / per run, never per trigger, which is what keeps
the instrumented hot path inside the ``obs_overhead`` bench gate.

Invariants every finished run satisfies (checked by :meth:`validate`):
``triggers_fired <= triggers_discovered`` (a fired trigger was enqueued
first), ``cache_hits + cache_misses == cache_lookups`` (misses are
derived), ``rounds == len(delta_sizes)`` for round-based runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class ChaseStats:
    """Aggregated telemetry for one chase (or decider) run."""

    __slots__ = (
        "kind",
        "rounds",
        "triggers_discovered",
        "triggers_fired",
        "triggers_vacuous",
        "undos",
        "per_tgd_fired",
        "cache_lookups",
        "cache_hits",
        "delta_sizes",
        "pending_depths",
        "budget_cuts",
        "cut_reasons",
        "checkpoints_captured",
        "checkpoints_restored",
        "pool_fallbacks",
        "faults",
        "rounds_parallel",
        "rounds_serial",
        "pool_workers",
        "worker_busy_seconds",
        "parallel_wall_seconds",
        "apply_seconds",
        "discover_join_seconds",
        "discover_materialize_seconds",
        "discover_order_seconds",
        "merge_seconds",
        "wall_seconds",
        "suspects",
        "portfolio",
        "sessions_opened",
        "sessions_resumed",
        "verdict_cache_hits",
        "verdict_cache_misses",
        "increment_sizes",
    )

    def __init__(self, kind: str = ""):
        #: Which loop filled this report (``"semi_naive"``, ``"oblivious"``,
        #: ``"restricted:fifo"``, ``"decider"``, ...).
        self.kind = kind
        #: Completed semi-naive rounds.
        self.rounds = 0
        #: Triggers that entered the worklist, including the
        #: seed batch and, on resume, the checkpoint's pending worklist.
        self.triggers_discovered = 0
        #: Triggers applied (the chase's step count contribution).
        self.triggers_fired = 0
        #: Triggers processed but skipped as inactive — discovered work
        #: that a head witness made vacuous before application.
        self.triggers_vacuous = 0
        #: ``ChaseEngine.undo`` calls (derivation-DFS backtracking).
        self.undos = 0
        #: Fired applications per TGD name.
        self.per_tgd_fired: Dict[str, int] = {}
        #: Head-witness cache probes / probes answered "already witnessed".
        self.cache_lookups = 0
        self.cache_hits = 0
        #: Atoms added per completed round, in round order.
        self.delta_sizes: List[int] = []
        #: Pending-worklist depth at each round start, in round order.
        self.pending_depths: List[int] = []
        #: Budget violations that cut a round or a run, with their reasons.
        self.budget_cuts = 0
        self.cut_reasons: List[str] = []
        self.checkpoints_captured = 0
        self.checkpoints_restored = 0
        #: Pooled discovery rounds that failed and were recomputed serially
        #: (each pins its run's matcher to the serial pass).
        self.pool_fallbacks = 0
        #: Chaos-injected faults by shape (empty outside chaos runs).
        self.faults: Dict[str, int] = {}
        #: Discovery rounds that ran on the pool vs serially.
        self.rounds_parallel = 0
        self.rounds_serial = 0
        #: Pool width of the matcher that fed this report (1 = serial).
        self.pool_workers = 1
        #: Sum of worker-side task durations (shipped back with each
        #: compact row batch) vs the master-side wall spent draining pools.
        self.worker_busy_seconds = 0.0
        self.parallel_wall_seconds = 0.0
        #: Master-side phase accounting (only collected when stats ride
        #: along — never on the bare hot path).  Discovery splits into its
        #: layers: the join plans producing rows (serial or pooled), their
        #: ``(birth, canonical)`` sort, and ordered rows -> Triggers plus
        #: worklist append; :attr:`discover_seconds` is their sum.
        self.apply_seconds = 0.0
        self.discover_join_seconds = 0.0
        self.discover_materialize_seconds = 0.0
        self.discover_order_seconds = 0.0
        #: Master-side wall concatenating pooled tasks' rows.
        self.merge_seconds = 0.0
        #: Whole-run wall time as seen by the entry point.
        self.wall_seconds = 0.0
        #: Decider tier: one entry per divergence-suspect chase —
        #: ``{"candidate": i, "outcome": "pump"|"none"|"timeout",
        #: "seconds": s}`` in candidate order.
        self.suspects: List[dict] = []
        #: Portfolio cascade: one entry per stage reached —
        #: ``{"stage": name, "outcome": "settled"|"undecided"|"timeout"
        #: |<decider status>, "seconds": s}`` in cascade order.
        self.portfolio: List[dict] = []
        #: Service tier (``kind="service"``): sessions created / facts-POST
        #: resumes served, termination requests answered from / past the
        #: verdict cache, and a histogram of the resumes' derived-delta
        #: sizes, ``{size: resumes}`` (``sessions_resumed ==
        #: sum(increment_sizes.values())``), bounded by the number of
        #: distinct sizes however long the service runs.
        self.sessions_opened = 0
        self.sessions_resumed = 0
        self.verdict_cache_hits = 0
        self.verdict_cache_misses = 0
        self.increment_sizes: Dict[int, int] = {}

    # -- derived -----------------------------------------------------------

    @property
    def discover_seconds(self) -> float:
        """Whole discovery wall: join + materialize + order."""
        return (
            self.discover_join_seconds
            + self.discover_materialize_seconds
            + self.discover_order_seconds
        )

    @property
    def cache_misses(self) -> int:
        return self.cache_lookups - self.cache_hits

    def cache_hit_rate(self) -> Optional[float]:
        """Hit fraction of the head-witness cache (None before any probe)."""
        if not self.cache_lookups:
            return None
        return self.cache_hits / self.cache_lookups

    def parallel_efficiency(self) -> Optional[float]:
        """Worker busy time over pool wall capacity (None without pool rounds).

        1.0 means every worker was busy for the whole pooled-discovery
        window; the resident-fleet ROADMAP item budgets against this.
        """
        if self.parallel_wall_seconds <= 0 or self.pool_workers <= 1:
            return None
        return self.worker_busy_seconds / (
            self.parallel_wall_seconds * self.pool_workers
        )

    # -- recording ---------------------------------------------------------

    def record_round(self, delta_size: int) -> None:
        """Tally one *completed* round (cut rounds tally when they finish)."""
        self.rounds += 1
        self.delta_sizes.append(delta_size)

    def record_fired(self, trigger) -> None:
        """Count one applied trigger into the per-TGD breakdown."""
        self.triggers_fired += 1
        name = trigger.tgd.name
        self.per_tgd_fired[name] = self.per_tgd_fired.get(name, 0) + 1

    def record_increment(self, derived: int) -> None:
        """Count one session resume that derived ``derived`` atoms."""
        self.sessions_resumed += 1
        self.increment_sizes[derived] = self.increment_sizes.get(derived, 0) + 1

    def record_cut(self, reason: str) -> None:
        self.budget_cuts += 1
        self.cut_reasons.append(reason)

    def absorb_engine(self, engine) -> None:
        """Fold an engine's cumulative counters in (call once, at run end)."""
        witnesses = engine.witnesses
        if witnesses is not None:
            self.cache_lookups += witnesses.lookups
            self.cache_hits += witnesses.hits

    def absorb_matcher(self, matcher) -> None:
        """Fold a matcher's fault/pool counters in (call once, at run end)."""
        self.pool_fallbacks += matcher.backend_fallbacks
        self.rounds_parallel += matcher.rounds_parallel
        self.rounds_serial += matcher.rounds_serial
        self.pool_workers = max(self.pool_workers, matcher.workers)
        self.worker_busy_seconds += matcher.busy_seconds
        self.parallel_wall_seconds += matcher.pool_wall_seconds
        self.merge_seconds += matcher.merge_seconds
        for shape, count in getattr(matcher, "faults", {}).items():
            if count:
                self.faults[shape] = self.faults.get(shape, 0) + count

    # -- reporting ---------------------------------------------------------

    def validate(self) -> List[str]:
        """Internal-consistency violations (empty for a well-formed report)."""
        problems: List[str] = []
        if self.triggers_fired > self.triggers_discovered:
            problems.append(
                f"fired ({self.triggers_fired}) exceeds discovered "
                f"({self.triggers_discovered})"
            )
        if self.cache_hits > self.cache_lookups:
            problems.append(
                f"cache hits ({self.cache_hits}) exceed lookups "
                f"({self.cache_lookups})"
            )
        if self.cache_hits + self.cache_misses != self.cache_lookups:
            problems.append("cache hits + misses != lookups")
        if sum(self.per_tgd_fired.values()) != self.triggers_fired:
            problems.append("per-TGD fire counts do not sum to triggers_fired")
        if self.budget_cuts != len(self.cut_reasons):
            problems.append("budget_cuts disagrees with cut_reasons")
        if len(self.delta_sizes) != self.rounds:
            problems.append("delta_sizes length disagrees with rounds")
        if self.sessions_resumed != sum(self.increment_sizes.values()):
            problems.append(
                "sessions_resumed disagrees with increment_sizes"
            )
        if any(value < 0 for value in (
            self.rounds,
            self.triggers_discovered,
            self.triggers_fired,
            self.triggers_vacuous,
            self.worker_busy_seconds,
            self.parallel_wall_seconds,
            self.sessions_opened,
            self.sessions_resumed,
            self.verdict_cache_hits,
            self.verdict_cache_misses,
        )):
            problems.append("a counter went negative")
        return problems

    def as_dict(self) -> dict:
        """A JSON-ready rendering (the shape the bench rows embed)."""
        return {
            "kind": self.kind,
            "rounds": self.rounds,
            "triggers_discovered": self.triggers_discovered,
            "triggers_fired": self.triggers_fired,
            "triggers_vacuous": self.triggers_vacuous,
            "undos": self.undos,
            "per_tgd_fired": dict(self.per_tgd_fired),
            "cache_lookups": self.cache_lookups,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate(),
            "delta_sizes": list(self.delta_sizes),
            "pending_depths": list(self.pending_depths),
            "budget_cuts": self.budget_cuts,
            "cut_reasons": list(self.cut_reasons),
            "checkpoints_captured": self.checkpoints_captured,
            "checkpoints_restored": self.checkpoints_restored,
            "pool_fallbacks": self.pool_fallbacks,
            "faults": dict(self.faults),
            "rounds_parallel": self.rounds_parallel,
            "rounds_serial": self.rounds_serial,
            "pool_workers": self.pool_workers,
            "worker_busy_seconds": round(self.worker_busy_seconds, 6),
            "parallel_wall_seconds": round(self.parallel_wall_seconds, 6),
            "parallel_efficiency": self.parallel_efficiency(),
            "apply_seconds": round(self.apply_seconds, 6),
            "discover_seconds": round(self.discover_seconds, 6),
            "discover_join_seconds": round(self.discover_join_seconds, 6),
            "discover_materialize_seconds": round(
                self.discover_materialize_seconds, 6
            ),
            "discover_order_seconds": round(self.discover_order_seconds, 6),
            "merge_seconds": round(self.merge_seconds, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "suspects": list(self.suspects),
            "portfolio": list(self.portfolio),
            "sessions_opened": self.sessions_opened,
            "sessions_resumed": self.sessions_resumed,
            "verdict_cache_hits": self.verdict_cache_hits,
            "verdict_cache_misses": self.verdict_cache_misses,
            "increment_sizes": dict(sorted(self.increment_sizes.items())),
        }

    def summary(self) -> str:
        """One line for logs and the report CLI."""
        parts = [
            f"rounds={self.rounds}",
            f"discovered={self.triggers_discovered}",
            f"fired={self.triggers_fired}",
            f"vacuous={self.triggers_vacuous}",
        ]
        rate = self.cache_hit_rate()
        if rate is not None:
            parts.append(f"cache_hit_rate={rate:.3f}")
        if self.discover_seconds > 0:
            parts.append(
                f"discover_ms=join:{self.discover_join_seconds * 1e3:.3f}"
                f",materialize:{self.discover_materialize_seconds * 1e3:.3f}"
                f",order:{self.discover_order_seconds * 1e3:.3f}"
            )
        efficiency = self.parallel_efficiency()
        if efficiency is not None:
            parts.append(f"parallel_efficiency={efficiency:.3f}")
        if self.budget_cuts:
            parts.append(f"budget_cuts={self.budget_cuts}")
        if self.suspects:
            parts.append(f"suspects={len(self.suspects)}")
        if self.portfolio:
            parts.append(f"portfolio_stages={len(self.portfolio)}")
        if self.sessions_opened:
            parts.append(f"sessions={self.sessions_opened}")
        if self.sessions_resumed:
            parts.append(f"resumes={self.sessions_resumed}")
        if self.verdict_cache_hits or self.verdict_cache_misses:
            parts.append(
                "verdict_cache="
                f"{self.verdict_cache_hits}/{self.verdict_cache_hits + self.verdict_cache_misses}"
            )
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ChaseStats({self.kind or 'unlabelled'}: {self.summary()})"


#: The stats fields the bench harness embeds into ``BENCH_chase.json``
#: rows (``benchmarks/harness.py``); ``check_regression.py`` validates
#: exactly these when present.
BENCH_STATS_FIELDS = (
    "rounds",
    "triggers_discovered",
    "triggers_fired",
    "triggers_vacuous",
    "per_tgd_fired",
    "cache_lookups",
    "cache_hits",
    "cache_hit_rate",
    "max_delta",
    "mean_delta",
    "budget_cuts",
    "pool_fallbacks",
    "rounds_parallel",
    "pool_workers",
    "worker_busy_seconds",
    "parallel_wall_seconds",
    "parallel_efficiency",
)


def bench_stats_row(stats: ChaseStats) -> dict:
    """The compact stats dict embedded in a bench report row."""
    deltas = stats.delta_sizes
    full = stats.as_dict()
    row = {name: full[name] for name in BENCH_STATS_FIELDS if name in full}
    row["max_delta"] = max(deltas) if deltas else 0
    row["mean_delta"] = (
        round(sum(deltas) / len(deltas), 2) if deltas else 0.0
    )
    return row
