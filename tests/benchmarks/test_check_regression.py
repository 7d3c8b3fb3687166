"""The bench regression gate must catch every way the trajectory can rot."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from check_regression import gate, gc_tracked_violations, spread_lines  # noqa: E402


def make_report(
    indexed_speedup=30.0,
    seminaive_speedup=2.5,
    checkpoint_overhead=1.05,
    obs_overhead=1.02,
    identical=True,
    seminaive_identical=True,
    checkpoint_identical=True,
    obs_identical=True,
    portfolio_agreement=True,
    portfolio_settled=0.9,
    portfolio_speedup=20.0,
    service_equivalence=True,
    service_warm_cache_hit=True,
    persistent_equivalence=True,
    persistent_sqlite_under_cap=True,
    persistent_memory_oom=True,
):
    return {
        "acceptance": {
            "threshold": 5.0,
            "seminaive_threshold": 2.0,
            "checkpoint_overhead_threshold": 1.1,
            "obs_overhead_threshold": 1.05,
            "portfolio_settled_floor": 0.5,
            "portfolio_speedup_floor": 1.0,
        },
        "portfolio": {
            "agreement": portfolio_agreement,
            "settled_fraction": portfolio_settled,
            "settled_speedup": portfolio_speedup,
        },
        "service": {
            "workload": "service_sessions",
            "clients": 4,
            "requests": 24,
            "requests_per_sec": 400.0,
            "p50_ms": 8.0,
            "p99_ms": 30.0,
            "equivalence": service_equivalence,
            "warm_cache_hit_no_decider": service_warm_cache_hit,
            "stats": {
                "kind": "service",
                "sessions_opened": 4,
                "sessions_resumed": 20,
                "verdict_cache_hits": 1,
                "verdict_cache_misses": 1,
                "increment_sizes": {"3": 20},
            },
        },
        "gc_tracked_per_chase": {"objects": 1000, "python": "3.11"},
        "persistent": {
            "workload": "persistent_closure",
            "width": 1500,
            "depth": 40,
            "atoms": 61500,
            "gate_corpus_sets": 9,
            "equivalence": persistent_equivalence,
            "cap_bytes": 116037632,
            "memory_oom_under_cap": persistent_memory_oom,
            "sqlite_completes_under_cap": persistent_sqlite_under_cap,
        },
        "speedups": [
            {
                "workload": "ablation_engine",
                "size": 8,
                "speedup": 7.0,
                "identical_instances": identical,
            },
            {
                "workload": "ablation_engine",
                "size": 64,
                "speedup": indexed_speedup,
                "identical_instances": identical,
            },
        ],
        "seminaive_speedups": [
            {
                "workload": "seminaive_dense",
                "size": 64,
                "speedup": seminaive_speedup,
                "identical_instances": seminaive_identical,
                "identical_derivations": True,
            }
        ],
        "checkpoint_overheads": [
            {
                "workload": "checkpoint_join",
                "size": 32,
                "overhead_ratio": 1.2,  # small sizes are not gated
                "identical_instances": checkpoint_identical,
                "identical_derivations": True,
            },
            {
                "workload": "checkpoint_join",
                "size": 48,
                "overhead_ratio": checkpoint_overhead,
                "identical_instances": checkpoint_identical,
                "identical_derivations": True,
            },
        ],
        "obs_overheads": [
            {
                "workload": "obs_dense",
                "size": 64,
                "overhead_ratio": 1.2,  # small sizes are not gated
                "identical_instances": obs_identical,
                "identical_derivations": True,
            },
            {
                "workload": "obs_dense",
                "size": 128,
                "overhead_ratio": obs_overhead,
                "identical_instances": obs_identical,
                "identical_derivations": True,
                "stats": {
                    "rounds": 32,
                    "triggers_discovered": 4096,
                    "triggers_fired": 3072,
                    "cache_lookups": 100,
                    "cache_hits": 25,
                    "cache_hit_rate": 0.25,
                },
            },
        ],
    }


def test_clean_report_passes():
    assert gate(make_report(), margin=1.0) == []


def test_indexed_regression_caught():
    failures = gate(make_report(indexed_speedup=3.0), margin=1.0)
    assert any("below the 5.0x floor" in f for f in failures)


def test_small_sizes_not_gated():
    # Only the largest size per workload is held to the floor: the n=8 row
    # sits at 7x, below no floor that applies to it.
    report = make_report()
    report["speedups"][0]["speedup"] = 5.5
    assert gate(report, margin=1.0) == []


def test_seminaive_regression_caught():
    failures = gate(make_report(seminaive_speedup=1.2), margin=1.0)
    assert any("seminaive_dense" in f and "below" in f for f in failures)


def test_equivalence_violation_is_flagged_as_such():
    failures = gate(make_report(seminaive_identical=False), margin=1.0)
    assert any(f.startswith("equivalence:") for f in failures)


def test_derivation_mismatch_reported_distinctly():
    report = make_report()
    report["seminaive_speedups"][0]["identical_derivations"] = False
    failures = gate(report, margin=1.0)
    assert any("derivations differ" in f for f in failures)
    assert not any("instances differ" in f for f in failures)


def test_missing_seminaive_section_is_fatal():
    report = make_report()
    del report["seminaive_speedups"]
    failures = gate(report, margin=1.0)
    assert any(f.startswith("equivalence:") for f in failures)


def test_margin_loosens_the_floor():
    assert gate(make_report(indexed_speedup=4.5), margin=1.0)
    assert gate(make_report(indexed_speedup=4.5), margin=0.8) == []


def test_checkpoint_overhead_regression_caught():
    failures = gate(make_report(checkpoint_overhead=1.3), margin=1.0)
    assert any("checkpoint_join" in f and "above" in f for f in failures)


def test_checkpoint_overhead_small_sizes_not_gated():
    # The n=32 fixture row sits at 1.2x — above the ceiling, but only the
    # largest size is held to it.
    assert gate(make_report(), margin=1.0) == []


def test_checkpoint_equivalence_fatal():
    failures = gate(make_report(checkpoint_identical=False), margin=1.0)
    assert any(f.startswith("equivalence: checkpoint_join") for f in failures)


def test_checkpoint_margin_loosens_the_ceiling():
    # Overhead is lower-is-better: margin 0.8 raises the ceiling to
    # 1.1 / 0.8 = 1.375x, so a 1.3x row passes.
    assert gate(make_report(checkpoint_overhead=1.3), margin=1.0)
    assert gate(make_report(checkpoint_overhead=1.3), margin=0.8) == []


def test_checkpoint_spread_is_printed_and_named_in_a_miss():
    report = make_report(checkpoint_overhead=1.3)
    report["checkpoint_overheads"][1].update(overhead_iqr=0.04, pairs=9)
    assert spread_lines(report) == ["checkpoint_join n=48: 1.3x, IQR 0.04 over 9 pairs"]
    failures = gate(report, margin=1.0)
    assert any(
        f.startswith("checkpoint_join n=48") and f.endswith("(IQR 0.04 over 9 pairs)")
        for f in failures
    )


def test_missing_checkpoint_section_is_fatal():
    report = make_report()
    del report["checkpoint_overheads"]
    failures = gate(report, margin=1.0)
    assert any("no checkpoint_overheads" in f for f in failures)


def test_obs_overhead_regression_caught():
    failures = gate(make_report(obs_overhead=1.2), margin=1.0)
    assert any("obs_dense" in f and "above" in f for f in failures)


def test_obs_overhead_small_sizes_not_gated():
    # The n=64 fixture row sits at 1.2x — above the ceiling, but only the
    # largest size is held to it.
    assert gate(make_report(), margin=1.0) == []


def test_obs_margin_loosens_the_ceiling():
    # Overhead is lower-is-better: margin 0.8 raises the ceiling to
    # 1.05 / 0.8 ≈ 1.31x, so a 1.2x row passes.
    assert gate(make_report(obs_overhead=1.2), margin=1.0)
    assert gate(make_report(obs_overhead=1.2), margin=0.8) == []


def test_obs_spread_is_printed_and_named_in_a_miss():
    report = make_report(obs_overhead=1.2)
    report["obs_overheads"][1].update(overhead_iqr=0.07, pairs=9)
    assert spread_lines(report) == ["obs_dense n=128: 1.2x, IQR 0.07 over 9 pairs"]
    failures = gate(report, margin=1.0)
    assert any(
        f.startswith("obs_dense n=128") and f.endswith("(IQR 0.07 over 9 pairs)")
        for f in failures
    )


def test_spread_lines_skip_rows_without_pairs():
    # Snapshots from before the spread was recorded print nothing for it.
    assert spread_lines(make_report()) == []


def test_obs_equivalence_fatal():
    failures = gate(make_report(obs_identical=False), margin=1.0)
    assert any(f.startswith("equivalence: obs_dense") for f in failures)


def test_missing_obs_section_is_a_note_not_a_failure():
    # Pre-telemetry snapshots must keep passing: the gate records a note
    # instead of a failure when the section is absent.
    report = make_report()
    del report["obs_overheads"]
    failures = gate(report, margin=1.0)
    assert failures == [
        "note: report has no obs_overheads section (pre-telemetry snapshot)"
        " — telemetry gate not applied"
    ]


def test_portfolio_contradiction_is_an_equivalence_failure():
    failures = gate(make_report(portfolio_agreement=False), margin=1.0)
    assert any(
        f.startswith("equivalence: portfolio_cascade") for f in failures
    )


def test_portfolio_settled_floor_enforced():
    failures = gate(make_report(portfolio_settled=0.3), margin=1.0)
    assert any(
        "portfolio_cascade" in f and "settled fraction" in f for f in failures
    )


def test_portfolio_speedup_must_be_strictly_above_the_floor():
    # The cascade must be strictly faster than the decider-only analyzer on
    # the settled subset: exactly 1.0x fails the > comparison.
    failures = gate(make_report(portfolio_speedup=1.0), margin=1.0)
    assert any(
        "portfolio_cascade" in f and "speedup" in f for f in failures
    )
    assert gate(make_report(portfolio_speedup=1.01), margin=1.0) == []


def test_portfolio_margin_loosens_the_floors():
    assert gate(make_report(portfolio_settled=0.45), margin=1.0)
    assert gate(make_report(portfolio_settled=0.45), margin=0.8) == []


def test_missing_portfolio_section_is_a_note_not_a_failure():
    # Pre-portfolio snapshots must keep passing: a note, not a failure.
    report = make_report()
    del report["portfolio"]
    failures = gate(report, margin=1.0)
    assert failures == [
        "note: report has no portfolio section (pre-portfolio "
        "snapshot) — portfolio gate not applied"
    ]


def test_stats_invariant_violation_is_fatal():
    report = make_report()
    report["obs_overheads"][1]["stats"]["triggers_fired"] = 9999
    failures = gate(report, margin=1.0)
    assert any(
        f.startswith("equivalence:") and "exceeds discovered" in f
        for f in failures
    )


def test_stats_hit_rate_out_of_range_is_fatal():
    report = make_report()
    report["obs_overheads"][1]["stats"]["cache_hit_rate"] = 1.5
    failures = gate(report, margin=1.0)
    assert any("cache_hit_rate" in f for f in failures)


def test_stats_negative_counter_is_fatal():
    report = make_report()
    report["seminaive_speedups"][0]["stats"] = {"rounds": -1}
    failures = gate(report, margin=1.0)
    assert any(
        f.startswith("equivalence:") and "negative" in f for f in failures
    )


def test_rows_without_stats_are_fine():
    # Older snapshots carry no embedded stats dicts at all.
    report = make_report()
    del report["obs_overheads"][1]["stats"]
    assert gate(report, margin=1.0) == []


def test_service_equivalence_violation_is_fatal():
    failures = gate(make_report(service_equivalence=False), margin=1.0)
    assert any(
        f.startswith("equivalence: service_sessions")
        and "cold chase" in f
        for f in failures
    )


def test_service_warm_cache_violation_is_fatal():
    # The warm-hit gate is an equivalence bit: a cached answer that still
    # launched a portfolio stage means the bypass is broken.
    failures = gate(make_report(service_warm_cache_hit=False), margin=1.0)
    assert any(
        f.startswith("equivalence: service_sessions")
        and "decider not bypassed" in f
        for f in failures
    )


def test_service_resume_counter_mismatch_is_fatal():
    report = make_report()
    report["service"]["stats"]["increment_sizes"] = {"3": 7}  # resumed says 20
    failures = gate(report, margin=1.0)
    assert any(
        "sessions_resumed" in f and f.startswith("equivalence:")
        for f in failures
    )


def test_service_stats_invariants_checked():
    report = make_report()
    report["service"]["stats"]["rounds"] = -1
    failures = gate(report, margin=1.0)
    assert any(
        f.startswith("equivalence: service_sessions") and "negative" in f
        for f in failures
    )


def test_persistent_equivalence_violation_is_fatal():
    failures = gate(make_report(persistent_equivalence=False), margin=1.0)
    assert any(
        f.startswith("equivalence: persistent_closure") for f in failures
    )


def test_persistent_sqlite_under_cap_failure_caught():
    failures = gate(
        make_report(persistent_sqlite_under_cap=False), margin=1.0
    )
    assert any(
        "persistent_closure" in f
        and "under the RSS cap" in f
        and not f.startswith("equivalence:")
        for f in failures
    )


def test_persistent_memory_surviving_cap_is_a_note():
    # The memory backend squeaking under the cap means the workload is no
    # longer beyond the in-memory high-water mark — worth flagging, but the
    # disk backend's own capability gate still holds.
    failures = gate(make_report(persistent_memory_oom=False), margin=1.0)
    assert failures
    assert all(f.startswith("note: persistent_closure") for f in failures)


def test_missing_persistent_section_is_a_note_not_a_failure():
    # Pre-PR10 snapshots must keep passing: a note, not a failure.
    report = make_report()
    del report["persistent"]
    failures = gate(report, margin=1.0)
    assert failures == [
        "note: report has no persistent section (pre-persistent "
        "snapshot) — persistent gate not applied"
    ]


def test_missing_service_section_is_a_note_not_a_failure():
    # Pre-service snapshots must keep passing: a note, not a failure.
    report = make_report()
    del report["service"]
    failures = gate(report, margin=1.0)
    assert failures == [
        "note: report has no service section (pre-service snapshot) — "
        "service gate not applied"
    ]


def test_gc_tracked_growth_within_ten_percent_passes():
    report = {"gc_tracked_per_chase": {"objects": 5500, "python": "3.11"}}
    assert gc_tracked_violations(report, {"3.11": 5000}) == []


def test_gc_tracked_growth_past_ten_percent_caught():
    report = {"gc_tracked_per_chase": {"objects": 5501, "python": "3.11"}}
    failures = gc_tracked_violations(report, {"3.11": 5000})
    assert len(failures) == 1 and failures[0].startswith("gc_tracked_per_chase:")


def test_gc_tracked_ceiling_ignores_the_noise_margin():
    # The count is deterministic: a noisy-runner margin must not loosen it.
    report = make_report()
    report["gc_tracked_per_chase"]["objects"] = 100_000
    failures = gate(report, margin=0.5)
    assert any(f.startswith("gc_tracked_per_chase:") for f in failures)


def test_gc_tracked_from_another_interpreter_is_a_note():
    # Object layouts differ across CPython versions: no cross-version compare.
    report = {"gc_tracked_per_chase": {"objects": 100_000, "python": "3.12"}}
    failures = gc_tracked_violations(report, {"3.11": 5000})
    assert len(failures) == 1 and failures[0].startswith("note:")


def test_gc_tracked_missing_from_report_is_a_note():
    failures = gc_tracked_violations({}, {"3.11": 5000})
    assert len(failures) == 1 and failures[0].startswith("note:")


def test_gc_tracked_is_gated_on_the_bench_jobs_interpreter():
    # CI's bench job runs 3.12: its count is compared, not just noted.
    report = {"gc_tracked_per_chase": {"objects": 100_000, "python": "3.12"}}
    failures = gc_tracked_violations(report)
    assert len(failures) == 1 and failures[0].startswith("gc_tracked_per_chase:")
