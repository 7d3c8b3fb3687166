"""ChaseStats accounting, derived metrics, invariants, and the bench row."""

import json
from types import SimpleNamespace

from repro.obs.stats import BENCH_STATS_FIELDS, ChaseStats, bench_stats_row


def fired_trigger(name="t1"):
    # Only the TGD name matters to the per-TGD tally.
    return SimpleNamespace(tgd=SimpleNamespace(name=name))


class TestRecording:
    def test_record_round_appends_delta(self):
        stats = ChaseStats()
        stats.record_round(5)
        stats.record_round(0)
        assert stats.rounds == 2
        assert stats.delta_sizes == [5, 0]

    def test_record_fired_tallies_per_tgd(self):
        stats = ChaseStats()
        stats.triggers_discovered = 3
        stats.record_fired(fired_trigger("a"))
        stats.record_fired(fired_trigger("a"))
        stats.record_fired(fired_trigger("b"))
        assert stats.triggers_fired == 3
        assert stats.per_tgd_fired == {"a": 2, "b": 1}

    def test_record_cut_keeps_reasons(self):
        stats = ChaseStats()
        stats.record_cut("budget:wall")
        stats.record_cut("budget:rounds")
        assert stats.budget_cuts == 2
        assert stats.cut_reasons == ["budget:wall", "budget:rounds"]


class TestDerived:
    def test_cache_rates(self):
        stats = ChaseStats()
        assert stats.cache_hit_rate() is None
        stats.cache_lookups = 10
        stats.cache_hits = 4
        assert stats.cache_misses == 6
        assert stats.cache_hit_rate() == 0.4

    def test_parallel_efficiency_needs_pool_rounds(self):
        stats = ChaseStats()
        assert stats.parallel_efficiency() is None
        stats.pool_workers = 4
        stats.parallel_wall_seconds = 2.0
        stats.worker_busy_seconds = 4.0
        assert stats.parallel_efficiency() == 0.5

    def test_serial_run_has_no_efficiency(self):
        stats = ChaseStats()
        stats.pool_workers = 1
        stats.parallel_wall_seconds = 2.0
        stats.worker_busy_seconds = 2.0
        assert stats.parallel_efficiency() is None


class TestValidate:
    def test_fresh_stats_are_valid(self):
        assert ChaseStats().validate() == []

    def test_fired_beyond_discovered_is_flagged(self):
        stats = ChaseStats()
        stats.record_fired(fired_trigger())
        assert any("exceeds discovered" in p for p in stats.validate())

    def test_cache_hits_beyond_lookups_is_flagged(self):
        stats = ChaseStats()
        stats.cache_lookups = 1
        stats.cache_hits = 2
        assert any("exceed lookups" in p for p in stats.validate())

    def test_per_tgd_mismatch_is_flagged(self):
        stats = ChaseStats()
        stats.triggers_discovered = 1
        stats.triggers_fired = 1  # without the per-TGD tally
        assert any("per-TGD" in p for p in stats.validate())

    def test_cut_count_mismatch_is_flagged(self):
        stats = ChaseStats()
        stats.budget_cuts = 1
        assert any("cut_reasons" in p for p in stats.validate())

    def test_round_delta_mismatch_is_flagged(self):
        stats = ChaseStats()
        stats.rounds = 2
        stats.delta_sizes = [1]
        assert any("delta_sizes" in p for p in stats.validate())

    def test_negative_counter_is_flagged(self):
        stats = ChaseStats()
        stats.triggers_vacuous = -1
        assert any("negative" in p for p in stats.validate())


class TestRendering:
    def test_as_dict_is_json_ready(self):
        stats = ChaseStats(kind="semi_naive")
        stats.triggers_discovered = 2
        stats.record_fired(fired_trigger())
        stats.record_round(1)
        rendered = stats.as_dict()
        json.dumps(rendered)  # must serialize without custom encoders
        assert rendered["kind"] == "semi_naive"
        assert rendered["cache_hit_rate"] is None

    def test_bench_row_has_the_published_fields(self):
        stats = ChaseStats()
        stats.triggers_discovered = 4
        stats.record_fired(fired_trigger())
        stats.record_round(3)
        stats.record_round(1)
        row = bench_stats_row(stats)
        for field in BENCH_STATS_FIELDS:
            assert field in row, field
        assert row["max_delta"] == 3
        assert row["mean_delta"] == 2.0

    def test_bench_row_of_empty_run(self):
        row = bench_stats_row(ChaseStats())
        assert row["max_delta"] == 0
        assert row["mean_delta"] == 0.0

    def test_summary_mentions_the_headline_numbers(self):
        stats = ChaseStats(kind="oblivious")
        stats.triggers_discovered = 2
        stats.record_fired(fired_trigger())
        stats.record_cut("budget:wall")
        text = stats.summary()
        assert "fired=1" in text and "budget_cuts=1" in text
        assert "oblivious" in repr(stats)


class TestDiscoveryLayers:
    def test_discover_seconds_is_the_sum_of_the_layers(self):
        stats = ChaseStats()
        assert stats.discover_seconds == 0.0
        assert "discover_ms" not in stats.summary()
        stats.discover_join_seconds = 0.004
        stats.discover_materialize_seconds = 0.002
        stats.discover_order_seconds = 0.001
        assert abs(stats.discover_seconds - 0.007) < 1e-12
        rendered = stats.as_dict()
        assert rendered["discover_join_seconds"] == 0.004
        assert rendered["discover_materialize_seconds"] == 0.002
        assert rendered["discover_order_seconds"] == 0.001
        assert rendered["discover_seconds"] == 0.007
        assert "discover_ms=join:4.000,materialize:2.000,order:1.000" in stats.summary()

    def test_a_round_based_chase_fills_every_layer(self):
        from repro.chase.restricted import restricted_chase
        from repro.core.parsing import parse_database
        from repro.tgds.tgd import parse_tgds

        stats = ChaseStats()
        restricted_chase(
            parse_database("E(a,b), E(b,c), E(c,a)"),
            parse_tgds(["E(x,y) -> F(x,y)", "F(x,y), F(y,z) -> G(x,z)"]),
            strategy="semi_naive",
            stats=stats,
        )
        assert stats.discover_join_seconds > 0
        assert stats.discover_materialize_seconds > 0
        assert stats.discover_order_seconds > 0

    def test_a_step_chase_reports_apply_and_discovery(self):
        from repro.chase.restricted import restricted_chase
        from repro.core.parsing import parse_database
        from repro.tgds.tgd import parse_tgds

        stats = ChaseStats()
        restricted_chase(
            parse_database("E(a,b), E(b,c), E(c,a)"),
            parse_tgds(["E(x,y) -> F(x,y)", "F(x,y), F(y,z) -> G(x,z)"]),
            strategy="fifo",
            stats=stats,
        )
        assert stats.apply_seconds > 0
        assert stats.discover_seconds > 0
        assert stats.discover_join_seconds > 0
        assert stats.discover_materialize_seconds > 0


class TestAbsorb:
    def test_absorb_engine_folds_witness_counters(self):
        class Witnesses:
            lookups = 7
            hits = 3

        class Engine:
            witnesses = Witnesses()

        stats = ChaseStats()
        stats.absorb_engine(Engine())
        assert stats.cache_lookups == 7 and stats.cache_hits == 3

    def test_absorb_engine_tolerates_disabled_cache(self):
        class Engine:
            witnesses = None

        stats = ChaseStats()
        stats.absorb_engine(Engine())
        assert stats.cache_lookups == 0

    def test_absorb_matcher_folds_pool_counters(self):
        class Matcher:
            backend_fallbacks = 1
            rounds_parallel = 5
            rounds_serial = 3
            workers = 4
            busy_seconds = 1.5
            pool_wall_seconds = 0.5
            merge_seconds = 0.25
            faults = {"kill": 2, "delay": 0}

        stats = ChaseStats()
        stats.absorb_matcher(Matcher())
        assert stats.pool_fallbacks == 1
        assert stats.rounds_parallel == 5 and stats.rounds_serial == 3
        assert stats.pool_workers == 4
        assert stats.worker_busy_seconds == 1.5
        assert stats.parallel_wall_seconds == 0.5
        assert stats.merge_seconds == 0.25
        assert stats.faults == {"kill": 2}  # zero-count shapes are dropped
