"""The report CLI: stats rendering and Chrome-trace validation."""

import io
import json

from repro.obs.report import check_trace, main, print_report


def sample_report():
    return {
        "mode": "quick",
        "acceptance": {"pass": True, "cpu_count": 4},
        "seminaive_speedups": [
            {
                "workload": "seminaive_dense",
                "size": 64,
                "speedup": 2.8,
                "stats": {
                    "rounds": 32,
                    "triggers_discovered": 4096,
                    "triggers_fired": 3072,
                    "triggers_vacuous": 0,
                    "cache_hit_rate": 0.25,
                    "max_delta": 128,
                    "per_tgd_fired": {"s1": 3072},
                },
            }
        ],
        "obs_overheads": [
            {
                "workload": "obs_dense",
                "size": 64,
                "overhead_ratio": 1.01,
                "stats": {"rounds": 32, "budget_cuts": 2},
            }
        ],
    }


def valid_trace():
    return {
        "traceEvents": [
            {
                "name": "round.discover",
                "ph": "X",
                "ts": 0.0,
                "dur": 5.0,
                "pid": 1,
                "tid": 2,
            }
        ]
    }


class TestPrintReport:
    def test_renders_rows_with_stats(self):
        out = io.StringIO()
        print_report(sample_report(), out=out)
        text = out.getvalue()
        assert "seminaive_dense" in text
        assert "speedup=2.8x" in text
        assert "fired=3072" in text
        assert "cache_hit=0.250" in text
        assert "overhead=1.01x" in text
        assert "cuts=2" in text
        assert "s1: 3072" in text
        assert "acceptance: PASS" in text

    def test_tolerates_rows_without_stats(self):
        out = io.StringIO()
        print_report(
            {"speedups": [{"workload": "ablation_engine", "size": 8, "speedup": 7.0}]},
            out=out,
        )
        assert "(no stats recorded)" in out.getvalue()


class TestCheckTrace:
    def test_valid_trace_passes(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(valid_trace()))
        out = io.StringIO()
        assert check_trace(path, out=out) == 0
        assert "OK" in out.getvalue()
        assert "round.discover" in out.getvalue()

    def test_missing_file_fails(self, tmp_path):
        assert check_trace(tmp_path / "absent.json", out=io.StringIO()) == 1

    def test_non_json_fails(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text("{not json")
        assert check_trace(path, out=io.StringIO()) == 1

    def test_empty_trace_fails(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert check_trace(path, out=io.StringIO()) == 1

    def test_malformed_events_fail(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        assert check_trace(path, out=io.StringIO()) == 1


class TestMain:
    def test_report_and_trace_together(self, tmp_path, capsys):
        report = tmp_path / "BENCH_chase.json"
        report.write_text(json.dumps(sample_report()))
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(valid_trace()))
        assert main([str(report), "--validate-trace", str(trace_path)]) == 0
        captured = capsys.readouterr().out
        assert "seminaive_dense" in captured and "OK" in captured

    def test_missing_report_fails(self, tmp_path):
        assert main([str(tmp_path / "absent.json")]) == 1

    def test_bad_trace_fails_even_with_good_report(self, tmp_path):
        report = tmp_path / "BENCH_chase.json"
        report.write_text(json.dumps(sample_report()))
        assert main([str(report), "--validate-trace", str(tmp_path / "no.json")]) == 1
