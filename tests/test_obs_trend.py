"""The bench-trend regression gate (repro/obs/trend.py, ``obs trend``)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ObsError
from repro.obs.trend import (
    TREND_SCHEMA,
    evaluate,
    load_bench,
    load_history,
    record_history,
)


def write_bench(
    directory, speedup=31.0, ingest=3_800_000.0, p95_ms=2.2,
    overhead=0.8, smoke=False,
):
    (directory / "BENCH_phy.json").write_text(json.dumps({
        "schema": "repro/bench-phy/v1", "smoke": smoke,
        "speedup_batch_vs_scalar": speedup,
        "batch": {"packets_per_s": 2000},
    }))
    (directory / "BENCH_store.json").write_text(json.dumps({
        "schema": "repro/bench-store/v1", "smoke": smoke,
        "ingest_rows_per_s": ingest, "range_query_p95_ms": p95_ms,
    }))
    (directory / "BENCH_obs.json").write_text(json.dumps({
        "schema": "repro/bench-obs/v1", "smoke": smoke,
        "overhead_pct": overhead,
    }))


def by_metric(verdicts):
    return {v["metric"]: v for v in verdicts}


class TestLoading:
    def test_missing_files_yield_missing_verdicts(self, tmp_path):
        verdicts = by_metric(evaluate(load_bench(tmp_path), []))
        assert all(v["verdict"] == "missing" for v in verdicts.values())

    def test_malformed_bench_raises(self, tmp_path):
        (tmp_path / "BENCH_phy.json").write_text("{nope")
        with pytest.raises(ObsError):
            load_bench(tmp_path)

    def test_history_roundtrip(self, tmp_path):
        write_bench(tmp_path)
        history_path = tmp_path / "hist.jsonl"
        record = record_history(history_path, load_bench(tmp_path))
        assert record["schema"] == TREND_SCHEMA
        loaded = load_history(history_path)
        assert len(loaded) == 1
        assert loaded[0]["metrics"]["phy.speedup_batch_vs_scalar"] == 31.0

    def test_history_bad_schema_raises(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"schema": "wrong/v9", "metrics": {}}\n')
        with pytest.raises(ObsError):
            load_history(path)

    def test_smoke_readings_are_not_recorded(self, tmp_path):
        write_bench(tmp_path, smoke=True)
        with pytest.raises(ObsError):
            record_history(tmp_path / "hist.jsonl", load_bench(tmp_path))


class TestVerdicts:
    def test_healthy_readings_pass(self, tmp_path):
        write_bench(tmp_path)
        verdicts = by_metric(evaluate(load_bench(tmp_path), []))
        assert verdicts["phy.speedup_batch_vs_scalar"]["verdict"] == "no-baseline"
        assert not verdicts["phy.speedup_batch_vs_scalar"]["reasons"]

    def test_absolute_floor_violation_regresses_without_history(self, tmp_path):
        write_bench(tmp_path, speedup=5.0)  # < the promised 10x
        verdicts = by_metric(evaluate(load_bench(tmp_path), []))
        entry = verdicts["phy.speedup_batch_vs_scalar"]
        assert entry["verdict"] == "regress"
        assert "floor" in entry["reasons"][0]

    def test_absolute_ceiling_violation_for_lower_is_better(self, tmp_path):
        write_bench(tmp_path, overhead=4.5)  # > the 2% budget
        verdicts = by_metric(evaluate(load_bench(tmp_path), []))
        assert verdicts["obs.overhead_pct"]["verdict"] == "regress"

    def test_relative_slide_against_history_regresses(self, tmp_path):
        write_bench(tmp_path)
        history_path = tmp_path / "hist.jsonl"
        record_history(history_path, load_bench(tmp_path))
        write_bench(tmp_path, ingest=2_000_000.0)  # -47% vs baseline
        verdicts = by_metric(evaluate(
            load_bench(tmp_path), load_history(history_path), tolerance=0.25
        ))
        entry = verdicts["store.ingest_rows_per_s"]
        assert entry["verdict"] == "regress"
        assert any("baseline" in r for r in entry["reasons"])

    def test_slide_within_tolerance_passes(self, tmp_path):
        write_bench(tmp_path)
        history_path = tmp_path / "hist.jsonl"
        record_history(history_path, load_bench(tmp_path))
        write_bench(tmp_path, ingest=3_100_000.0)  # -18%: inside 25%
        verdicts = by_metric(evaluate(
            load_bench(tmp_path), load_history(history_path), tolerance=0.25
        ))
        assert verdicts["store.ingest_rows_per_s"]["verdict"] == "pass"

    def test_lower_is_better_slide_regresses_upward(self, tmp_path):
        write_bench(tmp_path)
        history_path = tmp_path / "hist.jsonl"
        record_history(history_path, load_bench(tmp_path))
        write_bench(tmp_path, p95_ms=4.0)  # +82% latency
        verdicts = by_metric(evaluate(
            load_bench(tmp_path), load_history(history_path)
        ))
        assert verdicts["store.range_query_p95_ms"]["verdict"] == "regress"

    def test_smoke_mode_is_exempt_from_gating(self, tmp_path):
        write_bench(tmp_path, speedup=1.0, smoke=True)  # way under floor
        verdicts = by_metric(evaluate(load_bench(tmp_path), []))
        assert verdicts["phy.speedup_batch_vs_scalar"]["verdict"] == "smoke"

    def test_baseline_is_the_median_of_history(self, tmp_path):
        write_bench(tmp_path)
        history_path = tmp_path / "hist.jsonl"
        for ingest in (3_000_000.0, 4_000_000.0, 8_000_000.0):
            write_bench(tmp_path, ingest=ingest)
            record_history(history_path, load_bench(tmp_path))
        write_bench(tmp_path, ingest=3_500_000.0)
        verdicts = by_metric(evaluate(
            load_bench(tmp_path), load_history(history_path)
        ))
        entry = verdicts["store.ingest_rows_per_s"]
        assert entry["baseline"] == 4_000_000.0  # not dragged by the 8M run
        assert entry["verdict"] == "pass"

    def test_negative_tolerance_rejected(self, tmp_path):
        write_bench(tmp_path)
        with pytest.raises(ObsError):
            evaluate(load_bench(tmp_path), [], tolerance=-0.1)


class TestCli:
    def test_cli_exits_zero_on_healthy_bench(self, tmp_path, capsys):
        write_bench(tmp_path)
        code = main([
            "obs", "trend", "--bench-dir", str(tmp_path),
            "--history", str(tmp_path / "hist.jsonl"),
        ])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_cli_exits_nonzero_on_injected_regression(self, tmp_path, capsys):
        write_bench(tmp_path, speedup=3.0)
        code = main([
            "obs", "trend", "--bench-dir", str(tmp_path),
            "--history", str(tmp_path / "hist.jsonl"),
        ])
        assert code == 1
        assert "1 regression(s)" in capsys.readouterr().out

    def test_cli_record_appends_history(self, tmp_path):
        write_bench(tmp_path)
        history = tmp_path / "hist.jsonl"
        assert main([
            "obs", "trend", "--bench-dir", str(tmp_path),
            "--history", str(history), "--record",
        ]) == 0
        assert len(load_history(history)) == 1

    def test_cli_json_output(self, tmp_path, capsys):
        write_bench(tmp_path)
        code = main([
            "obs", "trend", "--bench-dir", str(tmp_path),
            "--history", str(tmp_path / "hist.jsonl"), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] == 0
        assert len(payload["verdicts"]) >= 5

    def test_cli_gates_on_the_committed_bench_artifacts(self, capsys):
        # The acceptance check: the repo's own full-run BENCH files
        # pass (a missing file or a committed smoke artifact does not).
        root = Path(__file__).resolve().parents[1]
        assert main([
            "obs", "trend", "--bench-dir", str(root),
            "--history", str(root / "BENCH_HISTORY.jsonl"), "--json",
        ]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert {v["verdict"] for v in verdicts} <= {"pass", "no-baseline"}

    def test_cli_exits_2_when_no_bench_file_is_there(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "trend", "--bench-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"obs trend: {tmp_path} holds none of ")
        assert err.count("\n") == 1
