"""Benchmark: repro.store -- bulk ingest and range-query latency.

Not a paper artifact: this benchmark pins the telemetry store's perf
trajectory.  It bulk-ingests >=1M samples through the vectorized writer
path, compacts, then measures range-query latency percentiles, and
emits ``BENCH_store.json`` at the repo root so later PRs have numbers
to beat.
"""

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from conftest import report

from repro.store import QueryEngine, SeriesKey, TelemetryStore

#: 25 series x 40k rows = 1M samples.
SERIES = 25
ROWS_PER_SERIES = 40_000
TOTAL_ROWS = SERIES * ROWS_PER_SERIES

QUERY_ROUNDS = 200
WINDOW_HOURS = 48.0

BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_store.json"


def _keys():
    return [
        SeriesKey("bench", f"wall{i % 5}", i + 1, "strain")
        for i in range(SERIES)
    ]


def _bulk_ingest(root):
    rng = np.random.default_rng(7)
    store = TelemetryStore(root)
    hours = np.arange(ROWS_PER_SERIES, dtype=float) * 0.1
    with store.writer(flush_rows=500_000) as writer:
        for key in _keys():
            writer.add(key, hours, rng.normal(120.0, 5.0, ROWS_PER_SERIES))
    return store


def test_store_bench(benchmark):
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))

    t0 = time.perf_counter()
    store = benchmark.pedantic(
        _bulk_ingest, args=(scratch / "tele",), iterations=1, rounds=1
    )
    ingest_s = time.perf_counter() - t0

    stats = store.stats()
    assert stats["totals"]["raw"]["rows"] == TOTAL_ROWS

    t0 = time.perf_counter()
    store.compact()
    compact_s = time.perf_counter() - t0

    engine = QueryEngine(store)
    keys = _keys()
    rng = np.random.default_rng(13)
    span = ROWS_PER_SERIES * 0.1 - WINDOW_HOURS
    latencies = []
    for _ in range(QUERY_ROUNDS):
        key = keys[rng.integers(len(keys))]
        start = float(rng.uniform(0.0, span))
        q0 = time.perf_counter()
        data = engine.series(key, t0=start, t1=start + WINDOW_HOURS)
        latencies.append(time.perf_counter() - q0)
        assert data["t"].size == WINDOW_HOURS / 0.1 or data["t"].size > 0

    p50, p95 = np.percentile(latencies, [50, 95])
    agg_t0 = time.perf_counter()
    mean = engine.aggregate("strain", "mean", resolution="daily")["value"]
    agg_s = time.perf_counter() - agg_t0

    payload = {
        "schema": "repro/bench-store/v1",
        "rows": TOTAL_ROWS,
        "series": SERIES,
        "ingest_s": round(ingest_s, 4),
        "ingest_rows_per_s": round(TOTAL_ROWS / ingest_s),
        "compact_s": round(compact_s, 4),
        "range_query_p50_ms": round(p50 * 1e3, 3),
        "range_query_p95_ms": round(p95 * 1e3, 3),
        "daily_aggregate_s": round(agg_s, 4),
        "store_bytes": stats["totals"]["raw"]["bytes"],
    }
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    report(
        "repro.store -- 1M-sample ingest + range queries",
        [
            ("bulk ingest", ">= 1M rows", f"{TOTAL_ROWS} rows in {ingest_s:.2f} s"),
            ("ingest throughput", "vectorized", f"{TOTAL_ROWS / ingest_s:,.0f} rows/s"),
            ("compact (fold the commit logs)", "--", f"{compact_s:.2f} s"),
            ("range query p50", "--", f"{p50 * 1e3:.2f} ms"),
            ("range query p95", "--", f"{p95 * 1e3:.2f} ms"),
            ("daily mean aggregate", "--", f"{agg_s * 1e3:.1f} ms ({mean:.2f} ue)"),
        ],
    )

    # Floors, not targets: loud only if ingest degenerates to per-row.
    assert TOTAL_ROWS / ingest_s > 100_000, "bulk ingest slower than 100k rows/s"
    assert p95 < 1.0, "range-query p95 above one second"
