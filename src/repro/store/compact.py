"""Deterministic compaction: raw samples into multi-resolution rollups.

Long campaigns accumulate millions of raw samples per series; the
queries operators actually run ("mean strain per day this month") do
not need them.  :func:`compact_store` downsamples every series into
hourly and daily ``(t, min, mean, max, count)`` rollup segments.

Compaction is *background-free and deterministic*: it is an explicit
verb (``store compact`` / :meth:`TelemetryStore.compact`), a pure
function of the raw data, and rewrites each rollup file atomically in
full -- so compacting twice, or compacting a store rebuilt from the
same ingest sequence, produces byte-identical rollup segments.  It
folds each building's commit log first, under the building's
partition lock, so the raw segments it reads hold every acknowledged
row, and it holds that lock for the building's whole pass.  Rollup
buckets are aligned to the epoch of the time base (``floor(t /
width)``), not to the first sample, so later appends never shift
existing bucket boundaries.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from ..errors import StoreError
from ..obs import obs_counter, obs_event, obs_span
from .keys import SeriesKey, by_building
from .segment import DAILY, HOURLY, RAW

#: Rollup bucket widths, in the store's time unit (hours).
ROLLUP_WIDTHS: Dict[str, float] = {HOURLY: 1.0, DAILY: 24.0}


def rollup(
    t: np.ndarray, values: np.ndarray, width: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized downsample: ``(t_bucket, min, mean, max, count)``.

    ``t`` must be non-decreasing (the segment append invariant), which
    makes the bucket index non-decreasing too -- ``reduceat`` over the
    bucket starts aggregates every bucket in one pass, no python loop.
    """
    if width <= 0.0:
        raise StoreError(f"rollup width must be positive, got {width}")
    if t.size == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy(), empty.copy(), empty.copy(), empty.copy()
    buckets = np.floor(t / width)
    uniq, starts, counts = np.unique(
        buckets, return_index=True, return_counts=True
    )
    mins = np.minimum.reduceat(values, starts)
    maxs = np.maximum.reduceat(values, starts)
    means = np.add.reduceat(values, starts) / counts
    return (
        uniq * width,
        mins,
        means,
        maxs,
        counts.astype(np.float64),
    )


def compact_store(
    store: Any, keys: Optional[Iterable[SeriesKey]] = None
) -> Dict[str, Any]:
    """Fold each building's commit log, then regenerate every rollup.

    Each building is one pass under its partition lock: the fold first
    (so raw reads see every acknowledged row in ``raw.seg``), then the
    rollups of its series.  The summary is JSON-ready: the series
    compacted, the raw rows read, the rows the folds moved out of the
    logs and per-resolution rollup row totals -- what the CLI verb
    prints.
    """
    selected = list(store.keys() if keys is None else keys)
    summary: Dict[str, Any] = {
        "series": len(selected),
        "raw_rows": 0,
        "folded_rows": 0,
        "rollup_rows": {HOURLY: 0, DAILY: 0},
    }
    with obs_span("store.compact", series=len(selected)):
        for building, group in by_building(selected).items():
            with store.partition(building):
                summary["folded_rows"] += store.fold_partition(building)
                for key in group:
                    _compact_series(store.segment(key), summary)
    # Rollup bytes changed in place: bump the store generation so the
    # serving tier's rollup caches drop their now-stale entries.
    summary["generation"] = store.bump_generation()
    obs_counter("store.compactions").inc()
    obs_event(
        "info", "store.compacted",
        series=summary["series"], raw_rows=summary["raw_rows"],
        folded_rows=summary["folded_rows"],
    )
    return summary


def _compact_series(segment: Any, summary: Dict[str, Any]) -> None:
    data = segment.read(RAW)
    summary["raw_rows"] += int(data["t"].size)
    for resolution, width in ROLLUP_WIDTHS.items():
        cols = rollup(data["t"], data["value"], width)
        segment.replace(resolution, None if cols[0].size == 0 else list(cols))
        summary["rollup_rows"][resolution] += int(cols[0].size)
        obs_counter("store.rollup_rows").inc(int(cols[0].size))
