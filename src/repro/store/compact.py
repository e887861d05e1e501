"""Rollups of raw samples, and compaction: the fold of every commit log.

:func:`rollup` downsamples a series into hourly or daily ``(t, min,
mean, max, count)`` buckets; the query engine (:mod:`repro.store.query`)
applies it to raw on every read, so each resolution equals the rollup
of raw at every moment.  Buckets are aligned to the epoch of the time
base (``floor(t / width)``), so later appends never shift them.
Compaction (``store compact``) folds each building's commit log under
its partition lock; a store with nothing to fold is left untouched.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from ..errors import StoreError
from ..obs import obs_counter, obs_event, obs_span
from .keys import by_building
from .segment import RAW

#: Query resolutions: raw samples, and the rollups of raw.
HOURLY, DAILY = "hourly", "daily"
RESOLUTIONS = (RAW, HOURLY, DAILY)

#: Rollup bucket widths, in the store's time unit (hours).
ROLLUP_WIDTHS: Dict[str, float] = {HOURLY: 1.0, DAILY: 24.0}

#: The columns of a rollup, in :func:`rollup`'s order.
ROLLUP_COLUMNS = ("t", "min", "mean", "max", "count")


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


def compact_store(store: Any) -> Dict[str, Any]:
    """Fold each building's commit log into its segments.

    Each building is one pass under its partition lock: the fold, then
    the removal of any rollup files an earlier compaction left.  The
    summary is JSON-ready, what the CLI verb prints: the series, the
    rows the folds moved out of the logs, and ``raw_rows``, every raw
    row the store holds, summed from the indexes without reading data.
    """
    keys = store.keys()
    summary = {"series": len(keys), "folded_rows": 0, "raw_rows": 0}
    with obs_span("store.compact", series=len(keys)):
        for building, group in by_building(keys).items():
            with store.partition(building):
                rows, folded = store.fold_partition(building)
                summary["folded_rows"] += rows
                for key in group:
                    # A segment that folded holds the index its fold
                    # read back; any other one reads its manifest.
                    segment = folded.get(key) or store.segment(key)
                    segment.drop_rollups()
                    summary["raw_rows"] += segment.rows()
    obs_counter("store.compactions").inc()
    obs_event("info", "store.compacted", **summary)
    return summary
