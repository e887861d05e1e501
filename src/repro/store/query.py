"""The store's query engine: range scans, aggregation, damage queries.

Everything here is read-only and vectorized: range scans ride the
segments' block index (blocks wholly outside the range are
never read), aggregates over rollup resolutions combine the stored
``(min, mean, max, count)`` statistics instead of re-reading raw
samples, and the building-health queries reuse the SHM analytics
(:mod:`repro.shm.damage` drift detection, :mod:`repro.shm.building`
aggregation) so "which walls degraded this month" is answered straight
from stored telemetry with the same detectors the pilot uses.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from ..errors import StoreError
from ..obs import obs_counter, obs_span
from ..shm.building import BuildingMonitor, CapsuleStatus
from ..shm.damage import DamageAlarm, DamageDetector, StrainHistory
from .compact import ROLLUP_WIDTHS, rollup
from .keys import STRUCTURE_NODE_ID, SeriesKey
from .segment import DAILY, RAW, RESOLUTIONS
from .store import TelemetryStore

#: Aggregations the engine understands.
AGGREGATIONS = ("count", "min", "max", "mean", "sum")

#: Group-by dimensions for :meth:`QueryEngine.aggregate`.
GROUP_BY = ("node", "wall")


class QueryEngine:
    """Read-only queries over one :class:`TelemetryStore`."""

    def __init__(self, store: TelemetryStore):
        self.store = store

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def select(
        self,
        building: Optional[str] = None,
        wall: Optional[str] = None,
        node_id: Optional[int] = None,
        metric: Optional[str] = None,
    ) -> List[SeriesKey]:
        """Every series matching the given (None = any) components."""
        return [
            key
            for key in self.store.keys()
            if (building is None or key.building == building)
            and (wall is None or key.wall == wall)
            and (node_id is None or key.node_id == node_id)
            and (metric is None or key.metric == metric)
        ]

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------

    def series(
        self,
        key: SeriesKey,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        resolution: str = RAW,
    ) -> Dict[str, np.ndarray]:
        """Column arrays for one series over ``[t0, t1]``.

        Requesting a rollup resolution whose segment has never been
        compacted falls back to rolling the raw range up on the fly --
        identical numbers (compaction is a pure function of raw), just
        without the precomputed speed.
        """
        if resolution not in RESOLUTIONS:
            raise StoreError(
                f"unknown resolution {resolution!r}; options: {RESOLUTIONS}"
            )
        with obs_span("store.query", key=key.label(), resolution=resolution):
            obs_counter("store.queries").inc()
            segment = self.store.segment(key)
            if resolution == RAW:
                data = segment.read(RAW, t0=t0, t1=t1)
            elif segment.rows(resolution):
                data = segment.read(resolution, t0=t0, t1=t1)
            else:
                raw = segment.read(RAW, t0=t0, t1=t1)
                t, mins, means, maxs, counts = rollup(
                    raw["t"], raw["value"], ROLLUP_WIDTHS[resolution]
                )
                data = {
                    "t": t, "min": mins, "mean": means,
                    "max": maxs, "count": counts,
                }
            obs_counter("store.query_rows").inc(int(data["t"].size))
            return data

    def latest(self, key: SeriesKey) -> Optional[Dict[str, float]]:
        """The newest raw sample of a series, or None when empty."""
        segment = self.store.segment(key)
        blocks = segment.file_entry(RAW)["blocks"]
        if not blocks:
            return None
        tail = segment.read(RAW, t0=blocks[-1]["t0"])
        return {"t": float(tail["t"][-1]), "value": float(tail["value"][-1])}

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def aggregate(
        self,
        metric: str,
        agg: str = "mean",
        building: Optional[str] = None,
        wall: Optional[str] = None,
        node_id: Optional[int] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        resolution: str = RAW,
        group_by: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Aggregate one metric over every matching series.

        Raw aggregation touches the samples; rollup aggregation combines
        the stored bucket statistics (count-weighted for ``mean``), so
        the answers match raw exactly for ``count``/``min``/``max``/
        ``sum`` and match raw's mean because buckets partition samples.
        """
        if agg not in AGGREGATIONS:
            raise StoreError(f"unknown agg {agg!r}; options: {AGGREGATIONS}")
        if group_by is not None and group_by not in GROUP_BY:
            raise StoreError(
                f"unknown group_by {group_by!r}; options: {GROUP_BY}"
            )
        keys = self.select(
            building=building, wall=wall, node_id=node_id, metric=metric
        )
        groups: Dict[str, List[SeriesKey]] = {}
        for key in keys:
            if group_by == "node":
                label = f"{key.building}/{key.wall}/{key.node_id}"
            elif group_by == "wall":
                label = f"{key.building}/{key.wall}"
            else:
                label = ""
            groups.setdefault(label, []).append(key)
        values = {
            label: self._aggregate_keys(members, agg, t0, t1, resolution)
            for label, members in sorted(groups.items())
        }
        result: Dict[str, Any] = {
            "metric": metric,
            "agg": agg,
            "resolution": resolution,
            "series": len(keys),
        }
        if group_by is None:
            result["value"] = values.get("")
        else:
            result["group_by"] = group_by
            result["groups"] = values
        return result

    def _aggregate_keys(
        self,
        keys: Iterable[SeriesKey],
        agg: str,
        t0: Optional[float],
        t1: Optional[float],
        resolution: str,
    ) -> Optional[float]:
        count = 0.0
        total = 0.0
        low = np.inf
        high = -np.inf
        for key in keys:
            data = self.series(key, t0=t0, t1=t1, resolution=resolution)
            if data["t"].size == 0:
                continue
            if resolution == RAW:
                v = data["value"]
                count += v.size
                total += float(v.sum())
                low = min(low, float(v.min()))
                high = max(high, float(v.max()))
            else:
                n = data["count"]
                count += float(n.sum())
                total += float((data["mean"] * n).sum())
                low = min(low, float(data["min"].min()))
                high = max(high, float(data["max"].max()))
        if agg == "count":
            return count
        if count == 0.0:
            return None
        if agg == "sum":
            return total
        if agg == "mean":
            return total / count
        return low if agg == "min" else high

    # ------------------------------------------------------------------
    # Damage / health queries (reusing the SHM analytics)
    # ------------------------------------------------------------------

    def strain_alarm(
        self,
        key: SeriesKey,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> Optional[DamageAlarm]:
        """Drift alarm for one capsule's stored strain series.

        Long histories (a full seasonal cycle of daily means) go through
        the real :class:`~repro.shm.damage.DamageDetector` CUSUM;
        shorter ones fall back to a least-squares drift slope graded
        against the same ``warning_drift``/``critical_drift``
        thresholds, so a fresh deployment still gets an early-warning
        answer instead of "come back in a year".
        """
        daily = self.series(key, t0=t0, t1=t1, resolution=DAILY)
        if daily["t"].size < 2:
            return None
        days = daily["t"] / ROLLUP_WIDTHS[DAILY]
        strain = daily["mean"]
        if days.size > DamageDetector.training_days:
            try:
                return DamageDetector().detect(
                    StrainHistory(days=days, strain=strain)
                )
            except Exception:
                # Irregular cadence can starve the seasonal fit; the
                # slope fallback below still answers.
                pass
        slope = float(np.polyfit(days, strain, 1)[0])
        if slope < DamageDetector.warning_drift:
            return None
        severity = (
            "critical" if slope >= DamageDetector.critical_drift else "warning"
        )
        return DamageAlarm(
            day=float(days[-1]), cusum=0.0,
            drift_estimate=slope, severity=severity,
        )

    def building_view(
        self,
        building: str,
        strain_metric: str = "strain",
        stale_hours: Optional[float] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> BuildingMonitor:
        """A :class:`BuildingMonitor` built from stored telemetry.

        Capsules are the non-structure nodes with a strain series; a
        capsule whose newest sample is older than ``stale_hours``
        behind the store's newest sample is reported unreachable (it
        has stopped answering surveys).
        """
        keys = [
            key
            for key in self.select(building=building, metric=strain_metric)
            if key.node_id != STRUCTURE_NODE_ID
        ]
        if not keys:
            raise StoreError(
                f"no {strain_metric!r} series stored for building "
                f"{building!r}"
            )
        monitor = BuildingMonitor(name=building)
        lasts = [self.latest(key) for key in keys]
        newest = max(
            (entry["t"] for entry in lasts if entry), default=None,
        )
        for key, last in zip(keys, lasts):
            reachable = last is not None and (
                stale_hours is None
                or newest is None
                or newest - last["t"] <= stale_hours
            )
            monitor.record(
                CapsuleStatus(
                    node_id=key.node_id,
                    wall=key.wall,
                    reachable=reachable,
                    last_strain=last["value"] if last else None,
                    alarm=(
                        self.strain_alarm(key, t0=t0, t1=t1)
                        if reachable
                        else None
                    ),
                )
            )
        return monitor

    def degradation_report(
        self,
        building: str,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        strain_metric: str = "strain",
        stale_hours: Optional[float] = None,
    ) -> Dict[str, Any]:
        """"Which walls degraded?" -- JSON-ready, worst walls first."""
        monitor = self.building_view(
            building, strain_metric=strain_metric,
            stale_hours=stale_hours, t0=t0, t1=t1,
        )
        payload = monitor.to_dict()
        payload["degraded_walls"] = [
            wall["wall"]
            for wall in payload["walls"]
            if wall["grade"] != "healthy"
        ]
        payload["window"] = {"t0": t0, "t1": t1}
        return payload
