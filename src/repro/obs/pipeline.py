"""The obs -> store telemetry pipeline: self-recording operational health.

:class:`MetricsRecorder` periodically snapshots a live
:class:`~repro.obs.metrics.MetricsRegistry` and appends the deltas as
regular :mod:`repro.store` series under the reserved ``_obs`` building
namespace -- so the system's *own* health (epochs per second, checkpoint
latency, degradation counters, request latencies, RSS) becomes
queryable, compactable, rollup-able telemetry exactly like the strain
data it monitors.

Mapping (see ``docs/OBSERVABILITY.md`` for the full schema):

* building: ``_obs`` (reserved; leading underscore means self-telemetry)
* wall: the recorder's ``source`` (``"campaign"``, ``"serve"``, ...)
* node_id: 0 (structure-level)
* metric: the obs series name, sanitised into a store-safe component;
  histograms fan out into ``<name>.count`` / ``.sum`` / ``.mean`` /
  ``.p50`` / ``.p95`` sub-series.

Per tick the recorder writes **counter deltas** (not cumulative totals,
so rollup ``sum`` aggregates directly give per-window activity), gauge
values verbatim, and histogram deltas with bucket-interpolated
quantiles.  Every series present in the registry is written at least
once (a zero first sample), so "which series exist" never depends on
whether anything happened yet.

Determinism contract: recording never touches experiment RNG streams
and never writes anywhere except the attached store -- a campaign run
with a recorder attached produces a ``result.json`` byte-identical to
the same run without one (proved in ``tests/test_obs_pipeline.py``).

Overhead contract: ticks buffer in memory and flush every
``flush_every`` ticks through the store's one write path: one
commit-log record and one fsync per flush.  At the campaign's heartbeat
cadence (a flush every ``OBS_FLUSH_EPOCHS`` epochs) this keeps the
recorder's wall-time overhead within the budget pinned by
``BENCH_obs.json``.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from . import obs_registry
from .metrics import MetricsRegistry
from .profiling import peak_rss_kb
from ..errors import ObsError
from ..store.keys import OBS_BUILDING, STRUCTURE_NODE_ID, SeriesKey, validate_component
from ..store.store import TelemetryStore

#: Quantiles estimated per histogram tick (bucket-interpolated).
DEFAULT_QUANTILES = (0.5, 0.95)

#: Characters legal in a store metric component (after the first).
_STORE_OK = re.compile(r"[^A-Za-z0-9._-]")

#: Maximum length of a store key component.
_COMPONENT_MAX = 64


def sanitize_store_metric(series: str) -> str:
    """Map one obs series name onto a legal store metric component.

    Label syntax (``name{k=v,...}``) flattens into dotted segments;
    every remaining illegal character becomes ``-``.  Names longer than
    the 64-char component limit keep a readable prefix plus a stable
    8-hex digest, so distinct series can never silently collide.
    """
    flat = (
        series.replace("{", ".").replace("}", "").replace(",", ".")
        .replace("=", ".").replace('"', "")
    )
    flat = _STORE_OK.sub("-", flat).strip(".-")
    if not flat or not flat[0].isalnum():
        flat = "m" + flat
    if len(flat) > _COMPONENT_MAX:
        digest = hashlib.sha256(series.encode("utf-8")).hexdigest()[:8]
        flat = flat[: _COMPONENT_MAX - 9].rstrip(".-") + "." + digest
    return flat


def _bucket_quantile(
    buckets: List[List[Any]],
    previous: Optional[List[List[Any]]],
    q: float,
    fallback: Optional[float],
) -> Optional[float]:
    """Estimate one quantile from the *delta* between two cumulative
    bucket snapshots, linearly interpolated inside the winning bucket.

    Observations that landed in the ``+inf`` overflow slot fall back to
    the histogram's lifetime ``max`` (the best bound available).
    """
    prev_by_bound: Dict[Any, float] = {
        bound: cum for bound, cum in (previous or [])
    }
    deltas: List[Tuple[Any, float]] = []
    for bound, cum in buckets:
        deltas.append((bound, float(cum) - float(prev_by_bound.get(bound, 0.0))))
    if not deltas:
        return fallback
    total = deltas[-1][1]  # the +inf slot is cumulative over everything
    if total <= 0.0:
        return fallback
    target = q * total
    running = 0.0
    lower = 0.0
    for bound, cum_delta in deltas:
        if bound == "+inf":
            return fallback
        if cum_delta >= target:
            span_count = cum_delta - running
            fraction = (
                (target - running) / span_count if span_count > 0.0 else 1.0
            )
            return lower + fraction * (float(bound) - lower)
        running = cum_delta
        lower = float(bound)
    return fallback


class MetricsRecorder:
    """Stream one metrics registry into a telemetry store, tick by tick.

    Args:
        store: The destination :class:`~repro.store.TelemetryStore`.
        source: The ``wall`` component the samples land under
            (``_obs/<source>/n00000/<metric>``); names the subsystem
            being recorded (``"campaign"``, ``"serve"``, ...).
        registry: The registry to snapshot.  None snapshots whatever
            live registry :func:`repro.obs.obs_registry` returns at each
            tick (so a recorder built before ``activate_obs`` still
            works), and records nothing while observability is off.
        clock: Hours-valued time source for ticks whose caller passes
            no explicit timestamp.  Defaults to wall clock hours
            (``time.time() / 3600``); the campaign driver passes its
            deterministic epoch clock instead.
        interval_s: Default cadence for :meth:`start`.
        quantiles: Histogram quantiles estimated per tick.
        flush_every: Ticks buffered in memory before the batch is
            written to the store (one block per touched series, in one
            fsynced commit-log record).
            The default of 1 flushes every tick; high-frequency callers
            (the campaign's per-epoch heartbeat) raise it so the
            steady-state tick is a pure in-memory delta computation.
            :meth:`flush` and :meth:`stop` drain whatever is pending.
    """

    def __init__(
        self,
        store: TelemetryStore,
        source: str = "campaign",
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        interval_s: float = 15.0,
        quantiles: Tuple[float, ...] = DEFAULT_QUANTILES,
        flush_every: int = 1,
    ):
        validate_component(source, "recorder source")
        if interval_s <= 0.0:
            raise ObsError(f"interval_s must be positive, got {interval_s}")
        if flush_every < 1:
            raise ObsError(f"flush_every must be >= 1, got {flush_every}")
        self.store = store
        self.source = source
        self.interval_s = float(interval_s)
        self.quantiles = tuple(quantiles)
        self.flush_every = int(flush_every)
        self._explicit_registry = registry
        self._clock = clock if clock is not None else (
            lambda: time.time() / 3600.0
        )
        self._last_counters: Dict[str, float] = {}
        self._last_histograms: Dict[str, Dict[str, Any]] = {}
        self._seen: set = set()
        self._key_cache: Dict[str, SeriesKey] = {}
        # metric -> ([t, ...], [value, ...]); ticks arrive in time
        # order, so each per-series buffer is already sorted.
        self._pending: Dict[str, Tuple[List[float], List[float]]] = {}
        self._pending_ticks = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.ticks = 0
        self.samples_written = 0

    # ------------------------------------------------------------------
    # One tick
    # ------------------------------------------------------------------

    def _registry(self) -> Optional[MetricsRegistry]:
        if self._explicit_registry is not None:
            return self._explicit_registry
        return obs_registry()

    def _key(self, metric: str) -> SeriesKey:
        key = self._key_cache.get(metric)
        if key is None:
            key = self._key_cache[metric] = SeriesKey(
                building=OBS_BUILDING,
                wall=self.source,
                node_id=STRUCTURE_NODE_ID,
                metric=sanitize_store_metric(metric),
            )
        return key

    def _tick_samples(
        self, snapshot: Mapping[str, Any]
    ) -> List[Tuple[str, float]]:
        """The (metric, value) samples one snapshot produces."""
        samples: List[Tuple[str, float]] = []
        for series, value in snapshot.get("counters", {}).items():
            previous = self._last_counters.get(series)
            delta = value if previous is None or value < previous else value - previous
            self._last_counters[series] = value
            if delta != 0.0 or series not in self._seen:
                samples.append((series, float(delta)))
        for series, value in snapshot.get("gauges", {}).items():
            samples.append((series, float(value)))
        for series, summary in snapshot.get("histograms", {}).items():
            previous = self._last_histograms.get(series)
            prev_count = float(previous.get("count", 0)) if previous else 0.0
            prev_sum = float(previous.get("sum", 0.0)) if previous else 0.0
            count_delta = float(summary.get("count", 0)) - prev_count
            sum_delta = float(summary.get("sum", 0.0)) - prev_sum
            if count_delta < 0.0:  # registry was replaced mid-flight
                count_delta = float(summary.get("count", 0))
                sum_delta = float(summary.get("sum", 0.0))
                previous = None
            if count_delta > 0.0 or series not in self._seen:
                samples.append((f"{series}.count", count_delta))
                samples.append((f"{series}.sum", sum_delta))
            if count_delta > 0.0:
                samples.append((f"{series}.mean", sum_delta / count_delta))
                for q in self.quantiles:
                    estimate = _bucket_quantile(
                        summary.get("buckets", []),
                        (previous or {}).get("buckets"),
                        q,
                        summary.get("max"),
                    )
                    if estimate is not None:
                        samples.append(
                            (f"{series}.p{int(round(q * 100))}", float(estimate))
                        )
            self._last_histograms[series] = {
                "count": summary.get("count", 0),
                "sum": summary.get("sum", 0.0),
                "buckets": [list(b) for b in summary.get("buckets", [])],
            }
        return samples

    def record(self, t: Optional[float] = None) -> int:
        """Snapshot the registry and append one tick's samples at hour
        ``t`` (defaults to the recorder's clock).  Returns samples
        written; zero when no live registry exists.
        """
        registry = self._registry()
        if registry is None:
            return 0
        started = time.perf_counter()
        with self._lock:
            if t is None:
                t = float(self._clock())
            rss = peak_rss_kb()
            if rss is not None:
                registry.gauge("process.max_rss_kb").set(float(rss))
            samples = self._tick_samples(registry.snapshot())
            for metric, value in samples:
                buffer = self._pending.get(metric)
                if buffer is None:
                    buffer = self._pending[metric] = ([], [])
                buffer[0].append(t)
                buffer[1].append(value)
            self._seen.update(metric for metric, _ in samples)
            self.ticks += 1
            self._pending_ticks += 1
            self.samples_written += len(samples)
            tick_elapsed = time.perf_counter() - started
            if self._pending_ticks >= self.flush_every:
                self._flush_locked(registry)
        # Self-metrics land in the registry *after* the tick, so the
        # pipeline's own cost shows up one tick later -- never recursing
        # into the tick that is being measured.  ``record_s`` is the
        # in-memory tick alone; flush cost is timed separately as
        # ``flush_s`` -- their sums together are the pipeline's total
        # accounted wall time (what BENCH_obs.json budgets).
        registry.counter("obs.pipeline.records").inc()
        registry.counter("obs.pipeline.samples").inc(len(samples))
        registry.histogram("obs.pipeline.record_s").observe(tick_elapsed)
        return len(samples)

    def _flush_locked(self, registry: Optional[MetricsRegistry]) -> None:
        """Drain the tick buffer: one block per series, one record."""
        if not self._pending:
            self._pending_ticks = 0
            return
        started = time.perf_counter()
        with self.store.writer() as writer:
            for metric, (times, values) in self._pending.items():
                writer.add(self._key(metric), times, values)
        self._pending.clear()
        self._pending_ticks = 0
        if registry is not None:
            registry.counter("obs.pipeline.flushes").inc()
            registry.histogram("obs.pipeline.flush_s").observe(
                time.perf_counter() - started
            )

    def flush(self) -> None:
        """Write any buffered ticks to the store now."""
        with self._lock:
            self._flush_locked(self._registry())

    # ------------------------------------------------------------------
    # Periodic mode (the serving tier's background cadence)
    # ------------------------------------------------------------------

    def start(self, interval_s: Optional[float] = None) -> "MetricsRecorder":
        """Record on a daemon thread every ``interval_s`` seconds."""
        if self._thread is not None:
            raise ObsError("recorder already started")
        if interval_s is not None:
            if interval_s <= 0.0:
                raise ObsError(f"interval_s must be positive, got {interval_s}")
            self.interval_s = float(interval_s)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"obs-recorder-{self.source}", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.record()

    def stop(self, final_record: bool = True) -> None:
        """Stop the periodic thread; optionally record one final tick.
        Buffered ticks are flushed either way."""
        if self._thread is None:
            self.flush()
            return
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._thread = None
        if final_record:
            self.record()
        self.flush()
