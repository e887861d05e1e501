"""The embedded telemetry store: a directory of durable series segments.

:class:`TelemetryStore` is the subsystem's root object -- open (or
create) a store directory, obtain a batched :class:`StoreWriter`, and
every flushed batch becomes one CRC'd columnar block acknowledged by
one line in the owning segment's journal.  Reads go through
:meth:`TelemetryStore.read` (or the higher-level query engine in
:mod:`repro.store.query`); neither ever returns silently wrong data --
corruption surfaces as a :class:`~repro.errors.SegmentError`.

Layout::

    <root>/store.json                  # repro/store/v1 marker
    <root>/segments/<building>/<wall>/n<id>/<metric>/
        manifest.json                  # repro/store-segment/v2
        journal.jsonl                  # blocks appended since
        raw.seg  hourly.seg  daily.seg
    <root>/.quarantine/                # corrupt segments, moved aside

The time base is *hours* as float64 -- the campaign's native clock --
but nothing in the store interprets it beyond ordering and the rollup
bucket widths (1 h, 24 h).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import StoreError
from ..faults.io import reclaim_tmp_files
from ..obs import obs_counter, obs_event
from ..runtime.serialize import write_json_atomic
from .keys import SeriesKey
from .lock import PartitionLock
from .segment import MANIFEST_FILENAME, RAW, RESOLUTIONS, SegmentDir

#: Schema tag for the store-level marker file.
STORE_SCHEMA = "repro/store/v1"

STORE_MARKER_FILENAME = "store.json"
SEGMENTS_DIRNAME = "segments"
QUARANTINE_DIRNAME = ".quarantine"


def _subdirs(path: str) -> List[str]:
    """The sorted names of the directories in ``path``.

    Empty when ``path`` is absent, not a directory, or unreadable --
    including a segment a concurrent quarantine moved mid-walk.
    """
    try:
        with os.scandir(path) as entries:
            return sorted(entry.name for entry in entries if entry.is_dir())
    except OSError:
        return []


class TelemetryStore:
    """One on-disk telemetry store.

    Args:
        root: The store directory.  Created (with its ``store.json``
            marker) when absent and ``create`` is True.
        create: Refuse to create a missing store when False -- the
            read-only verbs (query, serve, stats) use this so a typo'd
            path fails loudly instead of materialising an empty store.
    """

    def __init__(self, root: Union[str, Path], create: bool = True):
        self.root = Path(root)
        #: (open marker handle, its inode, the generation read from it).
        self._generation_cache: Optional[Tuple[IO[bytes], int, int]] = None
        #: One segment object per series on disk; see :meth:`segment`.
        self._segments: Dict[SeriesKey, SegmentDir] = {}
        self._segments_lock = threading.Lock()
        marker = self.root / STORE_MARKER_FILENAME
        if marker.exists():
            try:
                payload = json.loads(marker.read_text())
            except (OSError, ValueError) as exc:
                raise StoreError(f"unreadable store marker {marker}: {exc}")
            if not isinstance(payload, dict) or payload.get("schema") != STORE_SCHEMA:
                raise StoreError(
                    f"{self.root} is not a telemetry store "
                    f"(marker schema {payload.get('schema') if isinstance(payload, dict) else None!r}, "
                    f"expected {STORE_SCHEMA!r})"
                )
        elif create:
            # A crashed earlier creation attempt may have leaked the
            # marker's temp file; only the root is swept (building
            # partitions belong to whoever holds their lock).
            reclaim_tmp_files(self.root, recursive=False, scope="store")
            write_json_atomic(
                marker,
                {"schema": STORE_SCHEMA, "time_unit": "hours", "generation": 0},
            )
        else:
            raise StoreError(
                f"no telemetry store at {self.root} (missing {marker.name})"
            )

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    @property
    def segments_dir(self) -> Path:
        return self.root / SEGMENTS_DIRNAME

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    # ------------------------------------------------------------------
    # Generation (rollup-cache invalidation)
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The store's compaction generation (0 for pre-generation stores).

        Persisted in ``store.json`` and bumped by every operation that
        rewrites rollup bytes in place (:meth:`compact`,
        :meth:`truncate_from`), so serving-tier caches keyed on it can
        never return pre-compaction data.  Cross-process visible at the
        cost of one ``stat`` per access: the marker is only ever
        replaced by rename, so it is re-read whenever the file at its
        path is no longer the inode the cached value came from.  That
        inode is held open, so its number cannot be recycled by a later
        marker -- not even by two bumps inside one mtime tick.
        """
        marker = self.root / STORE_MARKER_FILENAME
        try:
            inode = os.stat(marker).st_ino
        except OSError:
            return 0
        cached = self._generation_cache
        if cached is not None and cached[1] == inode:
            return cached[2]
        try:
            handle = open(marker, "rb")
        except OSError:
            return 0
        try:
            payload = json.loads(handle.read())
        except (OSError, ValueError):
            # Racing an atomic rewrite; next access re-reads.
            handle.close()
            return 0
        value = (
            int(payload.get("generation", 0))
            if isinstance(payload, dict) else 0
        )
        self._set_generation_cache(
            (handle, os.fstat(handle.fileno()).st_ino, value)
        )
        return value

    def _set_generation_cache(
        self, entry: Optional[Tuple[IO[bytes], int, int]]
    ) -> None:
        previous, self._generation_cache = self._generation_cache, entry
        if previous is not None:
            previous[0].close()

    def __del__(self) -> None:
        if getattr(self, "_generation_cache", None) is not None:
            self._set_generation_cache(None)

    def bump_generation(self) -> int:
        """Advance and persist the generation; returns the new value."""
        marker = self.root / STORE_MARKER_FILENAME
        try:
            payload = json.loads(marker.read_text())
        except (OSError, ValueError):
            payload = {"schema": STORE_SCHEMA, "time_unit": "hours"}
        if not isinstance(payload, dict):
            payload = {"schema": STORE_SCHEMA, "time_unit": "hours"}
        value = int(payload.get("generation", 0)) + 1
        payload["generation"] = value
        write_json_atomic(marker, payload)
        self._set_generation_cache(None)
        obs_counter("store.generation_bumps").inc()
        return value

    def segment(self, key: SeriesKey) -> SegmentDir:
        """``key``'s segment directory, starting a new use of its index.

        The store holds one :class:`SegmentDir` per series on disk, so
        an index parsed by one query is reused by the next one whenever
        the journal and manifest bytes are unchanged.  A key with no
        directory gets a throwaway object, so requests for absent
        series cannot grow the map.
        """
        segment = self._segments.get(key)
        if segment is None:
            segment = SegmentDir(
                self.segments_dir / key.relpath,
                key.to_dict(),
                self.quarantine_dir,
            )
            if segment.directory.is_dir():
                with self._segments_lock:
                    segment = self._segments.setdefault(key, segment)
        segment.begin_use()
        return segment

    def keys(self) -> List[SeriesKey]:
        """Every series in the store, sorted.

        Walks the four directory levels under ``segments/`` on every
        call: a directory's mtime cannot tell two changes inside one
        tick apart, so a cached listing could miss a new series.
        """
        # (path parts, directory) pairs, one level deeper per pass.
        level: List[Tuple[Tuple[str, ...], str]] = [((), str(self.segments_dir))]
        for _depth in range(4):  # building, wall, node, metric
            level = [
                (parts + (name,), f"{directory}/{name}")
                for parts, directory in level
                for name in _subdirs(directory)
            ]
        found: List[SeriesKey] = []
        for parts, directory in level:
            if not os.path.exists(f"{directory}/{MANIFEST_FILENAME}"):
                continue
            try:
                found.append(SeriesKey.from_path_parts(parts))
            except StoreError:
                # Not a segment directory we recognise; skip loudly.
                obs_event(
                    "warning", "store.unrecognised_segment", path=directory,
                )
        return sorted(found)

    # ------------------------------------------------------------------
    # Write / read
    # ------------------------------------------------------------------

    def writer(
        self,
        flush_rows: int = 200_000,
        durable: bool = True,
        lock: bool = True,
    ) -> "StoreWriter":
        """A batched writer (use as a context manager to auto-flush).

        ``durable=False`` skips per-block fsyncs -- see
        :meth:`.segment.SegmentDir.append_block`; only loss-tolerant
        writers (the ``_obs`` telemetry pipeline) should opt in.

        ``lock=True`` (the default) takes an advisory
        :class:`~repro.store.lock.PartitionLock` per building on first
        ingest into it, so two processes cannot append to the same
        building partition concurrently -- see :mod:`repro.store.lock`.
        """
        return StoreWriter(
            self, flush_rows=flush_rows, durable=durable, lock=lock
        )

    def append(
        self,
        key: SeriesKey,
        timestamps: Sequence[float],
        values: Sequence[float],
    ) -> int:
        """One-shot append of a (timestamps, values) batch to a series."""
        with self.writer() as writer:
            writer.add(key, timestamps, values)
        return len(timestamps)

    def read(
        self,
        key: SeriesKey,
        resolution: str = RAW,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> Dict[str, np.ndarray]:
        """Column arrays for ``key`` over ``[t0, t1]`` at ``resolution``."""
        return self.segment(key).read(resolution, t0=t0, t1=t1)

    def truncate_from(
        self, t: float, keys: Optional[Iterable[SeriesKey]] = None
    ) -> int:
        """Drop every sample at hour ``t`` or later; returns rows dropped.

        The campaign resume path: epochs past the checkpoint boundary
        will be replayed and re-exported, so their earlier exports are
        cut first (rollups are cleared and left to the next compact).
        """
        dropped = 0
        for key in (self.keys() if keys is None else keys):
            dropped += self.segment(key).truncate_from(t)
        if dropped:
            # Rollups were cleared in place: stale cached blocks must die.
            self.bump_generation()
            obs_counter("store.rows_truncated").inc(dropped)
            obs_event(
                "info", "store.truncated_from", t=t, rows_dropped=dropped,
            )
        return dropped

    def compact(self) -> Dict[str, Any]:
        """Deterministic multi-resolution rollups; see :mod:`.compact`."""
        from .compact import compact_store

        return compact_store(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of what the store holds."""
        series = []
        totals = {res: {"rows": 0, "bytes": 0, "blocks": 0} for res in RESOLUTIONS}
        for key in self.keys():
            segment = self.segment(key)
            entry: Dict[str, Any] = {"key": key.to_dict()}
            for res in RESOLUTIONS:
                info = segment.file_entry(res)
                entry[res] = {
                    "rows": info["rows"],
                    "bytes": info["bytes"],
                    "blocks": len(info["blocks"]),
                }
                totals[res]["rows"] += info["rows"]
                totals[res]["bytes"] += info["bytes"]
                totals[res]["blocks"] += len(info["blocks"])
            span = segment.time_range(RAW)
            entry["t0"], entry["t1"] = (span if span else (None, None))
            series.append(entry)
        quarantined = (
            sorted(p.name for p in self.quarantine_dir.iterdir())
            if self.quarantine_dir.is_dir()
            else []
        )
        return {
            "schema": STORE_SCHEMA,
            "root": str(self.root),
            "series": series,
            "series_count": len(series),
            "totals": totals,
            "quarantined": quarantined,
        }


class StoreWriter:
    """Batched, vectorized ingestion into a :class:`TelemetryStore`.

    Samples accumulate in per-series numpy buffers; :meth:`flush` turns
    each touched series' buffer into *one* appended block (sorted key
    order, so two identical ingest sequences produce identical stores).
    Crossing ``flush_rows`` buffered rows triggers an automatic flush.

    Not thread-safe: one writer per ingesting thread.  Against other
    *processes*, the first ingest into each building takes that
    building's advisory :class:`~repro.store.lock.PartitionLock`, held
    until the writer's context exits (stale locks from dead writers are
    reclaimed loudly; a live foreign writer raises
    :class:`~repro.errors.PartitionLockError`).
    """

    def __init__(
        self,
        store: TelemetryStore,
        flush_rows: int = 200_000,
        durable: bool = True,
        lock: bool = True,
    ):
        if flush_rows < 1:
            raise StoreError(f"flush_rows must be >= 1, got {flush_rows}")
        self.store = store
        self.flush_rows = flush_rows
        self.durable = durable
        self.lock_partitions = lock
        self._locks: Dict[str, PartitionLock] = {}
        self._buffers: Dict[SeriesKey, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._buffered_rows = 0
        self.rows_written = 0

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.flush()
        finally:
            self.close()

    def close(self) -> None:
        """Release every held partition lock (idempotent)."""
        locks, self._locks = self._locks, {}
        for held in locks.values():
            held.release()

    def _lock_building(self, building: str) -> None:
        if not self.lock_partitions or building in self._locks:
            return
        self._locks[building] = PartitionLock(
            self.store.segments_dir, building
        ).acquire()
        # Holding the lock makes the sweep race-free: any *.tmp under
        # this building was leaked by a dead writer.
        reclaim_tmp_files(
            self.store.segments_dir / building, recursive=True, scope="store"
        )

    # ------------------------------------------------------------------

    def add(
        self,
        key: SeriesKey,
        timestamps: Sequence[float],
        values: Sequence[float],
    ) -> None:
        """Buffer a batch of ``(timestamp, value)`` samples for ``key``."""
        t = np.ascontiguousarray(timestamps, dtype=np.float64)
        v = np.ascontiguousarray(values, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape:
            raise StoreError(
                f"timestamps/values must be equal-length vectors, got "
                f"{t.shape} and {v.shape}"
            )
        if t.size == 0:
            return
        self._lock_building(key.building)
        self._buffers.setdefault(key, []).append((t, v))
        self._buffered_rows += t.size
        if self._buffered_rows >= self.flush_rows:
            self.flush()

    def add_sample(self, key: SeriesKey, t: float, value: float) -> None:
        """Buffer one sample."""
        self.add(key, np.array([t]), np.array([value]))

    def flush(self) -> int:
        """Write every buffered series as one block each; returns rows."""
        if not self._buffers:
            return 0
        flushed = 0
        for key in sorted(self._buffers):
            chunks = self._buffers[key]
            t = np.concatenate([c[0] for c in chunks])
            v = np.concatenate([c[1] for c in chunks])
            if t.size > 1 and bool(np.any(np.diff(t) < 0.0)):
                order = np.argsort(t, kind="stable")
                t, v = t[order], v[order]
            self.store.segment(key).append_block(
                RAW, [t, v], durable=self.durable
            )
            flushed += t.size
        self._buffers.clear()
        self._buffered_rows = 0
        self.rows_written += flushed
        obs_counter("store.rows_ingested").inc(flushed)
        obs_counter("store.flushes").inc()
        return flushed
