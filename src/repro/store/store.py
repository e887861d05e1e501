"""The embedded telemetry store: a directory of durable series segments.

:class:`TelemetryStore` is the subsystem's root object -- open (or
create) a store directory, obtain a batched :class:`StoreWriter`, and
every flush becomes one record per building in that building's commit
log (:mod:`repro.store.commitlog`), written and fsynced once: each
touched series' batch is one CRC'd columnar block inside it.  A fold
copies logged blocks into the per-series segments
(:mod:`repro.store.segment`) under the building's partition lock
(:mod:`repro.store.lock`); compaction, ``truncate_from`` and a log
grown past :data:`~repro.store.commitlog.FOLD_BYTES` run one.  Reads go
through :meth:`TelemetryStore.read` (or the higher-level query engine
in :mod:`repro.store.query`, which rolls raw up into hourly and daily
buckets) and merge the unfolded records in; neither ever returns
silently wrong data -- corruption surfaces as a
:class:`~repro.errors.SegmentError`.

Layout::

    <root>/store.json                  # repro/store/v1 marker
    <root>/segments/<building>/
        commit.log                     # records not folded yet
        .writer.lock                   # the partition lock
        <wall>/n<id>/<metric>/
            manifest.json              # repro/store-segment/v2
            raw.seg
    <root>/.quarantine/                # corrupt segments and logs, moved aside

The time base is *hours* as float64 -- the campaign's native clock --
but nothing in the store interprets it beyond ordering and the rollup
bucket widths (1 h, 24 h).

The store *generation* in ``store.json`` lets a reader tell whether a
result it computed earlier still holds: within one generation each
building's commit log only grows, and every other change to what a
read returns happens under a partition lock that bumps the generation
before releasing it -- a fold that moved records, a torn-tail cut,
``truncate_from``.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from pathlib import Path
from typing import (
    IO, Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..errors import SegmentError, StoreError
from ..faults.io import reclaim_tmp_files
from ..obs import obs_counter, obs_event
from ..runtime.serialize import write_json_atomic
from .commitlog import FOLD_BYTES, LOG_FILENAME, CommitLog, LogView
from .compact import compact_store
from .keys import SeriesKey, by_building
from .lock import PartitionLock
from .segment import MANIFEST_FILENAME, RAW_COLUMNS, SegmentDir, encode_block

#: Schema tag for the store-level marker file.
STORE_SCHEMA = "repro/store/v1"

STORE_MARKER_FILENAME = "store.json"
SEGMENTS_DIRNAME = "segments"
QUARANTINE_DIRNAME = ".quarantine"

#: A series' frames in a commit record: ``(key, frame bytes, block meta)``.
Batch = List[Tuple[SeriesKey, bytes, Dict[str, Any]]]


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


def log_key(key: SeriesKey) -> str:
    """``key``'s name in its building's commit-log records."""
    return f"{key.wall}/{key.node_dirname}/{key.metric}"


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
        #: One commit log per building; see :meth:`commit_log`.
        self._logs: Dict[str, CommitLog] = {}
        self._segments_lock = threading.Lock()
        marker = self.root / STORE_MARKER_FILENAME
        if marker.exists():
            payload = self._read_marker()
            if payload.get("schema") != STORE_SCHEMA:
                raise StoreError(
                    f"{self.root} is not a telemetry store "
                    f"(marker schema {payload.get('schema')!r}, "
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
    # Generation (cache invalidation)
    # ------------------------------------------------------------------

    def _read_marker(self, handle: Optional[IO[bytes]] = None) -> Dict[str, Any]:
        """``store.json``'s object, read from ``handle`` when given.

        A marker that cannot be read or parsed raises a loud
        :class:`~repro.errors.StoreError` naming it.
        """
        marker = self.root / STORE_MARKER_FILENAME
        try:
            payload = json.loads(handle.read() if handle else marker.read_bytes())
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable store marker {marker}: {exc}")
        if not isinstance(payload, dict):
            raise StoreError(f"unreadable store marker {marker}: not an object")
        return payload

    @property
    def generation(self) -> int:
        """The store's generation (0 for a marker without one).

        See the module docstring for when it is bumped.  Cross-process
        visible at the cost of one ``stat`` per access: the marker is
        only ever replaced by rename, so it is re-read whenever the file
        at its path is no longer the inode the cached value came from.
        That inode is held open, so its number cannot be recycled by a
        later marker -- not even by two bumps inside one mtime tick.
        An unreadable marker raises :class:`~repro.errors.StoreError`.
        """
        marker = self.root / STORE_MARKER_FILENAME
        try:
            inode = os.stat(marker).st_ino
            cached = self._generation_cache
            if cached is not None and cached[1] == inode:
                return cached[2]
            handle = open(marker, "rb")
        except OSError as exc:
            raise StoreError(f"unreadable store marker {marker}: {exc}")
        try:
            value = int(self._read_marker(handle).get("generation", 0))
        except BaseException:
            handle.close()
            raise
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
        payload = self._read_marker()
        value = int(payload.get("generation", 0)) + 1
        payload["generation"] = value
        write_json_atomic(self.root / STORE_MARKER_FILENAME, payload)
        self._set_generation_cache(None)
        obs_counter("store.generation_bumps").inc()
        return value

    # ------------------------------------------------------------------
    # Commit logs and partitions
    # ------------------------------------------------------------------

    def commit_log(self, building: str) -> CommitLog:
        """``building``'s commit log: one object per building on disk.

        A building with no directory gets a throwaway object, as an
        absent series does in :meth:`segment`.
        """
        log = self._logs.get(building)
        if log is None:
            log = CommitLog(self.segments_dir / building, self.quarantine_dir)
            if log.path.parent.is_dir():
                with self._segments_lock:
                    log = self._logs.setdefault(building, log)
        return log

    def log_size(self, building: str) -> Optional[int]:
        """``building``'s commit-log size, or None when it has none.

        Unlike :meth:`commit_log` it keeps nothing, so any name will do.
        """
        try:
            return os.stat(self.segments_dir / building / LOG_FILENAME).st_size
        except OSError:
            return None

    def lock_partition(self, building: str) -> PartitionLock:
        """Take ``building``'s partition lock and sweep its leaked temps.

        Holding the lock makes the sweep race-free: every mutator of the
        partition holds it, so any ``*.tmp`` under it was leaked by a
        dead one.
        """
        lock = PartitionLock(self.segments_dir, building).acquire()
        try:
            reclaim_tmp_files(
                self.segments_dir / building, recursive=True, scope="store"
            )
        except BaseException:
            lock.release()
            raise
        return lock

    @contextlib.contextmanager
    def partition(self, building: str) -> Iterator[None]:
        """Hold ``building``'s partition lock for the ``with`` body."""
        lock = self.lock_partition(building)
        try:
            yield
        finally:
            lock.release()

    def _log_view(self, building: str) -> LogView:
        """``building``'s log, any torn tail cut (the caller holds the lock).

        A cut shrinks the log, so it bumps the generation.
        """
        log = self.commit_log(building)
        view = log.view()
        if view.torn:
            log.cut(view.size, len(view.raw))
            self.bump_generation()
            view = view._replace(size=len(view.raw))
        return view

    def fold_partition(
        self, building: str
    ) -> Tuple[int, Dict[SeriesKey, SegmentDir]]:
        """Fold ``building``'s commit log into its segments.

        The caller holds the building's partition lock.  Each series'
        logged rows are appended to its ``raw.seg`` as one block and its
        manifest written and read back (:meth:`SegmentDir.fold`); then
        the log is replaced by an empty one.  The generation is bumped
        on both sides of that reset: before it, so no result cached
        while the log was last this short can match again; after it, so
        none cached during the fold can match once the log regrows.

        Returns the rows folded and the building's segments, each in a
        use this thread started: one that folded holds the index its
        fold wrote and read back, so reading it needs no manifest read.
        """
        view = self._log_view(building)
        if not view.records:
            return 0, {}
        rows = 0
        folded = {}
        for key in self._building_keys(building, view):
            folded[key] = segment = self.segment(key)
            rows += segment.fold(view.entries(log_key(key)))
        self.bump_generation()
        self.commit_log(building).reset(view.last_seq)
        self.bump_generation()
        obs_counter("store.folds").inc()
        obs_counter("store.rows_folded").inc(rows)
        obs_event(
            "info", "store.folded", building=building,
            records=len(view.records), rows=rows,
        )
        return rows, folded

    # ------------------------------------------------------------------
    # Series
    # ------------------------------------------------------------------

    def segment(self, key: SeriesKey) -> SegmentDir:
        """``key``'s segment directory, starting a new use of its index.

        The store holds one :class:`SegmentDir` per series on disk, so
        an index parsed by one query is reused by the next one whenever
        the log entries and manifest it was built from are unchanged.
        A key with no directory gets a throwaway object, so requests for
        absent series cannot grow the map.
        """
        segment = self._segments.get(key)
        if segment is None:
            segment = SegmentDir(
                self.segments_dir / key.relpath,
                key.to_dict(),
                self.quarantine_dir,
                log=self.commit_log(key.building),
                log_key=log_key(key),
            )
            if segment.directory.is_dir():
                with self._segments_lock:
                    segment = self._segments.setdefault(key, segment)
        segment.begin_use()
        return segment

    def _building_keys(
        self, building: str, view: Optional[LogView] = None
    ) -> List[SeriesKey]:
        """Every series of ``building``, sorted: segments, then log-only.

        Walks the three directory levels under the building, then adds
        the series its commit log holds (``view``, or read here when
        the building has a log with records).
        """
        # (path parts, directory) pairs, one level deeper per pass.
        level: List[Tuple[Tuple[str, ...], str]] = [
            ((building,), f"{self.segments_dir}/{building}")
        ]
        for _depth in range(3):  # wall, node, metric
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
        if view is None:
            view = self.commit_log(building).peek()
        logged = []
        for name in view.by_key if view is not None else ():
            try:
                logged.append(
                    SeriesKey.from_path_parts((building, *name.split("/")))
                )
            except StoreError:
                obs_event(
                    "warning", "store.unrecognised_segment",
                    path=f"{building}/{LOG_FILENAME}:{name}",
                )
        if logged:
            found = sorted(set(found).union(logged))
        return found

    def buildings(self) -> List[str]:
        """Every building in the store, sorted (one directory listing)."""
        return _subdirs(str(self.segments_dir))

    def keys(self) -> List[SeriesKey]:
        """Every series in the store, sorted, logged-only ones included.

        Walks the directory levels under ``segments/`` on every call: a
        directory's mtime cannot tell two changes inside one tick apart,
        so a cached listing could miss a new series.
        """
        found: List[SeriesKey] = []
        for building in self.buildings():
            found.extend(self._building_keys(building))
        return sorted(found)

    # ------------------------------------------------------------------
    # Write / read
    # ------------------------------------------------------------------

    def writer(self, flush_rows: int = 200_000) -> "StoreWriter":
        """A batched writer (use as a context manager to auto-flush).

        It takes each building's :class:`~repro.store.lock.PartitionLock`
        on first ingest into it and holds it until the writer closes --
        see :mod:`repro.store.lock`.
        """
        return StoreWriter(self, flush_rows=flush_rows)

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

    def _check_commit(self, building: str, batch: Batch) -> Tuple[LogView, list]:
        """``(log view, record series)`` for ``batch``, or raise.

        Each block must not start before its series' last acknowledged
        ``t1``, whether that block is folded or still in the log.  A log
        that has no header yet (never written, or moved to quarantine)
        starts after the last record any of the building's manifests
        folded, so record numbers never repeat.
        """
        view = self._log_view(building)
        if not view.raw:
            base = max(
                (self.segment(key).log_state()[0]
                 for key in self._building_keys(building, view)),
                default=0,
            )
            view = view._replace(base_seq=base, last_seq=base)
        series = []
        for key, frame, meta in batch:
            name = log_key(key)
            logged = view.entries(name)
            if logged:
                last_t1: Optional[float] = logged[-1].t1
            else:
                folded, last_t1 = self.segment(key).log_state()
                if folded > view.last_seq:
                    raise SegmentError(
                        f"commit log of {building!r} ends at record "
                        f"{view.last_seq} but {key.relpath} already folded "
                        f"record {folded}"
                    )
            if last_t1 is not None and meta["t0"] < last_t1:
                raise StoreError(
                    f"out-of-order append to {key.relpath}: block starts at "
                    f"t={meta['t0']} before the series' last t={last_t1}"
                )
            series.append((name, frame, meta))
        return view, series

    def read(
        self,
        key: SeriesKey,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> Dict[str, np.ndarray]:
        """``key``'s raw ``(t, value)`` columns over ``[t0, t1]``."""
        return self.segment(key).read(t0=t0, t1=t1)

    def truncate_from(
        self, t: float, keys: Optional[Iterable[SeriesKey]] = None
    ) -> int:
        """Drop every sample at hour ``t`` or later; returns rows dropped.

        The campaign resume path: epochs past the checkpoint boundary
        will be replayed and re-exported, so their earlier exports are
        cut first.  Only ``keys`` (default: every series) are cut.  Each
        building is handled under its partition lock, which bumps the
        generation before it is released when anything was cut.
        Trailing commit-log records that hold only those keys' rows at
        or after ``t`` are cut from the log; if other logged rows of
        those keys remain at or after ``t``, the log is folded before
        the segments are cut.  A resume with nothing to cut leaves the
        log alone.
        """
        dropped = 0
        for building, group in by_building(
            self.keys() if keys is None else keys
        ).items():
            with self.partition(building):
                cut = self._cut_log_tail(building, group, t)
                view = self._log_view(building)
                if any(
                    entry.t1 >= t
                    for key in group for entry in view.entries(log_key(key))
                ):
                    self.fold_partition(building)
                    view = self.commit_log(building).view()
                for key in group:
                    logged = view.entries(log_key(key))
                    if not logged or logged[-1].t1 >= t:
                        # Otherwise its newest rows, in the log, are all
                        # before t: there is nothing to cut.
                        cut += self.segment(key).truncate_from(t)
                if cut:
                    self.bump_generation()
            dropped += cut
        if dropped:
            obs_counter("store.rows_truncated").inc(dropped)
            obs_event(
                "info", "store.truncated_from", t=t, rows_dropped=dropped,
            )
        return dropped

    def _cut_log_tail(self, building: str, group: List[SeriesKey], t: float) -> int:
        """Cut the trailing records holding only ``group``'s rows at or
        after ``t``; returns the rows cut.

        Records a manifest already holds (a fold a crash interrupted)
        are never cut; those rows are cut from the segments instead.
        """
        view = self._log_view(building)
        names = {log_key(key): key for key in group}
        first = len(view.records)
        while first and all(
            name in names and entry.t0 >= t
            for name, entry in view.records[first - 1].entries
        ):
            first -= 1
        cut = view.records[first:]
        if not cut:
            return 0
        touched = {name for record in cut for name, _entry in record.entries}
        if any(
            self.segment(names[name]).log_state()[0] >= cut[0].seq
            for name in touched
        ):
            return 0
        self.commit_log(building).cut_records(view, first)
        rows = sum(entry.n for record in cut for _name, entry in record.entries)
        obs_event(
            "info", "store.log_cut", building=building,
            records=len(cut), rows=rows,
        )
        return rows

    def compact(self) -> Dict[str, Any]:
        """Fold every building's commit log; see :mod:`.compact`."""
        return compact_store(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of what the store holds.

        ``logs`` reports each building's commit log: its complete
        records, their rows and the file's bytes -- what the next fold
        will copy into the segments.
        """
        series = []
        totals = {"rows": 0, "bytes": 0, "blocks": 0}
        for key in self.keys():
            segment = self.segment(key)
            info = segment.file_entry()
            raw = {
                "rows": info["rows"],
                "bytes": info["bytes"],
                "blocks": len(info["blocks"]),
            }
            for name, value in raw.items():
                totals[name] += value
            span = segment.time_range()
            t0, t1 = span if span else (None, None)
            series.append({"key": key.to_dict(), "raw": raw, "t0": t0, "t1": t1})
        logs = {}
        for building in self.buildings():
            view = self.commit_log(building).peek()
            if view is not None:
                logs[building] = {
                    "records": len(view.records), "rows": view.rows,
                    "bytes": view.size,
                }
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
            "totals": {"raw": totals},
            "logs": logs,
            "quarantined": quarantined,
        }


class StoreWriter:
    """Batched, vectorized ingestion into a :class:`TelemetryStore`.

    Samples accumulate in per-series numpy buffers; :meth:`flush` turns
    each touched series' buffer into *one* block (sorted key order, so
    two identical ingest sequences produce identical stores) and each
    touched building's blocks into one commit-log record.  Crossing
    ``flush_rows`` buffered rows triggers an automatic flush.

    Not thread-safe: one writer per ingesting thread.  Against other
    writers and mutators, the first ingest into each building takes
    that building's :class:`~repro.store.lock.PartitionLock`, held
    until the writer's context exits (a live holder is waited for, up
    to a bound; then :class:`~repro.errors.PartitionLockError`).
    """

    def __init__(self, store: TelemetryStore, flush_rows: int = 200_000):
        if flush_rows < 1:
            raise StoreError(f"flush_rows must be >= 1, got {flush_rows}")
        self.store = store
        self.flush_rows = flush_rows
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
        if building not in self._locks:
            self._locks[building] = self.store.lock_partition(building)

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
        """Commit every buffered series, one record per building; returns rows.

        Every block is encoded and checked before any record is
        written, so a flush refused for bad data acknowledges nothing.
        A record is acknowledged once its fsynced append returns, and
        its series leave the buffers then: a flush that fails at a
        later building and is retried commits only what is left.  A
        log grown past :data:`~repro.store.commitlog.FOLD_BYTES` is
        folded here.
        """
        if not self._buffers:
            return 0
        batches: Dict[str, Batch] = {}
        flushed = 0
        for key in sorted(self._buffers):
            chunks = self._buffers[key]
            t = np.concatenate([c[0] for c in chunks])
            v = np.concatenate([c[1] for c in chunks])
            if t.size > 1 and bool(np.any(np.diff(t) < 0.0)):
                order = np.argsort(t, kind="stable")
                t, v = t[order], v[order]
            frame, meta = encode_block(RAW_COLUMNS, [t, v])
            batches.setdefault(key.building, []).append((key, frame, meta))
            flushed += t.size
        checked = [
            (building, self.store._check_commit(building, batch))
            for building, batch in batches.items()
        ]
        for building, (view, series) in checked:
            log = self.store.commit_log(building)
            appended = log.append(view, series)
            for key, _frame, meta in batches[building]:
                del self._buffers[key]
                self._buffered_rows -= meta["n"]
                self.rows_written += meta["n"]
            if appended.size > FOLD_BYTES:
                self.store.fold_partition(building)
        obs_counter("store.rows_ingested").inc(flushed)
        obs_counter("store.flushes").inc()
        return flushed
