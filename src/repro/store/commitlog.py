"""The per-building commit log: one CRC-framed record per writer flush.

A weekly charging session reads every capsule of a building at once,
so a building's telemetry arrives in one burst per visit.
:class:`~repro.store.store.StoreWriter` makes such a burst durable with
one append and one fsync: ``segments/<building>/commit.log`` gains one
*record* that carries every touched series' block frame exactly as
:func:`~repro.store.segment.encode_block` made it.  A *fold*
(:meth:`~repro.store.segment.SegmentDir.fold`) later appends each
series' logged rows to its ``raw.seg`` as one block, and then the
folded records are dropped.

Layout (integers little-endian)::

    header   "RLOG" | base_seq u64 | crc32 u32                  16 bytes
    record   "RREC" | body_len u32 | crc32(body_len) u32 | body | crc32(body) u32
    body     index_len u32 | index JSON | frame | frame | ...

The index is compact JSON ``{"seq": N, "series": [[relpath, length, n,
t0, t1, crc32], ...]}``: one entry per frame, in frame order, where
``relpath`` is ``<wall>/n<id>/<metric>`` and the rest is the frame's
block metadata.  Record sequence numbers start after the header's
``base_seq`` and rise by one per record.  A fold replaces the log with
a header whose ``base_seq`` is the last sequence it folded, so numbers
never repeat, and each segment manifest records the last sequence
folded into it: readers skip the records it already holds.

A crash leaves complete records followed by at most one *torn* record,
a strict prefix of a record whose append never finished.  Readers
ignore it without touching the file, and the next lock holder cuts it.  A
complete record that fails a CRC, a record sequence that does not
advance, and bytes after the last complete record that are no prefix
of a record are corruption: :meth:`CommitLog.view` moves the log to
the store's quarantine directory and raises a loud
:class:`~repro.errors.SegmentError`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Mapping, NamedTuple, NoReturn, Optional, Sequence, Tuple

from ..errors import SegmentError
from ..faults.io import TMP_SUFFIX, io_fsync, io_read_bytes, io_replace, io_write, retry_io
from ..obs import obs_counter, obs_event
from ..runtime import crclog
from ..runtime.serialize import fsync_dir

LOG_FILENAME = "commit.log"

#: A log past this many bytes is folded by the flush that grew it.
#: Every read of a building re-reads its log, so the bound caps that
#: cost (about 0.25 ms per MiB); a 74-epoch pilot's log is 619 KB, so a
#: pilot-sized campaign folds only when it is compacted.
FOLD_BYTES = 1 << 20

LOG_MAGIC = b"RLOG"
RECORD_MAGIC = b"RREC"
_HEADER = struct.Struct("<4sQI")
_RECORD_HEAD = struct.Struct("<4sII")
_U32 = struct.Struct("<I")
HEADER_SIZE = _HEADER.size


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class LogCorrupt(Exception):
    """The log's bytes are damaged, not merely torn."""


class LogEntry(NamedTuple):
    """One series' frame inside one record."""

    seq: int
    length: int
    n: int
    t0: float
    t1: float
    crc32: int
    frame: bytes


class LogRecord(NamedTuple):
    """One complete record: where it starts and what it carries."""

    seq: int
    start: int
    entries: Tuple[Tuple[str, LogEntry], ...]


class LogView(NamedTuple):
    """The log as one read found it (immutable; shared across threads).

    Attributes:
        raw: The bytes up to the end of the last complete record (empty
            when the header is absent or torn).
        size: The file's size when read; bytes past ``raw`` are a torn
            record (or a torn header).
        base_seq: The header's base sequence.
        last_seq: The last complete record's sequence (``base_seq``
            when there is none).
        records: The complete records, oldest first.
        rows: Rows over every entry of every complete record.
        by_key: Each series' entries, oldest first.
    """

    raw: bytes
    size: int
    base_seq: int
    last_seq: int
    records: Tuple[LogRecord, ...]
    rows: int
    by_key: Mapping[str, Tuple[LogEntry, ...]]

    @property
    def torn(self) -> bool:
        return self.size > len(self.raw)

    def entries(self, relpath: str) -> Tuple[LogEntry, ...]:
        return self.by_key.get(relpath, ())


_EMPTY = LogView(b"", 0, 0, 0, (), 0, {})


def encode_header(base_seq: int) -> bytes:
    head = struct.pack("<4sQ", LOG_MAGIC, base_seq)
    return head + _U32.pack(_crc(head))


def encode_record(
    seq: int, series: Sequence[Tuple[str, bytes, Mapping[str, Any]]]
) -> bytes:
    """One record carrying ``(relpath, frame, block_meta)`` per series."""
    index = json.dumps(
        {
            "seq": seq,
            "series": [
                [rel, meta["length"], meta["n"], meta["t0"], meta["t1"], meta["crc32"]]
                for rel, _frame, meta in series
            ],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    body = b"".join(
        [_U32.pack(len(index)), index] + [frame for _rel, frame, _meta in series]
    )
    size = _U32.pack(len(body))
    return b"".join(
        (RECORD_MAGIC, size, _U32.pack(_crc(size)), body, _U32.pack(_crc(body)))
    )


def _decode_body(body: bytes) -> Tuple[int, Tuple[Tuple[str, LogEntry], ...]]:
    """``(seq, [(relpath, entry), ...])`` of a CRC-valid record body."""
    if len(body) < _U32.size:
        raise LogCorrupt("record body is too short")
    (index_len,) = _U32.unpack_from(body, 0)
    cursor = _U32.size + index_len
    try:
        index = json.loads(body[_U32.size:cursor].decode("utf-8"))
        seq = index["seq"]
        series = index["series"]
        if not isinstance(seq, int) or not isinstance(series, list):
            raise ValueError("malformed index")
        out = []
        for rel, length, n, t0, t1, crc in series:
            if not (
                isinstance(rel, str) and isinstance(length, int)
                and isinstance(n, int) and isinstance(crc, int)
            ):
                raise ValueError(f"malformed entry for {rel!r}")
            frame = body[cursor:cursor + length]
            if len(frame) != length:
                raise ValueError("frames overrun the record")
            cursor += length
            out.append((rel, LogEntry(seq, length, n, float(t0), float(t1), crc, frame)))
    except (ValueError, TypeError, KeyError, UnicodeDecodeError) as exc:
        raise LogCorrupt(f"record index is malformed: {exc}")
    if cursor != len(body):
        raise LogCorrupt("record frames do not fill its body")
    return seq, tuple(out)


def parse(raw: bytes, held: Optional[LogView] = None) -> LogView:
    """The view of a log whose file holds ``raw``.

    ``held`` is a view of an earlier read.  When ``raw`` still starts
    with its bytes, only the bytes after them are parsed.
    """
    size = len(raw)
    if held is not None and held.raw and raw.startswith(held.raw):
        view = held
    elif size < HEADER_SIZE:
        if raw[:4] != LOG_MAGIC[:size]:
            raise LogCorrupt("bytes before the log header is complete")
        return _EMPTY._replace(size=size)  # torn (or no) header
    else:
        magic, base, crc = _HEADER.unpack_from(raw)
        if magic != LOG_MAGIC or _crc(raw[:12]) != crc:
            raise LogCorrupt("log header failed its check")
        view = LogView(raw[:HEADER_SIZE], size, base, base, (), 0, {})
    cursor = len(view.raw)
    if cursor == size:
        return view._replace(size=size)
    last_seq, records, rows = view.last_seq, list(view.records), view.rows
    by_key: Dict[str, Tuple[LogEntry, ...]] = dict(view.by_key)
    while cursor < size:
        rest = size - cursor
        if rest < _RECORD_HEAD.size:
            if raw[cursor:cursor + 4] != RECORD_MAGIC[:rest]:
                raise LogCorrupt(f"bytes after the last record at byte {cursor}")
            break  # torn
        magic, body_len, len_crc = _RECORD_HEAD.unpack_from(raw, cursor)
        if magic != RECORD_MAGIC:
            raise LogCorrupt(f"no record at byte {cursor}")
        if _crc(raw[cursor + 4:cursor + 8]) != len_crc:
            raise LogCorrupt(f"record length at byte {cursor} failed its CRC")
        body_at = cursor + _RECORD_HEAD.size
        end = body_at + body_len + _U32.size
        if end > size:
            break  # torn
        body = raw[body_at:body_at + body_len]
        if _crc(body) != _U32.unpack_from(raw, end - _U32.size)[0]:
            raise LogCorrupt(f"record at byte {cursor} failed its CRC32")
        seq, entries = _decode_body(body)
        if seq != last_seq + 1:
            raise LogCorrupt(f"record sequence {seq} does not follow {last_seq}")
        for rel, entry in entries:
            by_key[rel] = by_key.get(rel, ()) + (entry,)
            rows += entry.n
        records.append(LogRecord(seq, cursor, entries))
        last_seq, cursor = seq, end
    return LogView(
        raw[:cursor], size, view.base_seq, last_seq, tuple(records), rows, by_key
    )


class CommitLog:
    """One building's commit log, with the view its last read parsed.

    :meth:`view` reads the whole file every call and reuses the held
    view's parse while the file still begins with the bytes it was
    parsed from, so any change that removes a record (a fold, a cut)
    is seen.  Mutators (:meth:`append`, :meth:`cut`,
    :meth:`cut_records`, :meth:`reset`) must hold the building's
    :class:`~repro.store.lock.PartitionLock`.

    Args:
        directory: The building's directory under ``segments/``.
        quarantine_root: Where a damaged log is moved.
    """

    def __init__(self, directory: Path, quarantine_root: Path):
        self.path = Path(directory) / LOG_FILENAME
        self._name = str(self.path)
        self.quarantine_root = Path(quarantine_root)
        self._held: Optional[LogView] = None

    def size(self) -> Optional[int]:
        """The log file's size, or None when there is none."""
        try:
            return os.stat(self._name).st_size
        except FileNotFoundError:
            return None

    def view(self) -> LogView:
        """The log as it is now.

        A damaged log is quarantined and raises a loud
        :class:`~repro.errors.SegmentError`.
        """
        try:
            raw = retry_io(
                lambda: io_read_bytes(self.path),
                f"commit_log_read:{self.path.parent.name}",
            )
        except FileNotFoundError:
            return _EMPTY
        except OSError as exc:
            raise SegmentError(f"cannot read {self.path}: {exc}")
        held = self._held
        if held is not None and held.size == len(raw) and not held.torn:
            if raw.startswith(held.raw):
                return held
        try:
            view = parse(raw, held)
        except LogCorrupt as exc:
            self._quarantine(str(exc))
        self._held = view
        return view

    def peek(self) -> Optional[LogView]:
        """:meth:`view`, or None when there is no log file.

        A log too short to hold a record (emptied by a fold) is not
        read: its size is enough.
        """
        size = self.size()
        if size is None or size <= HEADER_SIZE:
            return None if size is None else _EMPTY._replace(size=size)
        return self.view()

    def entries(self, relpath: str) -> Tuple[LogEntry, ...]:
        """``relpath``'s entries in the log as it is now (see :meth:`peek`)."""
        size = self.size()
        if size is None or size <= HEADER_SIZE:
            return ()
        return self.view().entries(relpath)

    def _quarantine(self, reason: str) -> NoReturn:
        """Move the log aside for forensics and raise loudly."""
        target = crclog.quarantine(
            self.path, self.quarantine_root,
            f"{self.path.parent.name}.{LOG_FILENAME}",
        )
        self._held = None
        if target is not None:  # else another reader moved it first
            obs_counter("store.quarantines").inc()
            obs_event(
                "warning", "store.log_quarantined",
                log=str(self.path), quarantined_to=str(target), reason=reason,
            )
        raise SegmentError(
            f"commit log {self.path} is corrupt (quarantined): {reason}"
        )

    def append(
        self, view: LogView, series: Sequence[Tuple[str, bytes, Mapping[str, Any]]]
    ) -> LogView:
        """Append one record after ``view``; returns the view with it.

        ``view`` must be this log as just read by the lock holder, with
        no torn tail (the store cuts one first).  The record is
        acknowledged once this returns; an error leaves the log at its
        previous length, so a failed append acknowledges nothing.
        """
        base = len(view.raw)
        data = encode_record(view.last_seq + 1, series)
        if not base:
            data = encode_header(view.base_seq) + data
        created = not self.path.exists()
        if created:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        crclog.append_bytes(
            self.path, data, base, f"commit_log_append:{self.path.parent.name}"
        )
        if created:
            fsync_dir(self.path.parent)  # the new log's name, before its ack
        appended = parse(view.raw + data, view if base else None)
        self._held = appended
        obs_counter("store.log_appends").inc()
        obs_counter("store.log_bytes").inc(len(data))
        return appended

    def cut(self, size: int, keep: int) -> None:
        """Cut a torn tail back to ``keep`` bytes (counted, logged)."""
        crclog.truncate_file(self.path, keep)
        obs_counter("store.truncations").inc()
        obs_event(
            "warning", "store.log_truncated",
            log=str(self.path), kept_bytes=keep, dropped_bytes=size - keep,
        )

    def cut_records(self, view: LogView, first: int) -> None:
        """Drop ``view.records[first:]`` (``truncate_from``; fsynced).

        The caller holds the lock and has checked that no manifest
        holds those records.
        """
        crclog.truncate_file(self.path, view.records[first].start)
        self._held = None
        obs_counter("store.log_records_cut").inc(len(view.records) - first)

    def reset(self, base_seq: int) -> None:
        """Replace the log with an empty one after ``base_seq`` (a fold).

        Written beside the log and renamed over it, so a crash leaves
        either the old log or the new one.  Its records are dropped, so
        the caller must have made every manifest covering them durable.
        """
        tmp = self.path.with_name(self.path.name + TMP_SUFFIX)
        header = encode_header(base_seq)

        def attempt() -> None:
            with tmp.open("wb") as handle:
                io_write(handle, header)
                handle.flush()
                io_fsync(handle.fileno(), tmp)
            io_replace(tmp, self.path)

        try:
            retry_io(attempt, f"commit_log_reset:{self.path.parent.name}")
        except BaseException:
            if tmp.exists():
                tmp.unlink()
            raise
        fsync_dir(self.path.parent)
        self._held = None
