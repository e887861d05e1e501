"""Append-only columnar segments with per-block CRC32 and a manifest.

One *segment directory* holds everything the store keeps of one
series: the append-only binary file ``raw.seg`` and one canonical-JSON
``manifest.json`` (schema ``repro/store-segment/v2``) indexing every
block -- offset, length, row count, time range and CRC32.  Hourly and
daily rollups are not stored: the query engine
(:mod:`repro.store.query`) rolls raw up on every read.

Raw blocks are acknowledged first by the building's commit log
(:mod:`repro.store.commitlog`), one record per writer flush.  A series'
index is its manifest plus the log's entries for it that the manifest
does not yet hold: each manifest records ``log_seq``, the last log
sequence folded into it, and readers skip the entries up to it.
:meth:`SegmentDir.fold` -- run under the building's partition lock --
decodes those frames (checking each one's CRC32), appends their rows
to ``raw.seg`` as one block and fsyncs it, then writes the manifest
and reads it back; only after that may the log drop them.  The
durability idioms mirror the campaign runtime's
(:mod:`repro.campaign.checkpoint` / :mod:`repro.campaign.log`):

* the manifest is replaced by fsync-then-rename and only ever indexes
  bytes that are already on the platters;
* bytes past the acknowledged length (a fold or append whose manifest
  write never happened) are truncated away by the next mutator --
  loss bounded to what nothing acknowledged;
* a file *shorter* than acknowledged, a block whose CRC32 does not
  match, or an unparseable manifest is real corruption: the segment is
  quarantined to ``.quarantine/`` (forensic evidence, never deleted)
  and the access raises a loud :class:`~repro.errors.SegmentError` --
  the failure mode is always "recovered" or "loud error", never a
  silently wrong query result.

Stores written before the commit log acknowledged blocks with a
per-segment ``journal.jsonl``, and before that tagged their manifests
``repro/store-segment/v1``.  Neither is read: the first access to a
segment that still holds either raises a
:class:`~repro.errors.StoreError` naming the file, and nothing is moved
or rewritten -- the files are old, not damaged.  Such a store predates
the commit log and must be rebuilt.  A segment compacted when
compaction still wrote rollups loads: its ``hourly.seg``, ``daily.seg``
and their manifest entries are never read, and ``store compact``
deletes them (:meth:`SegmentDir.drop_rollups`).

Block frame (all integers little-endian)::

    MAGIC "RSEG" | header_len u32 | header JSON | payload | crc32 u32

where the header is compact sorted-key JSON ``{"columns": [...], "n":
rows}``, the payload is each column's ``n`` float64 values in column
order, and the CRC32 covers header + payload.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from pathlib import Path
from typing import (
    Any, Dict, List, Mapping, NamedTuple, NoReturn, Optional, Sequence, Tuple,
    Union,
)

import numpy as np

from ..errors import SegmentError, StoreError
from ..faults.io import (
    io_fsync,
    io_read,
    io_read_text,
    io_replace,
    io_write,
    retry_io,
)
from ..obs import obs_counter, obs_event
from ..runtime import crclog
from ..runtime.serialize import (
    fsync_dir,
    write_json_atomic,
    write_json_atomic_verified,
)
from .commitlog import CommitLog, LogEntry

#: Schema tag stamped into every segment manifest.
SEGMENT_SCHEMA = "repro/store-segment/v2"

#: What a segment written before the commit log may hold, and is refused
#: for: a manifest under the first schema tag, or a block journal.
OLD_SEGMENT_SCHEMA = "repro/store-segment/v1"
OLD_JOURNAL_FILENAME = "journal.jsonl"

#: The one file kind a segment holds, and its columns (hours, value).
RAW = "raw"
RAW_COLUMNS = ("t", "value")

#: Rollup files and manifest entries an earlier compaction wrote; never
#: read, and deleted by :meth:`SegmentDir.drop_rollups`.
OLD_ROLLUPS = ("hourly", "daily")

#: Frame constants.
MAGIC = b"RSEG"
_U32 = struct.Struct("<I")
_FLOAT_BYTES = 8

MANIFEST_FILENAME = "manifest.json"

#: The index fields of one block in the manifest.
_BLOCK_FIELDS = ("offset", "length", "n", "t0", "t1", "crc32")


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def encode_block(
    columns: Sequence[str], arrays: Sequence[np.ndarray]
) -> Tuple[bytes, Dict[str, Any]]:
    """Frame one block; returns ``(frame_bytes, block_meta)``.

    ``block_meta`` is the manifest entry *without* the offset (the
    appender fills that in): ``{"length", "n", "t0", "t1", "crc32"}``.
    """
    if len(columns) != len(arrays) or not columns:
        raise StoreError("need one array per column")
    casted = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    n = casted[0].shape[0]
    if n < 1:
        raise StoreError("cannot encode an empty block")
    for name, arr in zip(columns, casted):
        if arr.ndim != 1 or arr.shape[0] != n:
            raise StoreError(f"column {name!r} is not a length-{n} vector")
        if not np.isfinite(arr).all():
            raise StoreError(f"column {name!r} contains non-finite values")
    t = casted[0]
    if n > 1 and bool(np.any(np.diff(t) < 0.0)):
        raise StoreError("block timestamps must be non-decreasing")
    header = json.dumps(
        {"columns": list(columns), "n": n},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    payload = b"".join(arr.tobytes() for arr in casted)
    crc = _crc(header + payload)
    frame = MAGIC + _U32.pack(len(header)) + header + payload + _U32.pack(crc)
    meta = {
        "length": len(frame),
        "n": n,
        "t0": float(t[0]),
        "t1": float(t[-1]),
        "crc32": crc,
    }
    return frame, meta


def decode_block(
    frame: bytes, expected_columns: Sequence[str]
) -> Dict[str, np.ndarray]:
    """Verify + decode one framed block into ``{column: float64 array}``.

    Raises :class:`SegmentError` on any integrity violation: bad magic,
    torn frame, CRC mismatch, or a column layout other than
    ``expected_columns``.
    """
    if len(frame) < len(MAGIC) + 2 * _U32.size:
        raise SegmentError(f"block frame torn: only {len(frame)} bytes")
    if frame[:4] != MAGIC:
        raise SegmentError(f"bad block magic {frame[:4]!r}")
    (header_len,) = _U32.unpack_from(frame, 4)
    header_end = 8 + header_len
    if header_end + _U32.size > len(frame):
        raise SegmentError("block header overruns the frame")
    try:
        header = json.loads(frame[8:header_end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SegmentError(f"block header is not valid JSON: {exc}")
    if (
        not isinstance(header, dict)
        or list(header.get("columns", [])) != list(expected_columns)
        or not isinstance(header.get("n"), int)
        or header["n"] < 1
    ):
        raise SegmentError(f"block header malformed: {header!r}")
    n = header["n"]
    payload_end = header_end + n * _FLOAT_BYTES * len(expected_columns)
    if payload_end + _U32.size != len(frame):
        raise SegmentError(
            f"block length mismatch: frame {len(frame)} bytes, "
            f"expected {payload_end + _U32.size}"
        )
    (stored_crc,) = _U32.unpack_from(frame, payload_end)
    if _crc(frame[8:payload_end]) != stored_crc:
        raise SegmentError("block failed its CRC32")
    out: Dict[str, np.ndarray] = {}
    offset = header_end
    for name in expected_columns:
        out[name] = np.frombuffer(
            frame, dtype="<f8", count=n, offset=offset
        ).astype(np.float64)
        offset += n * _FLOAT_BYTES
    return out


def _empty_file_entry() -> Dict[str, Any]:
    return {"columns": list(RAW_COLUMNS), "bytes": 0, "rows": 0, "blocks": []}


def _raw_entry(manifest: Dict[str, Any]) -> Dict[str, Any]:
    return manifest["files"].get(RAW) or _empty_file_entry()


def _with_raw(manifest: Dict[str, Any], entry: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``manifest`` whose only file entry is raw ``entry``.

    Indexes are shared between threads once published, so every change
    builds a new one instead of editing the old in place.  Rollup
    entries an earlier compaction wrote are dropped here.
    """
    return dict(manifest, files={RAW: entry})


def _appended(
    entry: Dict[str, Any], frames: Sequence[Tuple[Mapping[str, Any], Optional[bytes]]]
) -> Dict[str, Any]:
    """``entry`` with one block per ``(meta, frame)`` appended after it.

    A block that carries its ``frame`` bytes is not in the file yet: it
    is a commit-log entry merged into a reader's index.
    """
    blocks = list(entry["blocks"])
    offset, rows = entry["bytes"], entry["rows"]
    for meta, frame in frames:
        block = {f: meta[f] for f in _BLOCK_FIELDS[1:]}
        block["offset"] = offset
        if frame is not None:
            block["frame"] = frame
        blocks.append(block)
        offset += meta["length"]
        rows += meta["n"]
    return dict(entry, blocks=blocks, bytes=offset, rows=rows)


class _Index(NamedTuple):
    """A series' block index and the exact inputs it was built from.

    ``manifest`` is the manifest on disk; ``merged`` adds the log
    entries it does not hold yet, and is what readers see.
    """

    entries: Tuple[LogEntry, ...]
    manifest_text: Optional[str]
    manifest: Dict[str, Any]
    merged: Dict[str, Any]


class SegmentDir:
    """One series' on-disk segment directory.

    A :class:`~repro.store.store.TelemetryStore` keeps one object per
    series and calls :meth:`begin_use` each time it hands it out.  The
    first index access of a use reads the building's commit log, then
    the manifest, and reuses the held index only when both are the ones
    it was built from; otherwise it parses and validates what it just
    read.
    Later accesses in the same use (per thread) see that same index, as
    a freshly constructed object would.  Writes never edit a published
    index: they drop it, so the next use parses what they wrote.

    Args:
        directory: The segment directory (created on first write).
        key_dict: The owning series key as a plain dict, stamped into
            the manifest so a directory is self-describing.
        quarantine_root: Where corrupt segments are moved; usually the
            store's ``.quarantine/`` directory.
        log: The building's commit log; None for a segment outside
            any store.
        log_key: This series' name in the log's records.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        key_dict: Mapping[str, Any],
        quarantine_root: Union[str, Path],
        log: Optional[CommitLog] = None,
        log_key: str = "",
    ):
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_FILENAME
        self.key_dict = dict(key_dict)
        self.quarantine_root = Path(quarantine_root)
        self._log = log
        self._log_key = log_key
        #: Nothing writes a journal any more, so once a segment is seen
        #: without one, it is not looked for again.
        self._journal_absent = False
        #: The held index: the last one parsed from disk, with its inputs.
        self._manifest: Optional[_Index] = None
        #: Per thread, ``index``: the :class:`_Index` this thread's
        #: current use works on, once loaded.
        self._use = threading.local()

    def begin_use(self) -> None:
        """Start a new use on this thread: the next index access re-reads."""
        self._use.index = None

    def _use_index(self) -> Optional[_Index]:
        return getattr(self._use, "index", None)

    # ------------------------------------------------------------------
    # Manifest + index
    # ------------------------------------------------------------------

    @property
    def seg_path(self) -> Path:
        """The segment's ``raw.seg``."""
        return self.directory / f"{RAW}.seg"

    def _fresh_manifest(self) -> Dict[str, Any]:
        # Snapshot 0: never written (every manifest write advances it).
        return {
            "schema": SEGMENT_SCHEMA,
            "snapshot": 0,
            "key": dict(self.key_dict),
            "files": {RAW: _empty_file_entry()},
        }

    def _corrupt(self, reason: str) -> NoReturn:
        """Quarantine the segment and raise a loud :class:`SegmentError`."""
        self._quarantine(reason)
        raise SegmentError(
            f"segment {self.directory} is corrupt (quarantined): {reason}"
        )

    def _holds_data(self) -> bool:
        path = self.seg_path
        return path.exists() and path.stat().st_size > 0

    def _refuse_old_layout(self, path: Path, why: str) -> NoReturn:
        raise StoreError(
            f"{path} {why}: this store predates the commit log and must be "
            "rebuilt (re-running `campaign run --store` rebuilds a campaign "
            "export)"
        )

    def _refuse_journal(self) -> None:
        """Raise if a pre-commit-log journal is here (one ``exists``)."""
        if self._journal_absent:
            return
        path = self.directory / OLD_JOURNAL_FILENAME
        if path.exists():
            self._refuse_old_layout(path, "is a block journal")
        self._journal_absent = True

    def _manifest_text(self) -> Optional[str]:
        """``manifest.json``'s text (quarantine + raise if unreadable).

        None when there is no manifest (any data found without one is
        quarantined first).
        """
        if not self.manifest_path.exists():
            if not self._holds_data():
                return None
            # A first fold writes the manifest before any data, so data
            # seen after a missing manifest may be that fold's: look again.
            if not self.manifest_path.exists():
                # Data without a manifest: nothing acknowledges those
                # bytes, so nothing can vouch for them.
                self._quarantine("segment files present without a manifest")
                return None
        try:
            return io_read_text(self.manifest_path)
        except (OSError, ValueError) as exc:
            self._corrupt(f"unreadable manifest: {exc}")

    def _parse_manifest(self, text: str) -> Dict[str, Any]:
        """The manifest in ``text``, shape-checked (quarantine + raise if bad)."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            self._corrupt(f"unreadable manifest: {exc}")
        if isinstance(payload, dict) and payload.get("schema") == OLD_SEGMENT_SCHEMA:
            self._refuse_old_layout(
                self.manifest_path, f"is tagged {OLD_SEGMENT_SCHEMA}"
            )
        problems = self._manifest_problems(payload)
        if problems:
            self._corrupt(f"malformed manifest: {problems[0]}")
        return payload

    def _load_index(self) -> _Index:
        """This use's index, read and parsed on its first access."""
        index = self._use_index()
        if index is not None:
            return index
        self._refuse_journal()
        held = self._manifest
        # The log is read before the manifest: a fold writes the
        # manifest before it drops what it folded, so whatever the log
        # read misses, the manifest read after it holds -- nothing is
        # lost in between.
        entries = self._log.entries(self._log_key) if self._log else ()
        text = self._manifest_text()
        if (
            held is not None
            and held.entries == entries
            and text == held.manifest_text
        ):
            index = held  # the same inputs: skip the parse
        else:
            manifest = (
                self._fresh_manifest() if text is None
                else self._parse_manifest(text)
            )
            index = _Index(entries, text, manifest, self._merge(manifest, entries))
            self._manifest = index
        self._use.index = index
        return index

    @staticmethod
    def _merge(
        manifest: Dict[str, Any], entries: Sequence[LogEntry]
    ) -> Dict[str, Any]:
        """``manifest`` plus the log ``entries`` it does not hold yet."""
        folded = manifest.get("log_seq", 0)
        pending = [(e._asdict(), e.frame) for e in entries if e.seq > folded]
        if not pending:
            return manifest
        return _with_raw(manifest, _appended(_raw_entry(manifest), pending))

    @staticmethod
    def _manifest_problems(payload: Any) -> List[str]:
        if not isinstance(payload, dict):
            return ["manifest is not an object"]
        schema = payload.get("schema")
        if schema != SEGMENT_SCHEMA:
            return [f"wrong schema {schema!r}"]
        if not isinstance(payload.get("snapshot"), int):
            return ["manifest has no snapshot id"]
        log_seq = payload.get("log_seq", 0)
        if not isinstance(log_seq, int) or log_seq < 0:
            return ["manifest has a malformed log_seq"]
        files = payload.get("files")
        if not isinstance(files, dict):
            return ["manifest has no files object"]
        for res in files:
            if res != RAW and res not in OLD_ROLLUPS:
                return [f"unknown resolution {res!r}"]
        entry = files.get(RAW, _empty_file_entry())
        if not isinstance(entry, dict):
            return ["raw: entry is not an object"]
        if list(entry.get("columns", [])) != list(RAW_COLUMNS):
            return ["raw: wrong column layout"]
        blocks = entry.get("blocks")
        if not isinstance(blocks, list):
            return ["raw: blocks is not a list"]
        offset = 0
        rows = 0
        for block in blocks:
            if not isinstance(block, dict):
                return ["raw: block entry is not an object"]
            for field in _BLOCK_FIELDS:
                if field not in block:
                    return [f"raw: block missing {field!r}"]
            if block["offset"] != offset:
                return ["raw: block offsets are not contiguous"]
            offset += block["length"]
            rows += block["n"]
        if entry.get("bytes") != offset:
            return ["raw: bytes field disagrees with blocks"]
        if entry.get("rows") != rows:
            return ["raw: rows field disagrees with blocks"]
        return []

    def _write_manifest(
        self, manifest: Dict[str, Any], verified: bool = False
    ) -> Dict[str, Any]:
        """Write ``manifest`` under a new snapshot id; returns what was written.

        ``verified`` reads the file back before returning, for callers
        that drop what the manifest now holds (a fold drops log
        records).
        """
        written = dict(manifest, snapshot=manifest["snapshot"] + 1)
        prior = self._use_index()
        self._manifest = None  # the next use parses what is written here
        self._use.index = None  # disk may disagree if this fails
        if verified:
            write_json_atomic_verified(self.manifest_path, written)
        else:
            write_json_atomic(self.manifest_path, written)
        entries = prior.entries if prior is not None else ()
        self._use.index = _Index(
            entries, None, written, self._merge(written, entries)
        )
        return written

    def _make_dirs(self) -> None:
        """Create the segment directory, each new level durably."""
        missing = []
        level = self.directory
        while not level.exists():
            missing.append(level)
            level = level.parent
        for level in reversed(missing):
            level.mkdir(exist_ok=True)
            fsync_dir(level.parent)

    def file_entry(self) -> Dict[str, Any]:
        """The raw index entry (shared: read it, never edit it)."""
        return _raw_entry(self._load_index().merged)

    def log_state(self) -> Tuple[int, Optional[float]]:
        """``(log_seq, last raw t1)``: what a new raw block must follow."""
        index = self._load_index()
        blocks = self.file_entry()["blocks"]
        return (
            index.manifest.get("log_seq", 0),
            blocks[-1]["t1"] if blocks else None,
        )

    def _require_folded(self, what: str) -> Dict[str, Any]:
        """The on-disk manifest, when the log holds nothing unfolded for it."""
        index = self._load_index()
        if index.merged is not index.manifest:
            raise StoreError(
                f"cannot {what} {self.directory}: its commit-log records "
                "are not folded yet"
            )
        return index.manifest

    # ------------------------------------------------------------------
    # Quarantine + recovery
    # ------------------------------------------------------------------

    def _quarantine(self, reason: str) -> Optional[Path]:
        """Move the whole segment directory aside for forensics."""
        stem = "__".join(str(v) for v in self.key_dict.values()) or "segment"
        target = crclog.quarantine(self.directory, self.quarantine_root, stem)
        self._manifest = None
        self._use.index = None
        if target is None:
            return None
        obs_counter("store.quarantines").inc()
        obs_event(
            "warning", "store.segment_quarantined",
            segment=str(self.directory), quarantined_to=str(target),
            reason=reason,
        )
        return target

    def _reconcile(self, acknowledged: int) -> None:
        """Cut ``raw.seg`` back to its acknowledged length.

        A torn tail is truncated, counted and logged.  A file *shorter*
        than acknowledged is corruption, not a torn append: the segment
        is quarantined and a :class:`SegmentError` raised.
        """
        path = self.seg_path
        size = path.stat().st_size if path.exists() else 0
        if size < acknowledged:
            self._corrupt(
                f"{path.name} is {size} bytes but {acknowledged} are "
                "acknowledged"
            )
        if size > acknowledged:
            crclog.truncate_file(path, acknowledged)
            obs_counter("store.truncations").inc()
            obs_event(
                "warning", "store.segment_truncated",
                segment=str(path), kept_bytes=acknowledged,
                dropped_bytes=size - acknowledged,
            )

    # ------------------------------------------------------------------
    # Append / fold / replace
    # ------------------------------------------------------------------

    def _append_frame(
        self, manifest: Dict[str, Any], frame: bytes, meta: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Append one block; returns ``manifest`` indexing it.

        A new segment gets its manifest first: ``keys()`` finds a
        segment by its manifest, which must exist before any data does.
        """
        if manifest["snapshot"] == 0:
            self._make_dirs()
            manifest = self._write_manifest(manifest)
        entry = _raw_entry(manifest)
        path = self.seg_path
        created = not path.exists()
        self._reconcile(entry["bytes"])
        crclog.append_bytes(path, frame, entry["bytes"], f"segment_append:{path.name}")
        if created:
            fsync_dir(self.directory)  # the new file's name, before its ack
        obs_counter("store.blocks_written").inc()
        obs_counter("store.bytes_written").inc(len(frame))
        return _with_raw(manifest, _appended(entry, [(meta, None)]))

    def append_block(self, arrays: Sequence[np.ndarray]) -> Dict[str, Any]:
        """Append one raw block straight to the segment and its manifest.

        ``arrays`` are ``(t, value)``.  Appends must advance time: the
        new block's ``t0`` may not precede the last acknowledged ``t1``.
        This is the path for a segment outside a store; inside one,
        :class:`~repro.store.store.StoreWriter` acknowledges raw blocks
        through the building's commit log, and a series whose log
        records are not folded yet refuses this.
        """
        frame, meta = encode_block(RAW_COLUMNS, arrays)
        manifest = self._require_folded("append a block to")
        blocks = _raw_entry(manifest)["blocks"]
        if blocks and meta["t0"] < blocks[-1]["t1"]:
            raise StoreError(
                f"out-of-order append to {self.directory.name}: block "
                f"starts at t={meta['t0']} before the segment's last "
                f"t={blocks[-1]['t1']}"
            )
        written = self._write_manifest(self._append_frame(manifest, frame, meta))
        return _raw_entry(written)["blocks"][-1]

    def fold(self, entries: Sequence[LogEntry]) -> int:
        """Append the rows of this series' unfolded log ``entries`` as one block.

        The caller holds the building's partition lock.  Entries the
        manifest already holds (its ``log_seq``) are skipped, so a fold
        a crash interrupted is finished, never applied twice.  Decoding
        checks each frame's CRC32: rot in the log raises instead of
        being stamped with a fresh CRC.  The block is fsynced, then the
        manifest written and read back; only then may the log drop the
        entries.  Returns the rows folded.
        """
        self._refuse_journal()
        if not entries:
            return 0
        self.begin_use()
        manifest = self._load_index().manifest
        pending = [e for e in entries if e.seq > manifest.get("log_seq", 0)]
        if not pending:
            return 0
        parts = [decode_block(e.frame, RAW_COLUMNS) for e in pending]
        frame, meta = encode_block(
            RAW_COLUMNS,
            [np.concatenate([part[c] for part in parts]) for c in RAW_COLUMNS],
        )
        manifest = self._append_frame(manifest, frame, meta)
        self._write_manifest(
            dict(manifest, log_seq=pending[-1].seq), verified=True
        )
        return meta["n"]

    def replace(self, arrays: Sequence[np.ndarray]) -> None:
        """Atomically rewrite ``raw.seg`` as one block of ``arrays``.

        The ``truncate_from`` path; empty arrays leave an empty file.
        The new file is written beside the old one and renamed into
        place, then the manifest is rewritten.  A crash between the
        rename and the manifest write leaves the old index over the new
        file; reads check every block's CRC32 against that index, so it
        is loud.  The series' log records must be folded first.
        """
        manifest = self._require_folded("rewrite")
        entry = _empty_file_entry()
        frame = b""
        if len(arrays[0]):
            frame, meta = encode_block(RAW_COLUMNS, arrays)
            entry = _appended(entry, [(meta, None)])
        path = self.seg_path
        tmp = path.with_suffix(".seg.tmp")

        def attempt() -> None:
            with tmp.open("wb") as handle:
                io_write(handle, frame)
                handle.flush()
                io_fsync(handle.fileno(), tmp)
            io_replace(tmp, path)

        try:
            retry_io(attempt, f"segment_replace:{path.name}")
        except BaseException:
            if tmp.exists():
                tmp.unlink()
            raise
        self._write_manifest(_with_raw(manifest, entry))
        obs_counter("store.blocks_written").inc(len(entry["blocks"]))
        obs_counter("store.bytes_written").inc(len(frame))

    def drop_rollups(self) -> None:
        """Delete the rollup files and manifest entries an earlier
        compaction left (the caller holds the partition lock).

        Neither is read.  Nothing is written when there are none.
        """
        manifest = self._load_index().manifest
        if set(manifest["files"]) - {RAW}:
            self._write_manifest(_with_raw(manifest, _raw_entry(manifest)))
        for name in OLD_ROLLUPS:
            path = self.directory / f"{name}.seg"
            if path.exists():
                path.unlink()

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------

    def rows(self) -> int:
        return self.file_entry()["rows"]

    def time_range(self) -> Optional[Tuple[float, float]]:
        blocks = self.file_entry()["blocks"]
        if not blocks:
            return None
        return blocks[0]["t0"], blocks[-1]["t1"]

    def read(
        self, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> Dict[str, np.ndarray]:
        """Read raw ``[t0, t1]`` (inclusive, None = open).

        Every block touched is CRC-verified; blocks wholly outside the
        range are skipped via the index without touching their bytes.
        A block that fails its check while the manifest on disk has
        moved on (a fold or ``truncate_from`` rewrote the file under
        this read) is re-read once from a fresh index.  Raises
        :class:`SegmentError` on any other integrity failure.
        """
        for retry in (False, True):
            entry = self.file_entry()
            wanted = [
                b for b in entry["blocks"]
                if (t1 is None or b["t0"] <= t1) and (t0 is None or b["t1"] >= t0)
            ]
            if not wanted:
                return {name: np.empty(0, dtype=np.float64) for name in RAW_COLUMNS}
            try:
                parts = self._read_blocks(wanted)
                break
            except SegmentError:
                if retry or not self._moved_on():
                    raise
                self.begin_use()
        out = {
            name: np.concatenate([p[name] for p in parts])
            for name in RAW_COLUMNS
        }
        if t0 is not None or t1 is not None:
            t = out["t"]
            mask = np.ones(t.shape, dtype=bool)
            if t0 is not None:
                mask &= t >= t0
            if t1 is not None:
                mask &= t <= t1
            out = {name: arr[mask] for name, arr in out.items()}
        return out

    def _read_blocks(
        self, wanted: List[Dict[str, Any]]
    ) -> List[Dict[str, np.ndarray]]:
        """Verify and decode ``wanted``, from the file or the log's frames."""
        path = self.seg_path

        def attempt() -> List[Dict[str, np.ndarray]]:
            found: List[Dict[str, np.ndarray]] = []
            handle = None
            try:
                for block in wanted:
                    frame = block.get("frame")
                    if frame is None:
                        if handle is None:
                            handle = path.open("rb")
                        handle.seek(block["offset"])
                        frame = io_read(handle, block["length"], path)
                    if len(frame) != block["length"]:
                        raise SegmentError(
                            f"{path} torn at offset {block['offset']}"
                        )
                    # The decode checks the bytes against the frame's own
                    # CRC32, which must then be the manifest's.
                    found.append(decode_block(frame, RAW_COLUMNS))
                    if _U32.unpack_from(frame, len(frame) - 4)[0] != block["crc32"]:
                        raise SegmentError(
                            f"{path} block at offset {block['offset']} "
                            "disagrees with its manifest CRC32"
                        )
            finally:
                if handle is not None:
                    handle.close()
            return found

        try:
            # Transient EIO reads retry with backoff; CRC failures are
            # SegmentErrors (possible bit rot), never retried -- loud.
            return retry_io(attempt, f"segment_read:{path.name}")
        except OSError as exc:
            raise SegmentError(f"cannot read {path}: {exc}")

    def _moved_on(self) -> bool:
        """Whether the manifest on disk differs from this use's index."""
        index = self._use_index()
        try:
            text = io_read_text(self.manifest_path)
        except (OSError, ValueError):
            return True
        return index is None or text != index.manifest_text

    # ------------------------------------------------------------------
    # Truncation (campaign resume path)
    # ------------------------------------------------------------------

    def truncate_from(self, t: float) -> int:
        """Drop every raw sample at ``t`` or later; returns rows dropped.

        Used when a resumed campaign replays epochs that were already
        exported: the replay re-appends them, so the stale suffix is
        cut first.  Rows still in the commit log must be folded first.
        """
        span = self.time_range()
        if span is None or span[1] < t:
            return 0  # nothing at or after t
        data = self.read()
        keep = data["t"] < t
        self.replace([data[name][keep] for name in RAW_COLUMNS])
        return int(keep.size - keep.sum())
