"""Append-only columnar segments with per-block CRC32, a manifest and a journal.

One *segment directory* holds everything the store knows about one
series: an append-only binary file per resolution (``raw.seg``,
``hourly.seg``, ``daily.seg``), one canonical-JSON ``manifest.json``
(schema ``repro/store-segment/v2``) indexing every block -- offset,
length, row count, time range and CRC32 -- and a ``journal.jsonl`` of
the blocks appended since the manifest was last written.

Acknowledging a block costs one appended line, not a manifest rewrite.
The durability idioms mirror the campaign runtime's
(:mod:`repro.campaign.checkpoint` / :mod:`repro.campaign.log`):

* a block is appended + fsynced to its data file *before* one
  CRC-framed line describing it (:mod:`repro.runtime.crclog`) is
  appended + fsynced to the journal, so the journal only ever
  acknowledges bytes that are already on the platters;
* only :meth:`SegmentDir.replace` (compaction, ``truncate_from``)
  rewrites the manifest, through fsync-then-rename: it writes the whole
  index, journal blocks included, under a new ``snapshot`` id, then
  empties the journal.  Every journal line carries the snapshot id of
  the manifest it extends, so lines a crash left behind between that
  rename and the reset are recognised as already folded and skipped;
* on append, bytes past the acknowledged length (a torn append, a
  crash between data-fsync and journal append) and a journal line that
  never got its newline are truncated away -- loss bounded to the one
  unacknowledged block;
* a file *shorter* than acknowledged, a block or journal line whose
  CRC32 does not match, a journal that skips offsets or runs ahead of
  its manifest, or an unparseable manifest is real corruption: the
  segment is quarantined to ``.quarantine/`` (forensic evidence, never
  deleted) and the access raises a loud
  :class:`~repro.errors.SegmentError` -- the failure mode is always
  "recovered" or "loud error", never a silently wrong query result.

Version-1 segments (no journal, the manifest rewritten per block) still
load.  The first append to one rewrites its manifest as v2, which a
v1-only reader refuses instead of truncating journal-acknowledged
blocks as torn tails.

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
    Any, Dict, List, Mapping, NamedTuple, NoReturn, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..errors import SegmentError, StoreError
from ..faults.io import (
    io_fsync,
    io_read,
    io_read_bytes,
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

#: Schema tag stamped into every segment manifest.
SEGMENT_SCHEMA = "repro/store-segment/v2"

#: Manifests written before the journal existed (still readable).
SEGMENT_SCHEMA_V1 = "repro/store-segment/v1"

#: Schema tag of every journal line.
JOURNAL_SCHEMA = "repro/store-journal/v1"

#: Resolutions a segment directory may hold, coarsest last.
RAW, HOURLY, DAILY = "raw", "hourly", "daily"
RESOLUTIONS = (RAW, HOURLY, DAILY)

#: Column layouts.  The first column is always the time base (hours).
RAW_COLUMNS = ("t", "value")
ROLLUP_COLUMNS = ("t", "min", "mean", "max", "count")

#: Frame constants.
MAGIC = b"RSEG"
_U32 = struct.Struct("<I")
_FLOAT_BYTES = 8

MANIFEST_FILENAME = "manifest.json"
JOURNAL_FILENAME = "journal.jsonl"

#: The index fields of one block, in the manifest and in journal lines.
_BLOCK_FIELDS = ("offset", "length", "n", "t0", "t1", "crc32")


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def columns_for(resolution: str) -> Tuple[str, ...]:
    """The column layout a resolution's blocks carry."""
    if resolution == RAW:
        return RAW_COLUMNS
    if resolution in (HOURLY, DAILY):
        return ROLLUP_COLUMNS
    raise StoreError(
        f"unknown resolution {resolution!r}; options: {RESOLUTIONS}"
    )


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
    torn frame, CRC mismatch, or a column layout that disagrees with
    the manifest's resolution.
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


def _empty_file_entry(resolution: str) -> Dict[str, Any]:
    return {
        "columns": list(columns_for(resolution)),
        "bytes": 0,
        "rows": 0,
        "blocks": [],
    }


def _journal_line_problem(record: Mapping[str, Any]) -> Optional[str]:
    """Why a CRC-valid journal record is not a block entry, or None."""
    missing = [f for f in _BLOCK_FIELDS + ("res", "snapshot") if f not in record]
    if missing:
        return f"journal line lacks {missing}"
    if record["res"] not in RESOLUTIONS:
        return f"journal line names unknown resolution {record['res']!r}"
    return None


def _with_entry(
    manifest: Dict[str, Any], resolution: str, entry: Dict[str, Any]
) -> Dict[str, Any]:
    """A copy of ``manifest`` whose ``resolution`` entry is ``entry``.

    Indexes are shared between threads once published, so every change
    builds a new one instead of editing the old in place.
    """
    files = dict(manifest["files"])
    files[resolution] = entry
    return dict(manifest, files=files)


class _Index(NamedTuple):
    """A parsed block index and the exact bytes it was parsed from."""

    journal: bytes
    manifest_text: Optional[str]
    manifest: Dict[str, Any]


class SegmentDir:
    """One series' on-disk segment directory.

    A :class:`~repro.store.store.TelemetryStore` keeps one object per
    series and calls :meth:`begin_use` each time it hands it out.  The
    first index access of a use reads the journal, then the manifest,
    and reuses the held index only when both are byte-for-byte the ones
    it was parsed from; otherwise it parses and validates the bytes just
    read.  Later accesses in the same use (per thread) see that same
    index, as a freshly constructed object would.  Writes never edit a
    published index: they drop it, so the next use parses what they
    wrote.

    Args:
        directory: The segment directory (created on first append).
        key_dict: The owning series key as a plain dict, stamped into
            the manifest so a directory is self-describing.
        quarantine_root: Where corrupt segments are moved; usually the
            store's ``.quarantine/`` directory.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        key_dict: Mapping[str, Any],
        quarantine_root: Union[str, Path],
    ):
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_FILENAME
        self.journal_path = self.directory / JOURNAL_FILENAME
        self.key_dict = dict(key_dict)
        self.quarantine_root = Path(quarantine_root)
        #: The held index: the last one parsed from disk, with its bytes.
        self._manifest: Optional[_Index] = None
        #: Per thread, ``index``: the full block index (manifest plus
        #: journal) this thread's current use works on, once loaded.
        self._use = threading.local()

    def begin_use(self) -> None:
        """Start a new use on this thread: the next index access re-reads."""
        self._use.index = None

    def _use_index(self) -> Optional[Dict[str, Any]]:
        return getattr(self._use, "index", None)

    # ------------------------------------------------------------------
    # Manifest + journal
    # ------------------------------------------------------------------

    def seg_path(self, resolution: str) -> Path:
        columns_for(resolution)  # validates the name
        return self.directory / f"{resolution}.seg"

    def exists(self) -> bool:
        return self.manifest_path.exists()

    def _fresh_manifest(self) -> Dict[str, Any]:
        # Snapshot 0: never written (every manifest write advances it).
        return {
            "schema": SEGMENT_SCHEMA,
            "snapshot": 0,
            "key": dict(self.key_dict),
            "files": {res: _empty_file_entry(res) for res in RESOLUTIONS},
        }

    def _corrupt(self, reason: str) -> NoReturn:
        """Quarantine the segment and raise a loud :class:`SegmentError`."""
        self._quarantine(reason)
        raise SegmentError(
            f"segment {self.directory} is corrupt (quarantined): {reason}"
        )

    def _holds_data(self) -> bool:
        paths = [self.seg_path(res) for res in RESOLUTIONS] + [self.journal_path]
        return any(p.exists() and p.stat().st_size > 0 for p in paths)

    def _manifest_text(self) -> Optional[str]:
        """``manifest.json``'s text (quarantine + raise if unreadable).

        None when there is no manifest (any data found without one is
        quarantined first).
        """
        if not self.manifest_path.exists():
            if self._holds_data():
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
        problems = self._manifest_problems(payload)
        if problems:
            self._corrupt(f"malformed manifest: {problems[0]}")
        payload.setdefault("snapshot", 0)  # v1: never written as v2
        return payload

    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        """``manifest.json`` alone, shape-checked; None when there is none."""
        text = self._manifest_text()
        return None if text is None else self._parse_manifest(text)

    def _journal_bytes(self) -> bytes:
        """The journal's bytes (empty when there is no journal)."""
        try:
            return retry_io(
                lambda: io_read_bytes(self.journal_path),
                f"segment_journal_read:{self.directory.name}",
            )
        except FileNotFoundError:
            return b""
        except OSError as exc:
            raise SegmentError(f"cannot read {self.journal_path}: {exc}")

    def _journal_records(self, raw: bytes) -> List[Dict[str, Any]]:
        """Every complete journal line's record; a torn tail is ignored.

        Ignoring (not truncating) a torn tail keeps readers from
        mutating a segment whose writer may be mid-append; the writer
        cuts it on its next append.
        """
        scan = crclog.scan_lines(raw, JOURNAL_SCHEMA)
        if scan.bad is not None:
            self._corrupt(f"journal line at byte {scan.good_bytes}: {scan.bad}")
        for record in scan.records:
            problem = _journal_line_problem(record)
            if problem:
                self._corrupt(problem)
        return scan.records

    def _load_manifest(self) -> Dict[str, Any]:
        """The full block index: the manifest plus its journal's blocks."""
        manifest = self._use_index()
        if manifest is not None:
            return manifest
        held = self._manifest
        # The journal is read before the manifest: a concurrent replace()
        # renames its manifest before it empties the journal, so lines
        # read first are either still current or already folded into
        # the manifest read second -- never lost in between.
        journal = self._journal_bytes()
        records = None
        if held is None or journal != held.journal:
            records = self._journal_records(journal)
        text = self._manifest_text()
        if records is None and text == held.manifest_text:
            index = held  # both byte-identical: skip the parse
        else:
            if records is None:
                records = self._journal_records(journal)
            index = _Index(journal, text, self._fold(text, records))
            self._manifest = index
        self._use.index = index.manifest
        return index.manifest

    def _fold(
        self, text: Optional[str], records: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """The manifest in ``text`` with the journal ``records`` appended."""
        manifest = None if text is None else self._parse_manifest(text)
        if manifest is None:
            manifest, records = self._fresh_manifest(), []
        snapshot = manifest["snapshot"]
        if records and all(r["snapshot"] < snapshot for r in records):
            records = []  # folded by a replace() whose reset never ran
        files = manifest["files"]
        for record in records:
            if record["snapshot"] != snapshot:
                self._corrupt(
                    f"journal line of snapshot {record['snapshot']} against "
                    f"manifest snapshot {snapshot}"
                )
            entry = files.setdefault(
                record["res"], _empty_file_entry(record["res"])
            )
            if record["offset"] != entry["bytes"]:
                self._corrupt(
                    f"journal skips {record['res']} bytes: block at "
                    f"{record['offset']}, expected {entry['bytes']}"
                )
            entry["blocks"].append({f: record[f] for f in _BLOCK_FIELDS})
            entry["bytes"] += record["length"]
            entry["rows"] += record["n"]
        return manifest

    @staticmethod
    def _manifest_problems(payload: Any) -> List[str]:
        if not isinstance(payload, dict):
            return ["manifest is not an object"]
        schema = payload.get("schema")
        if schema not in (SEGMENT_SCHEMA, SEGMENT_SCHEMA_V1):
            return [f"wrong schema {schema!r}"]
        if schema == SEGMENT_SCHEMA and not isinstance(payload.get("snapshot"), int):
            return ["manifest has no snapshot id"]
        files = payload.get("files")
        if not isinstance(files, dict):
            return ["manifest has no files object"]
        for res, entry in files.items():
            if res not in RESOLUTIONS:
                return [f"unknown resolution {res!r}"]
            if not isinstance(entry, dict):
                return [f"{res}: entry is not an object"]
            if list(entry.get("columns", [])) != list(columns_for(res)):
                return [f"{res}: wrong column layout"]
            blocks = entry.get("blocks")
            if not isinstance(blocks, list):
                return [f"{res}: blocks is not a list"]
            offset = 0
            rows = 0
            for block in blocks:
                if not isinstance(block, dict):
                    return [f"{res}: block entry is not an object"]
                for field in _BLOCK_FIELDS:
                    if field not in block:
                        return [f"{res}: block missing {field!r}"]
                if block["offset"] != offset:
                    return [f"{res}: block offsets are not contiguous"]
                offset += block["length"]
                rows += block["n"]
            if entry.get("bytes") != offset:
                return [f"{res}: bytes field disagrees with blocks"]
            if entry.get("rows") != rows:
                return [f"{res}: rows field disagrees with blocks"]
        return []

    def _write_manifest(
        self, manifest: Dict[str, Any], durable: bool = True
    ) -> None:
        """Write the full index under a new snapshot id; empty the journal.

        The journal file is created before the rename, so the rename's
        directory fsync makes its name durable too.  Emptying it after
        the rename may be lost to a crash: its lines then carry the old
        snapshot id and are skipped as already folded.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        journal = self.journal_path
        if not journal.exists():
            journal.open("ab").close()
        written = dict(
            manifest, schema=SEGMENT_SCHEMA, snapshot=manifest["snapshot"] + 1
        )
        self._manifest = None  # the next use parses what is written here
        try:
            if journal.stat().st_size:
                # Emptying the journal drops its lines, so the manifest
                # now holding them is read back before that happens.
                write_json_atomic_verified(self.manifest_path, written)
                crclog.truncate_file(journal, 0, durable)
            else:
                write_json_atomic(self.manifest_path, written, fsync=durable)
        except BaseException:
            self._use.index = None  # disk may disagree; reload next time
            raise
        self._use.index = written

    def file_entry(self, resolution: str) -> Dict[str, Any]:
        """``resolution``'s index entry (shared: read it, never edit it)."""
        files = self._load_manifest()["files"]
        return files.get(resolution) or _empty_file_entry(resolution)

    # ------------------------------------------------------------------
    # Quarantine + recovery
    # ------------------------------------------------------------------

    def _quarantine(self, reason: str) -> Optional[Path]:
        """Move the whole segment directory aside for forensics."""
        if not self.directory.exists():
            return None
        self.quarantine_root.mkdir(parents=True, exist_ok=True)
        stem = "__".join(str(v) for v in self.key_dict.values()) or "segment"
        target = self.quarantine_root / stem
        suffix = 0
        while target.exists():
            suffix += 1
            target = self.quarantine_root / f"{stem}.{suffix}"
        self.directory.replace(target)
        self._manifest = None
        self._use.index = None
        obs_counter("store.quarantines").inc()
        obs_event(
            "warning", "store.segment_quarantined",
            segment=str(self.directory), quarantined_to=str(target),
            reason=reason,
        )
        return target

    def _cut_torn_tail(
        self, path: Path, size: int, keep: int, durable: bool = True
    ) -> None:
        """Truncate unacknowledged bytes past ``keep`` (counted, logged)."""
        crclog.truncate_file(path, keep, durable)
        obs_counter("store.truncations").inc()
        obs_event(
            "warning", "store.segment_truncated",
            segment=str(path), kept_bytes=keep, dropped_bytes=size - keep,
        )

    def _reconcile(
        self, resolution: str, acknowledged: int, durable: bool = True
    ) -> bool:
        """Cut ``resolution``'s file back to its acknowledged length.

        Returns whether a torn tail was truncated.  A file *shorter*
        than acknowledged is corruption, not a torn append: the segment
        is quarantined and a :class:`SegmentError` raised.
        """
        path = self.seg_path(resolution)
        size = path.stat().st_size if path.exists() else 0
        if size < acknowledged:
            self._corrupt(
                f"{resolution}.seg is {size} bytes but {acknowledged} are "
                "acknowledged"
            )
        if size > acknowledged:
            self._cut_torn_tail(path, size, acknowledged, durable)
            return True
        return False

    def recover(self) -> int:
        """Cut the journal and each segment file back to what is acknowledged.

        Returns the number of files that had torn (unacknowledged)
        tails truncated.  Validates every journal line; corruption
        quarantines the segment and raises :class:`SegmentError`.
        """
        manifest = self._load_manifest()
        truncated = 0
        tail = crclog.read_tail(self.journal_path)
        if tail.rest:
            self._cut_torn_tail(self.journal_path, tail.size, tail.end)
            truncated += 1
        for resolution, entry in manifest["files"].items():
            truncated += self._reconcile(resolution, entry["bytes"])
        if truncated:
            self._manifest = None  # parsed from bytes just cut
        return truncated

    # ------------------------------------------------------------------
    # Append / replace
    # ------------------------------------------------------------------

    def _tail_view(
        self,
    ) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]], crclog.FileTail]:
        """``(manifest, last current journal record, journal tail)``.

        Reads the manifest and the journal's last line only -- not every
        line -- so its cost does not grow with the journal.  The record
        is None when the journal is empty, torn to nothing, or holds
        lines an interrupted :meth:`replace` already folded; the
        manifest is None when there is none.  Mutates nothing unless it
        finds corruption, which it quarantines.
        """
        tail = retry_io(
            lambda: crclog.read_tail(self.journal_path),
            f"segment_journal_tail:{self.directory.name}",
        )
        manifest = self._use_index()
        if manifest is None:
            manifest = self._read_manifest()
        if manifest is None:
            # Any journal bytes went to quarantine with the segment.
            return None, None, crclog.FileTail(None, 0, 0, b"")
        if tail.rest and not crclog.is_torn_tail(tail.rest):
            self._corrupt("journal: bytes follow the final line")
        if tail.line is None:
            return manifest, None, tail
        try:
            last = crclog.decode_line(JOURNAL_SCHEMA, tail.line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._corrupt(f"journal's last line: {exc}")
        problem = _journal_line_problem(last)
        if problem:
            self._corrupt(problem)
        if last["snapshot"] > manifest["snapshot"]:
            self._corrupt("journal runs ahead of its manifest")
        if last["snapshot"] < manifest["snapshot"]:
            return manifest, None, tail
        return manifest, last, tail

    def _last_block(
        self,
        resolution: str,
        manifest: Dict[str, Any],
        last: Optional[Dict[str, Any]],
    ) -> Tuple[int, Optional[float]]:
        """``(acknowledged bytes, last t1)`` of ``resolution``."""
        if self._use_index() is None and last is not None:
            if last["res"] == resolution:
                return last["offset"] + last["length"], last["t1"]
            manifest = self._load_manifest()  # another resolution's line
        entry = manifest["files"].get(resolution) or _empty_file_entry(resolution)
        blocks = entry["blocks"]
        return entry["bytes"], blocks[-1]["t1"] if blocks else None

    def _append_cursor(
        self, resolution: str, durable: bool
    ) -> Tuple[int, int, Optional[float]]:
        """``(snapshot, acknowledged bytes, last t1)`` for an append.

        Heals on the way: a torn final journal line is cut, lines
        already folded by an interrupted :meth:`replace` are dropped,
        and a new (or version-1) segment gets its v2 manifest written.
        """
        manifest, last, tail = self._tail_view()
        if manifest is None:
            manifest = self._fresh_manifest()
        if tail.rest:
            self._cut_torn_tail(self.journal_path, tail.size, tail.end, durable)
        if tail.line is not None and last is None:
            crclog.truncate_file(self.journal_path, 0, durable)
        if manifest["snapshot"] == 0:
            # A new segment, or a v1 one: keys() finds the segment by
            # its manifest, and a v1-only reader must refuse journals.
            self._write_manifest(manifest, durable)
            manifest = self._use_index()
        return (manifest["snapshot"], *self._last_block(resolution, manifest, last))

    def append_block(
        self, resolution: str, arrays: Sequence[np.ndarray], durable: bool = True
    ) -> Dict[str, Any]:
        """Append one block and acknowledge it with one journal line.

        ``arrays`` follow the resolution's column order.  Appends must
        advance time: the new block's ``t0`` may not precede the last
        acknowledged ``t1``.

        ``durable=False`` skips the data and journal fsyncs.  A
        *process* crash still heals -- the page cache survives, and
        any torn tail is cut back by the next append -- but a power cut
        can lose acknowledged rows (the journal line may reach disk
        before the data, which the next append then quarantines loudly).
        Reserved for loss-tolerant series (``_obs`` self-telemetry).
        """
        frame, meta = encode_block(columns_for(resolution), arrays)
        snapshot, acknowledged, last_t1 = self._append_cursor(resolution, durable)
        if last_t1 is not None and meta["t0"] < last_t1:
            raise StoreError(
                f"out-of-order append to {self.directory.name}/{resolution}: "
                f"block starts at t={meta['t0']} before the segment's "
                f"last t={last_t1}"
            )
        path = self.seg_path(resolution)
        created = not path.exists()
        self._reconcile(resolution, acknowledged, durable)

        def heal(_attempt: int, _exc: OSError) -> None:
            # A torn attempt left unacknowledged bytes; cut back to the
            # acknowledged length so the retry cannot merge with garbage.
            if path.exists() and path.stat().st_size > acknowledged:
                crclog.truncate_file(path, acknowledged)

        def attempt() -> None:
            with path.open("ab") as handle:
                io_write(handle, frame)
                handle.flush()
                if durable:
                    io_fsync(handle.fileno(), path)

        retry_io(attempt, f"segment_append:{path.name}", on_retry=heal)
        if created and durable:
            fsync_dir(self.directory)  # the new file's name, before its ack
        block = {"offset": acknowledged, **meta}
        crclog.append_line(
            self.journal_path,
            crclog.encode_line(
                JOURNAL_SCHEMA, {"res": resolution, "snapshot": snapshot, **block}
            ),
            f"segment_journal:{self.directory.name}",
            durable=durable,
        )
        self._manifest = None
        manifest = self._use_index()
        if manifest is not None:
            entry = self.file_entry(resolution)
            self._use.index = _with_entry(
                manifest, resolution,
                dict(
                    entry,
                    blocks=entry["blocks"] + [block],
                    bytes=entry["bytes"] + meta["length"],
                    rows=entry["rows"] + meta["n"],
                ),
            )
        obs_counter("store.blocks_written").inc()
        obs_counter("store.bytes_written").inc(meta["length"])
        return block

    def replace(
        self, resolution: str, arrays: Optional[Sequence[np.ndarray]]
    ) -> None:
        """Atomically rewrite a whole resolution file (compaction path).

        ``None`` (or empty first column) clears the file.  The new file
        is written beside the old one and renamed into place, then the
        manifest is rewritten with every journaled block folded in and
        the journal emptied.  A crash between the rename and the
        manifest write leaves the old index over the new file; reads
        check every block's CRC32 against that index, so it is loud.
        """
        manifest = self._load_manifest()
        path = self.seg_path(resolution)
        if arrays is None or len(arrays[0]) == 0:
            if path.exists():
                path.unlink()
            self._write_manifest(
                _with_entry(manifest, resolution, _empty_file_entry(resolution))
            )
            return
        frame, meta = encode_block(columns_for(resolution), arrays)
        self.directory.mkdir(parents=True, exist_ok=True)
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
        self._write_manifest(
            _with_entry(
                manifest, resolution,
                {
                    "columns": list(columns_for(resolution)),
                    "bytes": meta["length"],
                    "rows": meta["n"],
                    "blocks": [{"offset": 0, **meta}],
                },
            )
        )
        obs_counter("store.blocks_written").inc()
        obs_counter("store.bytes_written").inc(meta["length"])

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------

    def rows(self, resolution: str) -> int:
        return self.file_entry(resolution)["rows"]

    def time_range(self, resolution: str) -> Optional[Tuple[float, float]]:
        blocks = self.file_entry(resolution)["blocks"]
        if not blocks:
            return None
        return blocks[0]["t0"], blocks[-1]["t1"]

    def read(
        self,
        resolution: str,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> Dict[str, np.ndarray]:
        """Read ``[t0, t1]`` (inclusive, None = open) at ``resolution``.

        Every block touched is CRC-verified; blocks wholly outside the
        range are skipped via the manifest index without touching their
        bytes.  Raises :class:`SegmentError` on any integrity failure.
        """
        entry = self.file_entry(resolution)
        columns = columns_for(resolution)
        wanted = [
            b for b in entry["blocks"]
            if (t1 is None or b["t0"] <= t1) and (t0 is None or b["t1"] >= t0)
        ]
        if not wanted:
            return {name: np.empty(0, dtype=np.float64) for name in columns}
        path = self.seg_path(resolution)

        def attempt() -> List[Dict[str, np.ndarray]]:
            found: List[Dict[str, np.ndarray]] = []
            with path.open("rb") as handle:
                for block in wanted:
                    handle.seek(block["offset"])
                    frame = io_read(handle, block["length"], path)
                    if len(frame) != block["length"]:
                        raise SegmentError(
                            f"{path} torn at offset {block['offset']}"
                        )
                    if _crc(frame[8:-4]) != block["crc32"]:
                        raise SegmentError(
                            f"{path} block at offset {block['offset']} "
                            "disagrees with its manifest CRC32"
                        )
                    found.append(decode_block(frame, columns))
            return found

        try:
            # Transient EIO reads retry with backoff; CRC failures are
            # SegmentErrors (possible bit rot), never retried -- loud.
            parts = retry_io(attempt, f"segment_read:{path.name}")
        except OSError as exc:
            raise SegmentError(f"cannot read {path}: {exc}")
        out = {
            name: np.concatenate([p[name] for p in parts])
            for name in columns
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

    # ------------------------------------------------------------------
    # Truncation (campaign resume path)
    # ------------------------------------------------------------------

    def truncate_from(self, t: float) -> int:
        """Drop every raw sample at ``t`` or later; returns rows dropped.

        Used when a resumed campaign replays epochs that were already
        exported: the replay re-appends them, so the stale suffix is
        cut first.  Rollup files are cleared outright (a bucket
        straddling the cut would otherwise keep stale statistics) and
        regenerated by the next ``compact()``.
        """
        manifest, last, _tail = self._tail_view()
        if manifest is None:
            return 0
        _acknowledged, last_t1 = self._last_block(RAW, manifest, last)
        if last_t1 is None or last_t1 < t:
            return 0  # nothing at or after t; existing rollups stay valid
        before = self.file_entry(RAW)["rows"]
        data = self.read(RAW)
        mask = data["t"] < t
        dropped = before - int(mask.sum())
        if dropped == 0:
            return 0
        self.replace(RAW, [data[name][mask] for name in RAW_COLUMNS])
        self.replace(HOURLY, None)
        self.replace(DAILY, None)
        return dropped
