"""The one durable append, CRC-framed JSON lines, and the quarantine move.

Every append-only file grows through :func:`append_bytes`: the
campaign's epoch log (:mod:`repro.campaign.log`), each building's
commit log (:mod:`repro.store.commitlog`) and each series' ``raw.seg``
when a fold copies logged frames into it (:mod:`repro.store.segment`).
An append is written and fsynced, so after a crash the file is its
acknowledged bytes followed by at most one *torn tail*: the strict
prefix of an append that never finished.  Each caller cuts a torn tail
before it appends, and fsyncs the directory after creating a file.

The epoch log's records are lines of the form::

    {"crc":CRC32,"record":{...},"schema":TAG}\\n

where the CRC32 covers the record's canonical (sorted-key, compact)
JSON.  Damage that is not a torn tail -- in a store segment, a commit
log, a campaign checkpoint -- is moved aside by :func:`quarantine`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from ..faults.io import io_fsync, io_write, retry_io

_DECODER = json.JSONDecoder()


def _record_json(record: Mapping[str, Any]) -> str:
    return json.dumps(
        dict(record), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _crc(record_json: str) -> int:
    return zlib.crc32(record_json.encode("utf-8")) & 0xFFFFFFFF


def encode_line(schema: str, record: Mapping[str, Any]) -> str:
    """One line (without its newline) carrying ``record`` under ``schema``.

    Byte-identical to ``json.dumps({"crc", "record", "schema"},
    sort_keys=True, separators=(",", ":"))``.
    """
    record_json = _record_json(record)
    return '{"crc":%d,"record":%s,"schema":%s}' % (
        _crc(record_json), record_json, json.dumps(schema),
    )


def decode_line(schema: str, line: str) -> Dict[str, Any]:
    """The record inside one line; ``ValueError`` when it does not verify."""
    envelope = json.loads(line)
    if not isinstance(envelope, dict) or envelope.get("schema") != schema:
        raise ValueError(f"line is not tagged {schema!r}")
    record = envelope.get("record")
    if not isinstance(record, dict):
        raise ValueError("line has no record object")
    if envelope.get("crc") != _crc(_record_json(record)):
        raise ValueError("line failed its CRC")
    return record


def is_torn_tail(tail: bytes) -> bool:
    """Whether bytes after a file's last newline can be an interrupted append.

    A torn append leaves a strict prefix of ``line + "\\n"``.  That is
    never a complete JSON value followed by more bytes -- the shape a
    damaged final newline leaves, which is corruption, not a tear.
    """
    text = tail.decode("latin-1")
    try:
        _value, end = _DECODER.raw_decode(text)
    except ValueError:
        return True
    return end == len(text)


@dataclass(frozen=True)
class LineScan:
    """What :func:`scan_lines` found.

    Attributes:
        records: The records of the valid lines before the first problem.
        ends: The byte offset just past each of those lines' newline, so
            ``ends[n - 1]`` is where a cut that keeps ``n`` records goes.
        bad: Why the bytes after the prefix are invalid; None when there
            are none, or when they are only a torn tail.
    """

    records: List[Dict[str, Any]]
    ends: List[int]
    bad: Optional[str]

    @property
    def good_bytes(self) -> int:
        """Byte length of the valid prefix."""
        return self.ends[-1] if self.ends else 0


def scan_lines(raw: bytes, schema: str) -> LineScan:
    """Validate ``raw`` line by line, stopping at the first problem."""
    records: List[Dict[str, Any]] = []
    ends: List[int] = []
    cursor = 0
    while cursor < len(raw):
        newline = raw.find(b"\n", cursor)
        if newline < 0:
            if is_torn_tail(raw[cursor:]):
                return LineScan(records, ends, None)
            return LineScan(records, ends, "bytes follow the final line")
        try:
            records.append(decode_line(schema, raw[cursor:newline].decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            return LineScan(records, ends, str(exc))
        cursor = newline + 1
        ends.append(cursor)
    return LineScan(records, ends, None)


def truncate_file(path: Union[str, Path], size: int) -> None:
    """Cut ``path`` back to ``size`` bytes.

    This heals every torn tail, and cuts a log back to a record boundary.
    """
    with open(path, "r+b") as handle:
        handle.truncate(size)
        handle.flush()
        os.fsync(handle.fileno())


def append_bytes(path: Union[str, Path], data: bytes, base: int, what: str) -> None:
    """Append ``data`` after the first ``base`` bytes of ``path``, fsynced.

    The caller has cut any torn tail, so the file holds ``base`` bytes
    (none when it does not exist yet).  Transient EIO is retried with
    bounded backoff.  Before each retry, and after a final failure, the
    file is cut back to ``base``: a torn attempt can never merge with
    the retried bytes, and a failed append acknowledges nothing.
    """
    path = Path(path)

    def heal(*_args: Any) -> None:
        if path.exists() and path.stat().st_size > base:
            truncate_file(path, base)

    def attempt() -> None:
        with path.open("ab") as handle:
            io_write(handle, data)
            handle.flush()
            io_fsync(handle.fileno(), path)

    try:
        retry_io(attempt, what, on_retry=heal)
    except BaseException:
        try:
            heal()
        except OSError:
            pass  # the file stays longer than acknowledged: a torn tail
        raise


def append_line(path: Union[str, Path], line: str, what: str) -> None:
    """Append ``line`` plus its newline after the file's current bytes."""
    path = Path(path)
    base = path.stat().st_size if path.exists() else 0
    append_bytes(path, (line + "\n").encode("utf-8"), base, what)


def quarantine(source: Path, root: Path, stem: str) -> Optional[Path]:
    """Move a file or directory to a fresh ``root/stem[.N]``.

    Returns where it went, or None when ``source`` has vanished (another
    process moved it first).
    """
    if not os.path.lexists(source):
        return None
    root.mkdir(parents=True, exist_ok=True)
    target, suffix = root / stem, 0
    while target.exists():
        suffix += 1
        target = root / f"{stem}.{suffix}"
    try:
        source.replace(target)
    except FileNotFoundError:
        return None
    return target
