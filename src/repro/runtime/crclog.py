"""CRC-framed JSON lines: the one append-only durability primitive.

Both append-only files of the program -- the campaign's epoch log
(:mod:`repro.campaign.log`) and each store segment's block journal
(:mod:`repro.store.segment`) -- are sequences of lines of the form::

    {"crc":CRC32,"record":{...},"schema":TAG}\\n

where the CRC32 covers the record's canonical (sorted-key, compact)
JSON.  An append writes one whole line and fsyncs it, so after a crash
the file is a run of complete lines followed by at most one *torn
tail*: the strict prefix of a line whose write never finished.

This module owns the format and the mechanics -- append with
retry-and-heal, scan, tail read, truncate.  What to do with a complete
line that fails validation is the caller's policy: the epoch log cuts
the file back to the valid prefix, the store quarantines the segment.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from ..faults.io import io_fsync, io_read, io_write, retry_io

#: Bytes read per step when looking for a file's last line.
_TAIL_WINDOW = 4096

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
        good_bytes: Byte length of that valid prefix.
        bad: Why the bytes after the prefix are invalid; None when there
            are none, or when they are only a torn tail.
    """

    records: List[Dict[str, Any]]
    good_bytes: int
    bad: Optional[str]


def scan_lines(raw: bytes, schema: str) -> LineScan:
    """Validate ``raw`` line by line, stopping at the first problem."""
    records: List[Dict[str, Any]] = []
    cursor = 0
    while cursor < len(raw):
        newline = raw.find(b"\n", cursor)
        if newline < 0:
            if is_torn_tail(raw[cursor:]):
                return LineScan(records, cursor, None)
            return LineScan(records, cursor, "bytes follow the final line")
        try:
            records.append(decode_line(schema, raw[cursor:newline].decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            return LineScan(records, cursor, str(exc))
        cursor = newline + 1
    return LineScan(records, cursor, None)


@dataclass(frozen=True)
class FileTail:
    """The end of a line file, as :func:`read_tail` found it.

    Attributes:
        line: The last complete line (without its newline), or None.
        end: Byte offset just past that line's newline (0 when none).
        size: The file's size (0 when it does not exist).
        rest: The bytes after ``end`` (empty unless the file ends mid-line).
    """

    line: Optional[bytes]
    end: int
    size: int
    rest: bytes


def read_tail(path: Union[str, Path]) -> FileTail:
    """The last complete line of ``path`` without reading the whole file."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return FileTail(None, 0, 0, b"")
    with handle:
        size = os.fstat(handle.fileno()).st_size
        pos, buf = size, b""
        while pos > 0:
            step = min(_TAIL_WINDOW, pos)
            pos -= step
            handle.seek(pos)
            buf = io_read(handle, step, path) + buf
            last = buf.rfind(b"\n")
            if last < 0:
                continue
            before = buf.rfind(b"\n", 0, last)
            if before >= 0 or pos == 0:
                return FileTail(
                    buf[before + 1:last], pos + last + 1, size, buf[last + 1:]
                )
    return FileTail(None, 0, size, buf)


def truncate_file(path: Union[str, Path], size: int, durable: bool = True) -> None:
    """Cut ``path`` back to ``size`` bytes (the heal of every torn tail)."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
        handle.flush()
        if durable:
            os.fsync(handle.fileno())


def append_line(
    path: Union[str, Path], line: str, what: str, durable: bool = True
) -> None:
    """Append ``line`` plus its newline, fsynced unless ``durable=False``.

    Transient EIO is retried with bounded backoff; before each retry
    the file is healed back to its pre-append length, so a torn first
    attempt can never merge with the retried line.
    """
    path = Path(path)
    data = (line + "\n").encode("utf-8")
    base = path.stat().st_size if path.exists() else 0

    def heal(_attempt: int, _exc: OSError) -> None:
        if path.exists() and path.stat().st_size > base:
            truncate_file(path, base)

    def attempt() -> None:
        with path.open("ab") as handle:
            io_write(handle, data)
            handle.flush()
            if durable:
                io_fsync(handle.fileno(), path)

    retry_io(attempt, what, on_retry=heal)
