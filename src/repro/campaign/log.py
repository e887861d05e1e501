"""Append-only JSONL epoch log with torn-tail truncation recovery.

Checkpoints are the campaign's *recovery* artifact; the epoch log is
its *audit* artifact: one JSON line per completed epoch, appended and
fsynced as the campaign runs, so an operator (or the ``status`` verb)
can see what a dead campaign was doing without deserializing state.

Lines are CRC-framed through :mod:`repro.runtime.crclog`, the same
primitive the store's segment journals use.  Appends are not atomic --
a SIGKILL or power cut mid-append leaves a torn final line.  Recovery
is deliberately simple and loss-bounded: on open,
:meth:`EpochLog.recover` scans for the longest valid prefix and
truncates the file to it.  A torn tail costs at most the one record
that was being written (which the next checkpoint replay regenerates);
an *interior* invalid line marks everything after it suspect and is
truncated too, counted separately, because a log that lies in the
middle is worse than a short one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

from ..faults.io import io_fsync, io_replace, io_write, retry_io
from ..obs import obs_counter, obs_event
from ..runtime import crclog

#: Schema tag stamped into every log line.
EPOCH_LOG_SCHEMA = "repro/campaign-epoch-log/v1"


def encode_line(record: Mapping[str, Any]) -> str:
    """One log line: ``{"schema":..., "crc":..., "record":...}``."""
    return crclog.encode_line(EPOCH_LOG_SCHEMA, record)


def decode_line(line: str) -> Dict[str, Any]:
    """The record inside one log line; raises ``ValueError`` when torn."""
    return crclog.decode_line(EPOCH_LOG_SCHEMA, line)


class EpochLog:
    """The append-only per-epoch audit log of one campaign."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one epoch record, flushed and fsynced.

        Transient EIO is retried with bounded backoff; before each
        retry the file is healed back to its pre-append length, so a
        torn first attempt can never merge with the retried line.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        crclog.append_line(
            self.path, encode_line(record), f"epoch_log_append:{self.path.name}"
        )

    def _scan(self) -> crclog.LineScan:
        raw = self.path.read_bytes() if self.path.exists() else b""
        return crclog.scan_lines(raw, EPOCH_LOG_SCHEMA)

    def recover(self) -> List[Dict[str, Any]]:
        """Validate the log, truncate any torn/corrupt tail, return records.

        Returns the longest valid record prefix.  When truncation was
        needed the event is counted (``campaign.log_truncations``) and
        logged with the byte offset, so silent data loss never happens.
        """
        if not self.path.exists():
            return []
        size = self.path.stat().st_size
        scan = self._scan()
        if scan.good_bytes < size:
            crclog.truncate_file(self.path, scan.good_bytes)
            obs_counter("campaign.log_truncations").inc()
            obs_event(
                "warning", "campaign.log_truncated",
                path=str(self.path), kept_records=len(scan.records),
                kept_bytes=scan.good_bytes, dropped_bytes=size - scan.good_bytes,
            )
        return scan.records

    def rewrite(self, records: List[Mapping[str, Any]]) -> None:
        """Replace the log's contents atomically (resume log-sync path).

        Used when a checkpoint is older than the log tail: replayed
        epochs will re-append their records, so the stale tail is cut
        back to the checkpoint's epoch first.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".jsonl.tmp")

        def attempt() -> None:
            with tmp.open("w") as handle:
                for record in records:
                    io_write(handle, encode_line(record) + "\n")
                handle.flush()
                io_fsync(handle.fileno(), tmp)
            io_replace(tmp, self.path)

        try:
            retry_io(attempt, f"epoch_log_rewrite:{self.path.name}")
        except BaseException:
            if tmp.exists():
                tmp.unlink()
            raise

    def records(self) -> List[Dict[str, Any]]:
        """All currently-valid records (without truncating the file)."""
        return self._scan().records
