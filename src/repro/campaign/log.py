"""Append-only JSONL epoch log: the only copy of the per-epoch records.

One JSON line per completed epoch, appended and fsynced as the campaign
runs.  The checkpoints hold only the boundary state (RNG and latches),
so the log is half of the recovery artifact: a resume rebuilds the
state's records from it, and an operator (or the ``status`` verb) can
read what a dead campaign was doing without deserializing anything.

Lines are CRC-framed and appended through :mod:`repro.runtime.crclog`,
whose durable append the store's commit log uses too.  Appends are not
atomic -- a SIGKILL or power cut mid-append leaves a torn final line.
The log's usable part is its *numbered prefix*: the valid lines
numbered 0, 1, 2, ... up to the first damaged line, torn tail or
numbering gap.  :meth:`EpochLog.scan` finds it without changing the
file; :meth:`EpochLog.recover` cuts the file back to it (or to a
shorter record boundary) with one truncate.  A cut that drops damage
is counted and logged, because a log that lies in the middle is worse
than a short one, and the records it drops are regenerated by the
replay from an older checkpoint.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from ..errors import CampaignError
from ..faults.io import io_read_bytes, retry_io
from ..obs import obs_counter, obs_event
from ..runtime import crclog

#: Schema tag stamped into every log line.
EPOCH_LOG_SCHEMA = "repro/campaign-epoch-log/v1"

#: Fields a log line carries for the audit trail only: the epoch's wall
#: time and whether its store export degraded.  They differ between
#: runs, so loading strips them and they never reach the result.
AUDIT_FIELDS = ("elapsed_s", "export_degraded")


def encode_line(record: Mapping[str, Any]) -> str:
    """One log line: ``{"schema":..., "crc":..., "record":...}``."""
    return crclog.encode_line(EPOCH_LOG_SCHEMA, record)


def decode_line(line: str) -> Dict[str, Any]:
    """The record inside one log line; raises ``ValueError`` when torn."""
    return crclog.decode_line(EPOCH_LOG_SCHEMA, line)


class EpochLog:
    """The append-only per-epoch record log of one campaign."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one epoch record, flushed and fsynced.

        Transient EIO is retried with bounded backoff; before each
        retry, and after a final failure, the file is cut back to its
        pre-append length, so a torn attempt can never merge with a
        later line.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        crclog.append_line(
            self.path, encode_line(record), f"epoch_log_append:{self.path.name}"
        )

    def scan(self) -> crclog.LineScan:
        """The log's numbered prefix, audit fields included; changes nothing.

        A transient EIO on the read is retried; one that persists raises
        :class:`~repro.errors.CampaignError`.
        """
        try:
            raw = retry_io(
                lambda: io_read_bytes(self.path), f"epoch_log_read:{self.path.name}"
            )
        except FileNotFoundError:
            raw = b""
        except OSError as exc:
            raise CampaignError(f"cannot read {self.path}: {exc}")
        scan = crclog.scan_lines(raw, EPOCH_LOG_SCHEMA)
        for number, record in enumerate(scan.records):
            if record.get("epoch") != number:
                return crclog.LineScan(
                    scan.records[:number], scan.ends[:number],
                    f"line {number + 1} holds epoch {record.get('epoch')!r}",
                )
        return scan

    def recover(
        self, epochs: Optional[int] = None, scan: Optional[crclog.LineScan] = None
    ) -> List[Dict[str, Any]]:
        """Cut the log back to its first ``epochs`` records and return them.

        ``epochs`` defaults to the whole numbered prefix and may not
        exceed it; ``scan`` is the caller's :meth:`scan` of the file as
        it still stands.  A cut that drops bytes past the numbered
        prefix -- a torn tail, a damaged line, a numbering gap -- is
        counted (``campaign.log_truncations``) and logged with its byte
        offsets.  The records come back without their audit fields.
        """
        if scan is None:
            scan = self.scan()
        kept = len(scan.records) if epochs is None else epochs
        size = self.path.stat().st_size if self.path.exists() else 0
        end = scan.ends[kept - 1] if kept else 0
        if end < size:
            crclog.truncate_file(self.path, end)
        if scan.good_bytes < size:
            obs_counter("campaign.log_truncations").inc()
            obs_event(
                "warning", "campaign.log_truncated",
                path=str(self.path), kept_records=kept, kept_bytes=end,
                dropped_bytes=size - end,
                reason=scan.bad or "torn tail",
            )
        return [
            {k: v for k, v in record.items() if k not in AUDIT_FIELDS}
            for record in scan.records[:kept]
        ]

    def records(self) -> List[Dict[str, Any]]:
        """The numbered prefix's records, audit fields included."""
        return self.scan().records
