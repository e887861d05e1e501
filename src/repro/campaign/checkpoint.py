"""Crash-safe, versioned campaign checkpoints with quarantine + rollback.

A checkpoint is one JSON file ``checkpoints/epoch-NNNNNN.json`` written
through the runtime's fsync-then-rename path
(:func:`repro.runtime.serialize.write_json_atomic`), so a reader never
observes a half-written file.  What atomic rename cannot protect
against -- a torn write inside a previously-good file, bit rot, a
truncating copy -- is caught on *load*: every checkpoint embeds a
SHA-256 over the canonical JSON of its body, and ``load_latest``
verifies it before trusting anything.

A checkpoint that fails verification is moved into ``.quarantine/``
(never deleted: it is forensic evidence) and the store rolls back to
the next-newest good checkpoint.  Only when every checkpoint is corrupt
or absent does the store give up with an explicit
:class:`~repro.errors.CheckpointError` -- the failure mode is always
"resume from an older epoch" or "loud error", never "silently wrong".
A resume also passes over good checkpoints newer than the epoch log
covers (``max_epoch``), leaving them in place: the replay rewrites them
with the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..errors import CheckpointError
from ..faults.io import io_read_text
from ..obs import obs_counter, obs_event
from ..runtime import crclog
from ..runtime.serialize import canonical_json, write_json_atomic

#: Schema tag for campaign checkpoints.
CHECKPOINT_SCHEMA = "repro/campaign-checkpoint/v1"

#: Subdirectory (inside the checkpoint dir) holding corrupt files.
QUARANTINE_DIRNAME = ".quarantine"

_CHECKPOINT_NAME = re.compile(r"^epoch-(\d{6})\.json$")


def checkpoint_digest(body: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a checkpoint body."""
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


class CheckpointStore:
    """Versioned checkpoint files for one campaign state directory.

    Args:
        directory: The checkpoint directory (created on first save).
        keep: Good checkpoints retained; older ones are pruned after a
            successful save so rollback always has history to fall to.
    """

    def __init__(self, directory: Union[str, Path], keep: int = 5):
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / QUARANTINE_DIRNAME

    def path_for(self, epoch: int) -> Path:
        return self.directory / f"epoch-{epoch:06d}.json"

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------

    def save(
        self,
        epoch: int,
        config: Mapping[str, Any],
        state: Mapping[str, Any],
    ) -> Path:
        """Atomically persist the boundary state after ``epoch`` epochs."""
        body: Dict[str, Any] = {
            "schema": CHECKPOINT_SCHEMA,
            "epoch": epoch,
            "config": dict(config),
            "state": dict(state),
        }
        payload = dict(body)
        payload["sha256"] = checkpoint_digest(body)
        path = write_json_atomic(self.path_for(epoch), payload)
        obs_counter("campaign.checkpoints_written").inc()
        self._prune()
        return path

    def _prune(self) -> None:
        """Drop good checkpoints beyond the newest ``keep``."""
        for path, _ in self._candidates()[self.keep:]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------

    def _candidates(self) -> List[Tuple[Path, int]]:
        """(path, epoch) for every checkpoint file, newest first."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.iterdir():
            match = _CHECKPOINT_NAME.match(path.name)
            if match:
                found.append((path, int(match.group(1))))
        return sorted(found, key=lambda item: item[1], reverse=True)

    def verify(self, path: Path) -> Dict[str, Any]:
        """Load + integrity-check one checkpoint file.

        Raises :class:`CheckpointError` describing exactly what is
        wrong: unreadable JSON, wrong schema, missing fields, or a
        content hash that does not match the body (torn/corrupt write).
        """
        try:
            payload = json.loads(io_read_text(path))
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
        except ValueError as exc:
            raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise CheckpointError(f"checkpoint {path} is not an object")
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {path} has schema {payload.get('schema')!r} "
                f"(expected {CHECKPOINT_SCHEMA!r})"
            )
        for key in ("epoch", "config", "state", "sha256"):
            if key not in payload:
                raise CheckpointError(f"checkpoint {path} is missing {key!r}")
        body = {k: v for k, v in payload.items() if k != "sha256"}
        digest = checkpoint_digest(body)
        if digest != payload["sha256"]:
            raise CheckpointError(
                f"checkpoint {path} failed integrity verification "
                f"(stored {payload['sha256'][:12]}, computed {digest[:12]})"
            )
        return payload

    def quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a corrupt checkpoint aside for forensics."""
        target = crclog.quarantine(path, self.quarantine_dir, path.name)
        if target is None:  # pragma: no cover - racing deletion
            return None
        obs_counter("campaign.checkpoints_quarantined").inc()
        obs_event(
            "warning", "campaign.checkpoint_quarantined",
            path=str(path), quarantined_to=str(target), reason=reason,
        )
        return target

    def find(
        self, max_epoch: Optional[int] = None
    ) -> Tuple[Optional[Dict[str, Any]], List[Tuple[Path, str]]]:
        """The newest good checkpoint at or before ``max_epoch``; changes nothing.

        Returns it (None when there is none) with every corrupt
        checkpoint passed on the way, as ``(path, what is wrong)``.
        Checkpoints newer than ``max_epoch`` are not read.
        """
        corrupt: List[Tuple[Path, str]] = []
        for path, epoch in self._candidates():
            if max_epoch is not None and epoch > max_epoch:
                continue
            try:
                return self.verify(path), corrupt
            except CheckpointError as exc:
                corrupt.append((path, str(exc)))
        return None, corrupt

    def load_latest(self, max_epoch: Optional[int] = None) -> Optional[Dict[str, Any]]:
        """The newest checkpoint at or before ``max_epoch`` that verifies.

        Corrupt checkpoints encountered on the way are quarantined and
        the search rolls back to older ones; checkpoints newer than
        ``max_epoch`` stay where they are.  Every checkpoint passed
        over, for either reason, counts as one ``campaign.rollbacks``.
        Returns None when no checkpoint file at or before ``max_epoch``
        exists; raises :class:`CheckpointError` when such files exist
        but every one of them is corrupt.
        """
        payload, corrupt = self.find(max_epoch)
        for path, reason in corrupt:
            self.quarantine(path, reason)
        if payload is None:
            if not corrupt:
                return None
            scope = "" if max_epoch is None else f" at or before epoch {max_epoch}"
            raise CheckpointError(
                f"all {len(corrupt)} checkpoint(s){scope} in {self.directory} "
                f"are corrupt (quarantined under {self.quarantine_dir}); the "
                "campaign must be restarted from scratch"
            )
        passed = len(corrupt) + sum(
            1 for _, epoch in self._candidates() if epoch > payload["epoch"]
        )
        if passed:
            obs_counter("campaign.rollbacks").inc(passed)
        return payload

    def latest_epoch(self) -> Optional[int]:
        """Epoch of the newest on-disk checkpoint file (unverified)."""
        candidates = self._candidates()
        return candidates[0][1] if candidates else None
