"""Advisory per-building writer locks for the telemetry store.

Two processes appending to the same building partition can interleave
journal appends and corrupt each other's acknowledged state, so every
:class:`~repro.store.store.StoreWriter` takes a :class:`PartitionLock`
on each building it touches before its first flush into it.

The lock is a JSON lockfile at ``segments/<building>/.writer.lock``
created with ``O_CREAT | O_EXCL`` -- atomic on every filesystem the
store targets.  It records the owning pid; a lock whose pid is no
longer alive (its owner crashed or was SIGKILLed before releasing) is
*stale* and gets reclaimed loudly -- an ``obs`` warning event plus the
``store.locks_reclaimed`` counter -- rather than wedging the partition
forever.  A lock held by a live foreign process raises
:class:`~repro.errors.PartitionLockError`: the fleet supervisor treats
that as the bug it is (two workers assigned one shard) instead of
letting the writers race.

Advisory means exactly that: readers, ``truncate_from`` and the repair
verbs do not consult the lock -- only concurrent *writers* are the
hazard this guards against.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path
from typing import Optional

from ..errors import PartitionLockError, StoreError
from ..obs import obs_counter, obs_event

#: Lockfile name inside a building's segment directory.  Dot-prefixed
#: so the directory walk in :meth:`TelemetryStore.keys` and the stats
#: walk never mistake it for series data.
LOCK_FILENAME = ".writer.lock"

LOCK_SCHEMA = "repro/store-lock/v1"


def pid_alive(pid: int) -> bool:
    """True when ``pid`` is a live process we could signal.

    ``EPERM`` counts as alive (the process exists under another uid);
    only ``ESRCH`` -- no such process -- marks a lock stale.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except OSError as exc:
        return exc.errno != errno.ESRCH
    return True


class PartitionLock:
    """One advisory lock over one building's segment subtree."""

    def __init__(self, segments_dir: Path, building: str):
        self.building = building
        self.path = Path(segments_dir) / building / LOCK_FILENAME
        self._held = False

    # ------------------------------------------------------------------

    def acquire(self) -> "PartitionLock":
        """Take the lock, reclaiming a stale one; raises
        :class:`~repro.errors.PartitionLockError` on a live owner."""
        if self._held:
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps(
            {"schema": LOCK_SCHEMA, "building": self.building, "pid": os.getpid()}
        )
        # Bounded retry: losing an O_EXCL race to another reclaimer is
        # the only loop-back, and it resolves in one extra pass.
        for _ in range(8):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._break_stale():
                    continue
                raise PartitionLockError(
                    self.building, self.path, self._owner_pid()
                )
            try:
                os.write(fd, body.encode("utf-8"))
            finally:
                os.close(fd)
            self._held = True
            return self
        raise StoreError(
            f"could not acquire partition lock {self.path} "
            f"(lost the creation race repeatedly)"
        )

    def release(self) -> None:
        """Drop the lock; idempotent, tolerates an already-removed file."""
        if not self._held:
            return
        self._held = False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------

    def _owner_pid(self) -> Optional[int]:
        try:
            payload = json.loads(self.path.read_text())
            return int(payload.get("pid"))
        except (OSError, ValueError, TypeError):
            return None

    def _break_stale(self) -> bool:
        """Remove the existing lockfile when its owner is dead (or the
        file is unreadable garbage from a crashed half-write).  Returns
        True when the caller should retry the exclusive create."""
        pid = self._owner_pid()
        if pid is not None and pid_alive(pid):
            return False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass  # someone else broke it first; retry the create
        obs_counter("store.locks_reclaimed").inc()
        obs_event(
            "warning", "store.lock_reclaimed",
            building=self.building, path=str(self.path),
            stale_pid=pid,
        )
        return True

    # ------------------------------------------------------------------

    def __enter__(self) -> "PartitionLock":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()
