"""Per-building partition locks for the telemetry store.

Every operation that mutates a building partition holds that
building's :class:`PartitionLock` while it does:

* a :class:`~repro.store.store.StoreWriter`, from its first ingest into
  the building until its context exits (its flushes append the
  building's commit log, and may fold it);
* compaction's pass over the building (the fold);
* :meth:`~repro.store.store.TelemetryStore.truncate_from` (a fold when
  the log holds rows it must cut, then the segment rewrites).

Each releases the lock when it returns.  Readers never take it: the
commit log and the segment manifests are written so that a read
racing any of these sees every acknowledged row exactly once.

The lock is ``segments/<building>/.writer.lock``, held with
``flock(LOCK_EX)`` on an open descriptor, so the kernel releases it
when its holder dies, however it dies.  The file records the holder's
pid.  A holder that finds the file still naming another process (its
owner crashed or was SIGKILLed before removing it) or holding garbage
from a crashed half-write reclaims it loudly -- an ``obs`` warning
event plus the ``store.locks_reclaimed`` counter.  Release removes the
file and then drops the lock; an acquirer that locked a file which
was removed meanwhile starts over, so two holders never coexist.

:meth:`PartitionLock.acquire` waits for a live holder for up to
:data:`LOCK_WAIT_S`, so a campaign's per-epoch flush and a ``store
compact`` take turns, and only then raises
:class:`~repro.errors.PartitionLockError`.  The fleet supervisor treats
that as the bug it is (two workers assigned one shard).  A thread
that asks for a lock it already holds through another lock object
fails at once instead of waiting on itself.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..errors import PartitionLockError
from ..obs import obs_counter, obs_event

#: Lockfile name inside a building's segment directory.  Dot-prefixed
#: so the directory walk in :meth:`TelemetryStore.keys` and the stats
#: walk never mistake it for series data.
LOCK_FILENAME = ".writer.lock"

LOCK_SCHEMA = "repro/store-lock/v1"

#: Seconds :meth:`PartitionLock.acquire` waits for a live holder.
#: Holders keep the lock for one flush (milliseconds), one building's
#: compaction pass (one fold) or one
#: ``truncate_from``, so a wait this long means a stuck or misassigned
#: writer, not a busy one.
LOCK_WAIT_S = 10.0

#: First and longest sleep between two attempts while waiting.
_POLL_FIRST_S = 0.001
_POLL_MAX_S = 0.05

#: Locks held here: lockfile path -> (pid, thread ident) of the holder.
#: The pid keeps a forked child from mistaking its parent's locks for
#: its own.
_held_here: Dict[str, Tuple[int, int]] = {}


def pid_alive(pid: int) -> bool:
    """True when ``pid`` is a live process we could signal.

    ``EPERM`` counts as alive (the process exists under another uid);
    only ``ESRCH`` -- no such process -- marks it dead.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except OSError as exc:
        return exc.errno != errno.ESRCH
    return True


class PartitionLock:
    """One lock over one building's segment subtree."""

    def __init__(self, segments_dir: Path, building: str):
        self.building = building
        self.path = Path(segments_dir) / building / LOCK_FILENAME
        self._fd: Optional[int] = None

    # ------------------------------------------------------------------

    def acquire(self) -> "PartitionLock":
        """Take the lock, waiting up to :data:`LOCK_WAIT_S` for a live
        holder; raises :class:`~repro.errors.PartitionLockError` after."""
        if self._fd is not None:
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = None
        delay = _POLL_FIRST_S
        while True:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                if _held_here.get(str(self.path)) == _holder():
                    # Waiting would wait on ourselves.
                    raise PartitionLockError(
                        self.building, self.path, os.getpid()
                    )
                now = time.monotonic()
                if deadline is None:
                    deadline = now + LOCK_WAIT_S
                    obs_counter("store.lock_waits").inc()
                if now >= deadline:
                    raise PartitionLockError(
                        self.building, self.path, self._owner_pid()
                    )
                time.sleep(min(delay, deadline - now))
                delay = min(2.0 * delay, _POLL_MAX_S)
                continue
            if self._is_current(fd):
                break
            os.close(fd)  # locked a file its holder removed: start over
        self._claim(fd)
        self._fd = fd
        _held_here[str(self.path)] = _holder()
        return self

    def release(self) -> None:
        """Drop the lock; idempotent, tolerates an already-removed file."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        _held_here.pop(str(self.path), None)
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------

    def _is_current(self, fd: int) -> bool:
        """Whether ``fd`` is still the file at the lock's path."""
        try:
            return os.stat(self.path).st_ino == os.fstat(fd).st_ino
        except FileNotFoundError:
            return False

    def _claim(self, fd: int) -> None:
        """Write our pid over whatever a dead holder left (loudly)."""
        previous = os.pread(fd, 4096, 0)
        if previous:
            obs_counter("store.locks_reclaimed").inc()
            obs_event(
                "warning", "store.lock_reclaimed",
                building=self.building, path=str(self.path),
                stale_pid=_pid_in(previous),
            )
        body = json.dumps(
            {"schema": LOCK_SCHEMA, "building": self.building, "pid": os.getpid()}
        ).encode("utf-8")
        os.ftruncate(fd, 0)
        os.pwrite(fd, body, 0)

    def _owner_pid(self) -> Optional[int]:
        try:
            return _pid_in(self.path.read_bytes())
        except OSError:
            return None

    # ------------------------------------------------------------------

    def __enter__(self) -> "PartitionLock":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


def _holder() -> Tuple[int, int]:
    return os.getpid(), threading.get_ident()


def _pid_in(body: bytes) -> Optional[int]:
    """The pid a lockfile's bytes name, or None for garbage."""
    try:
        return int(json.loads(body.decode("utf-8")).get("pid"))
    except (ValueError, TypeError, AttributeError, UnicodeDecodeError):
        return None
