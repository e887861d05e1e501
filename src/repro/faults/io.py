"""Storage-fault injection: a seedable shim over the real I/O paths.

PR 3 made the *radio channel* hostile; this module does the same for
the *disk*.  Months-long deployments run on flaky flash and full
volumes, so the durability contracts built by the checkpoint, epoch-log
and segment layers ("recovered or loud, never silently wrong") need a
way to be exercised against failing syscalls, not just SIGKILL.

An :class:`IoFaultPlan` (schema ``repro/io-faults/v1``) declares
per-operation fault rates:

* ``enospc_write_rate`` -- a write fails with ``ENOSPC`` before any
  byte lands (the volume filled up);
* ``eio_read_rate`` / ``eio_fsync_rate`` -- a read / fsync fails with
  ``EIO`` (transient media error; see ``persistence`` below);
* ``torn_write_rate`` -- a write persists only a strict prefix of its
  payload, then fails with ``EIO`` (power-loss / FTL tear);
* ``drop_rename_rate`` -- ``os.replace`` silently does nothing: the
  process believes the rename happened, the directory says otherwise.
  This is the page-cache illusion a power cut exposes when the parent
  directory was never fsynced; the orphaned temp file is left behind
  for :func:`reclaim_tmp_files` to find;
* ``bitrot_read_rate`` -- a read succeeds but one bit of the returned
  data is flipped (at-rest corruption; CRCs and content hashes must
  catch it);
* ``persistence`` -- the probability that a fired ENOSPC/EIO fault
  *latches*: every later operation of the same kind on the same path
  fails too, modelling a dead sector rather than a glitch.

The plan shares :class:`~repro.faults.plan.RatePlan` with
:class:`~repro.faults.plan.FaultPlan`, and the injector shares
:class:`~repro.faults.plan.SeededInjector` with
:class:`~repro.faults.injector.FaultInjector`: every fault type draws
from its own named RNG stream seeded from ``"{seed}:{name}"``, zero
rates never touch their stream, and :meth:`IoFaultInjector.from_plan`
returns None for inactive plans -- so with no active plan the shim
functions below are a single ``is None`` test in front of the exact
syscalls the code made before this module existed.  Inactive plans are
*inert*: byte-identical artifacts, zero extra syscalls.

The shim is process-global (``install_io_faults`` / ``io_faults``)
rather than threaded as a parameter, because the write paths it covers
span four subsystems and fork into fleet worker children -- a forked
worker inherits the installed injector, which is exactly what a chaos
drill wants.
"""

from __future__ import annotations

import errno
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, IO, Iterator, Optional, Tuple, TypeVar, Union

from ..obs import obs_counter, obs_event
from .plan import PROBABILITY, RatePlan, SeededInjector, option

#: The fault rates: every probability field except ``persistence``.
IO_RATE_FIELDS = (
    "enospc_write_rate",
    "eio_read_rate",
    "eio_fsync_rate",
    "torn_write_rate",
    "drop_rename_rate",
    "bitrot_read_rate",
)

#: Schema tag written into serialized plans.
IO_FAULT_SCHEMA = "repro/io-faults/v1"

#: Retry policy for transient I/O errors -- the same bounded
#: exponential shape as :func:`repro.fleet.config.backoff_delay`:
#: ``base * 2**(attempt-1)`` clamped at the cap.
IO_RETRIES = 3
IO_BACKOFF_BASE_S = 0.005
IO_BACKOFF_MAX_S = 0.05

#: Errnos :func:`retry_io` treats as transient.  ENOSPC is *not* here:
#: a full disk does not heal by waiting 10 ms, so it propagates to the
#: degradation paths immediately.
TRANSIENT_ERRNOS = frozenset({errno.EIO})

#: Suffix shared by every temp file the write paths create
#: (``write_json_atomic`` mkstemp, ``*.seg.tmp``,
#: ``heartbeat.json.tmp``) -- what :func:`reclaim_tmp_files` sweeps.
TMP_SUFFIX = ".tmp"

_T = TypeVar("_T")


@dataclass(frozen=True)
class IoFaultPlan(RatePlan):
    """A seedable description of every storage fault the shim injects.

    Args:
        seed: Seed for the fault RNG streams (independent of every
            simulator seed: the same campaign can replay under
            different disks and vice versa).
        enospc_write_rate: Per-write probability of ``ENOSPC``.
        eio_read_rate: Per-read probability of ``EIO``.
        eio_fsync_rate: Per-fsync probability of ``EIO``.
        torn_write_rate: Per-write probability the write persists only
            a strict prefix, then fails with ``EIO``.
        drop_rename_rate: Per-rename probability ``os.replace`` is
            silently dropped.
        bitrot_read_rate: Per-read probability one bit of the returned
            data is flipped.
        persistence: Probability a fired ENOSPC/EIO fault latches its
            (operation, path) pair broken for the injector's lifetime.
            Not a rate: it neither activates nor scales a plan.
    """

    SCHEMA = IO_FAULT_SCHEMA
    KIND = "io-fault"
    RATES = IO_RATE_FIELDS

    enospc_write_rate: float = option(0.0, PROBABILITY)
    eio_read_rate: float = option(0.0, PROBABILITY)
    eio_fsync_rate: float = option(0.0, PROBABILITY)
    torn_write_rate: float = option(0.0, PROBABILITY)
    drop_rename_rate: float = option(0.0, PROBABILITY)
    bitrot_read_rate: float = option(0.0, PROBABILITY)
    persistence: float = option(0.0, PROBABILITY)


class IoFaultInjector(SeededInjector):
    """Replays the storage faults an :class:`IoFaultPlan` describes.

    Build one per drill: its RNG streams and latched-broken paths are
    stateful.  Its ``counts`` are the chaos manifest's ``io.*``
    accounting.
    """

    COUNTER_PREFIX = "io"

    def __init__(self, plan: IoFaultPlan):
        super().__init__(plan)
        #: (operation, path) -> errno for latched-broken pairs.
        self._broken: Dict[Tuple[str, str], int] = {}

    def _path_key(self, path: Optional[Union[str, Path]]) -> str:
        return str(path) if path is not None else "?"

    def _check_broken(self, op: str, path: Optional[Union[str, Path]]) -> None:
        err = self._broken.get((op, self._path_key(path)))
        if err is not None:
            self.record("persistent_hits")
            raise OSError(
                err, f"injected persistent {op} fault", self._path_key(path)
            )

    def _latch(self, op: str, path: Optional[Union[str, Path]], err: int) -> None:
        if self.plan.persistence > 0.0 and self._hit(
            "persistence", self.plan.persistence
        ):
            self._broken[(op, self._path_key(path))] = err
            self.record("persistent_faults")

    # ------------------------------------------------------------------
    # Faulted operations (called only through the shim functions)
    # ------------------------------------------------------------------

    def write(self, handle: IO[Any], data: Any) -> None:
        path = getattr(handle, "name", None)
        self._check_broken("write", path)
        if self._hit("enospc", self.plan.enospc_write_rate):
            self.record("enospc")
            self._latch("write", path, errno.ENOSPC)
            raise OSError(
                errno.ENOSPC, "injected ENOSPC", self._path_key(path)
            )
        if len(data) > 1 and self._hit("torn_write", self.plan.torn_write_rate):
            keep = 1 + self._stream("torn_extent").randrange(len(data) - 1)
            handle.write(data[:keep])
            self.record("torn_writes")
            self._latch("write", path, errno.EIO)
            raise OSError(
                errno.EIO, "injected torn write", self._path_key(path)
            )
        handle.write(data)

    def fsync(self, fileno: int, path: Optional[Union[str, Path]] = None) -> None:
        self._check_broken("fsync", path)
        if self._hit("eio_fsync", self.plan.eio_fsync_rate):
            self.record("eio")
            self._latch("fsync", path, errno.EIO)
            raise OSError(
                errno.EIO, "injected fsync EIO", self._path_key(path)
            )
        os.fsync(fileno)

    def replace(
        self, src: Union[str, Path], dst: Union[str, Path]
    ) -> None:
        if self._hit("drop_rename", self.plan.drop_rename_rate):
            # The rename "succeeds" as far as this process can tell --
            # the page-cache illusion a power cut exposes.  The temp
            # file stays behind for reclaim_tmp_files to sweep.
            self.record("renames_dropped")
            return
        os.replace(src, dst)

    def _maybe_bitrot(self, data: bytes) -> bytes:
        if data and self._hit("bitrot", self.plan.bitrot_read_rate):
            stream = self._stream("bitrot_site")
            index = stream.randrange(len(data))
            bit = 1 << stream.randrange(8)
            self.record("bitrot_reads")
            return data[:index] + bytes([data[index] ^ bit]) + data[index + 1:]
        return data

    def _check_read(self, path: Optional[Union[str, Path]]) -> None:
        self._check_broken("read", path)
        if self._hit("eio_read", self.plan.eio_read_rate):
            self.record("eio")
            self._latch("read", path, errno.EIO)
            raise OSError(
                errno.EIO, "injected read EIO", self._path_key(path)
            )

    def read_bytes(self, path: Union[str, Path]) -> bytes:
        self._check_read(path)
        return self._maybe_bitrot(Path(path).read_bytes())

    def read_handle(
        self, handle: IO[bytes], n: int, path: Optional[Union[str, Path]] = None
    ) -> bytes:
        self._check_read(path)
        return self._maybe_bitrot(handle.read(n))


# ----------------------------------------------------------------------
# The process-global shim
# ----------------------------------------------------------------------

_active: Optional[IoFaultInjector] = None


def active_io_injector() -> Optional[IoFaultInjector]:
    """The currently installed injector, or None (the clean path)."""
    return _active


def io_faults_active() -> bool:
    """True while an injector is installed."""
    return _active is not None


def install_io_faults(plan: Optional[IoFaultPlan]) -> Optional[IoFaultInjector]:
    """Install ``plan`` globally; returns the injector (None if inactive).

    Inactive plans install nothing, so the shim stays on its clean
    no-extra-syscall path.  Forked children inherit the installation.
    """
    global _active
    _active = IoFaultInjector.from_plan(plan)
    return _active


def clear_io_faults() -> None:
    """Remove any installed injector (idempotent)."""
    global _active
    _active = None


@contextmanager
def io_faults(plan: Optional[IoFaultPlan]) -> Iterator[Optional[IoFaultInjector]]:
    """Install ``plan`` for the duration of the block."""
    injector = install_io_faults(plan)
    try:
        yield injector
    finally:
        clear_io_faults()


def io_write(handle: IO[Any], data: Any) -> None:
    """Write ``data`` to an open handle through the shim."""
    if _active is None:
        handle.write(data)
        return
    _active.write(handle, data)


def io_fsync(fileno: int, path: Optional[Union[str, Path]] = None) -> None:
    """fsync a file descriptor through the shim (``path`` labels it)."""
    if _active is None:
        os.fsync(fileno)
        return
    _active.fsync(fileno, path)


def io_replace(src: Union[str, Path], dst: Union[str, Path]) -> None:
    """``os.replace`` through the shim."""
    if _active is None:
        os.replace(src, dst)
        return
    _active.replace(src, dst)


def io_read_bytes(path: Union[str, Path]) -> bytes:
    """``Path.read_bytes`` through the shim."""
    if _active is None:
        return Path(path).read_bytes()
    return _active.read_bytes(path)


def io_read_text(path: Union[str, Path]) -> str:
    """``Path.read_text`` through the shim (UTF-8)."""
    if _active is None:
        return Path(path).read_text()
    return _active.read_bytes(path).decode("utf-8")


def io_read(
    handle: IO[bytes], n: int, path: Optional[Union[str, Path]] = None
) -> bytes:
    """A positioned ``handle.read(n)`` through the shim."""
    if _active is None:
        return handle.read(n)
    return _active.read_handle(handle, n, path)


# ----------------------------------------------------------------------
# Retry with bounded backoff
# ----------------------------------------------------------------------

def retry_io(
    operation: Callable[[], _T],
    what: str,
    retries: int = IO_RETRIES,
    backoff_base_s: float = IO_BACKOFF_BASE_S,
    backoff_max_s: float = IO_BACKOFF_MAX_S,
    on_retry: Optional[Callable[[int, OSError], None]] = None,
) -> _T:
    """Run ``operation``, retrying transient errnos with bounded backoff.

    Only :data:`TRANSIENT_ERRNOS` (EIO) are retried -- ENOSPC and every
    other errno propagate immediately to the caller's degradation or
    quarantine path.  Each retry is counted (``io.retries``) and logged;
    ``on_retry(attempt, exc)`` lets callers heal partial state (e.g.
    truncate a torn append tail) before the operation reruns.  The last
    error is re-raised once the budget is spent -- loud, never swallowed.
    """
    attempt = 0
    while True:
        try:
            return operation()
        except OSError as exc:
            if exc.errno not in TRANSIENT_ERRNOS or attempt >= retries:
                raise
            attempt += 1
            obs_counter("io.retries").inc()
            obs_event(
                "warning", "io.retry",
                what=what, attempt=attempt, error=str(exc),
            )
            if on_retry is not None:
                on_retry(attempt, exc)
            time.sleep(
                min(backoff_max_s, backoff_base_s * (2.0 ** (attempt - 1)))
            )


# ----------------------------------------------------------------------
# Stale-temp reclaim
# ----------------------------------------------------------------------

def reclaim_tmp_files(
    root: Union[str, Path], recursive: bool = True, scope: str = "io"
) -> int:
    """Sweep leaked ``*.tmp`` files under ``root``; returns the count.

    A crash between ``mkstemp`` and ``os.replace`` (or a dropped
    rename) leaks the temp file forever -- harmless to correctness,
    corrosive to disk budgets.  Writers and drivers call this once at
    startup on directories they own exclusively (a campaign state dir,
    a locked building partition, a fleet root); the reclaim is loud,
    mirroring the dead-lock reclaim in :mod:`repro.store.lock`:
    ``io.tmp_reclaimed`` counter plus a warning event naming the root.
    """
    root = Path(root)
    if not root.is_dir():
        return 0
    candidates = root.rglob("*" + TMP_SUFFIX) if recursive else root.glob(
        "*" + TMP_SUFFIX
    )
    reclaimed = 0
    for path in sorted(candidates):
        if not path.is_file():
            continue
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing deletion
            continue
        reclaimed += 1
    if reclaimed:
        obs_counter("io.tmp_reclaimed").inc(reclaimed)
        obs_event(
            "warning", "io.tmp_reclaimed",
            root=str(root), count=reclaimed, scope=scope,
        )
    return reclaimed
