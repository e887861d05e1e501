"""The fleet worker: one building's campaign in a supervised child.

A worker process owns exactly one shard at a time.  It reuses the
campaign driver wholesale -- fresh start or checkpoint resume, the
SIGALRM epoch watchdog, the graceful SIGTERM checkpoint flush -- and
adds only the plumbing a supervised child needs:

* a **heartbeat file** (``heartbeat.json`` in the shard dir), written
  atomically at spawn and at every epoch boundary from the campaign's
  ``epoch_hook``.  Writing from the epoch loop itself (not a side
  thread) is the point: a wedged epoch stops the heartbeat, which is
  exactly the signal the supervisor's liveness watchdog needs;
* **stdout/stderr redirection** into ``worker.log`` (fd-level, so
  tracebacks and C-level writes land there too);
* ``PR_SET_PDEATHSIG`` on Linux, so a SIGKILLed supervisor takes its
  workers down with it instead of leaking orphans that still hold
  store partition locks;
* **worker-fault injection** (:mod:`repro.faults.worker`): kill / hang
  / poison fired from the epoch hook, *before* the epoch body touches
  any experiment RNG -- an injected crash is indistinguishable from a
  real one at the bytes level.

The worker's exit protocol is deliberately dumb: exit code 0 after
writing the shard's ``result.json``, 3 when interrupted by SIGTERM
(checkpoint flushed, resumable), anything else is a failure.  The
supervisor trusts the *artifact*, not the code -- a shard is done iff
its ``result.json`` exists.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Any, Mapping, Optional

from ..campaign import CampaignConfig
from ..campaign.driver import run_or_resume_campaign
from ..faults.io import io_replace, io_write
from ..faults.worker import WorkerFaultPlan
from ..obs import obs_counter, obs_event

#: Files a worker maintains inside its shard directory.
HEARTBEAT_FILENAME = "heartbeat.json"
WORKER_LOG_FILENAME = "worker.log"

#: Worker exit codes (failures are anything else, signals included).
EXIT_OK = 0
EXIT_INTERRUPTED = 3

#: How long an injected hang sleeps.  Far past any sane heartbeat
#: budget; the supervisor is expected to SIGKILL the worker first.
HANG_SLEEP_S = 3600.0

_PR_SET_PDEATHSIG = 1


def write_heartbeat(shard_dir: Path, building: str, epoch: int) -> None:
    """Atomically refresh the shard's liveness file.

    Plain ``os.replace`` with no fsync: heartbeats are wall-clock
    operational state, loss-tolerant by definition -- the supervisor
    reads recency (mtime), not history.  For the same reason an I/O
    failure here (full disk, dead sector) must not kill an otherwise
    healthy shard: the miss is swallowed after being counted, and a
    *sustained* failure surfaces through the supervisor's existing
    liveness watchdog as a stale heartbeat.
    """
    path = shard_dir / HEARTBEAT_FILENAME
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as handle:
            io_write(
                handle,
                json.dumps(
                    {
                        "building": building,
                        "epoch": epoch,
                        "pid": os.getpid(),
                        "time": time.time(),
                    }
                ),
            )
        io_replace(tmp, path)
    except OSError as exc:
        obs_counter("io.heartbeat_failures").inc()
        obs_event(
            "warning", "fleet.heartbeat_failed",
            building=building, epoch=epoch, error=str(exc),
        )
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass


def heartbeat_age_s(
    shard_dir: Path, now: Optional[float] = None
) -> Optional[float]:
    """Seconds since the shard's last heartbeat, or None when absent."""
    path = Path(shard_dir) / HEARTBEAT_FILENAME
    try:
        mtime = path.stat().st_mtime
    except OSError:
        return None
    return max(0.0, (time.time() if now is None else now) - mtime)


def _bind_to_parent_death() -> None:
    """Best-effort ``prctl(PR_SET_PDEATHSIG, SIGKILL)`` (Linux only).

    A SIGKILLed supervisor cannot clean up; this makes the kernel do
    it, so ``fleet resume`` never races leaked workers for partition
    locks or checkpoint files.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except OSError:
        pass


def _redirect_output(shard_dir: Path) -> None:
    """Point fds 1/2 (and the python wrappers) at the shard's log."""
    log_fd = os.open(
        shard_dir / WORKER_LOG_FILENAME,
        os.O_CREAT | os.O_WRONLY | os.O_APPEND,
        0o644,
    )
    sys.stdout.flush()
    sys.stderr.flush()
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    os.close(log_fd)
    sys.stdout = os.fdopen(1, "w", buffering=1, closefd=False)
    sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)


class _ShardHook:
    """The per-epoch seam: heartbeat, injected faults, CI kill window.

    Runs inside the campaign's watchdog deadline, before the epoch body
    draws anything -- it may sleep or die, never perturb an RNG.
    """

    def __init__(
        self,
        shard_dir: Path,
        building: str,
        attempt: int,
        faults: WorkerFaultPlan,
        epoch_sleep_s: float = 0.0,
    ):
        self.shard_dir = shard_dir
        self.building = building
        self.attempt = attempt
        self.faults = faults
        self.epoch_sleep_s = epoch_sleep_s

    def __call__(self, epoch: int) -> None:
        write_heartbeat(self.shard_dir, self.building, epoch)
        fault = self.faults.matching(self.building, epoch, self.attempt)
        if fault is not None:
            print(
                f"[worker] injected {fault.action} at epoch {epoch} "
                f"(attempt {self.attempt})",
                flush=True,
            )
            if fault.action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif fault.action == "hang":
                # One long wedge; the heartbeat above was the last one.
                time.sleep(HANG_SLEEP_S)
            elif fault.action == "poison":
                raise RuntimeError(
                    f"injected poison fault: shard {self.building} "
                    f"epoch {epoch} attempt {self.attempt}"
                )
        if self.epoch_sleep_s > 0.0:
            time.sleep(self.epoch_sleep_s)


def run_shard(
    shard_dir: Path,
    building: str,
    config: CampaignConfig,
    store_dir: Optional[Path] = None,
    attempt: int = 0,
    faults: Optional[WorkerFaultPlan] = None,
    epoch_sleep_s: float = 0.0,
    record_obs: bool = False,
) -> int:
    """Run (or resume) one building's campaign to completion.

    Called in the child process.  Returns the worker exit code; the
    supervisor judges success by the shard's ``result.json`` artifact.
    """
    shard_dir = Path(shard_dir)
    shard_dir.mkdir(parents=True, exist_ok=True)
    _bind_to_parent_death()
    _redirect_output(shard_dir)
    write_heartbeat(shard_dir, building, -1)
    hook = _ShardHook(
        shard_dir,
        building,
        attempt,
        faults or WorkerFaultPlan(),
        epoch_sleep_s=epoch_sleep_s,
    )
    _, outcome = run_or_resume_campaign(
        config, shard_dir, epoch_hook=hook, store_dir=store_dir,
        store_building=building, record_obs=record_obs,
    )
    return EXIT_INTERRUPTED if outcome.interrupted else EXIT_OK


def worker_main(
    shard_dir: str,
    building: str,
    config_payload: Mapping[str, Any],
    store_dir: Optional[str],
    attempt: int,
    fault_payload: Mapping[str, Any],
    epoch_sleep_s: float,
    record_obs: bool,
) -> None:
    """Process entrypoint (the ``multiprocessing`` target).

    Takes only JSON-able arguments so it works identically under fork
    and spawn start methods.
    """
    code = run_shard(
        Path(shard_dir),
        building,
        CampaignConfig.from_dict(config_payload),
        store_dir=Path(store_dir) if store_dir else None,
        attempt=attempt,
        faults=WorkerFaultPlan.from_dict(fault_payload),
        epoch_sleep_s=epoch_sleep_s,
        record_obs=record_obs,
    )
    sys.exit(code)
