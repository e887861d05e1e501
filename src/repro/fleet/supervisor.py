"""The fleet supervisor: spawn, watch, restart, quarantine, merge.

One supervisor process drives a whole fleet run.  It keeps at most
``config.workers`` shard workers alive, watches each one through two
independent channels -- process exit (a crash) and the heartbeat file
(a wedge) -- and applies one uniform failure policy:

* a failed attempt schedules a restart after bounded exponential
  backoff (:func:`~repro.fleet.config.backoff_delay`), resuming from
  the shard's last checkpoint;
* ``max_restarts`` *consecutive* failures quarantine the shard as
  poison.  Quarantine is the fleet-level mirror of the campaign's
  degrade-don't-raise contract: the fleet completes deterministically
  with the survivors, and the loss is recorded everywhere an operator
  looks (manifest, ``fleet status``, ``fleet.quarantines``, the result
  body's ``quarantined`` list) -- never silently.

Nothing the supervisor does can change result bytes: worker count,
scheduling, backoff, kills and resumes only decide *when* shards run,
while every shard's content is pinned by its derived seed.  The merge
(:mod:`repro.fleet.merge`) then folds shard artifacts in canonical
order, so the fleet ``result.json`` sha256 is invariant across all of
it -- the property the supervisor SIGKILL-and-resume test and the
hypothesis kill-schedule test enforce.

The manifest (``fleet.json``) is the operational ledger: per-shard
restart counts, failure reasons, quarantine records, supervision
totals and wall-clock timings live here, *not* in the result artifact.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..campaign.driver import RESULT_FILENAME
from ..campaign.watchdog import ShutdownGuard
from ..errors import FleetError
from ..faults.io import reclaim_tmp_files
from ..faults.worker import WorkerFaultPlan
from ..obs import obs_counter, obs_event, obs_gauge, obs_histogram
from ..runtime.serialize import (
    read_json,
    write_json_atomic,
    write_json_atomic_verified,
)
from .config import FleetConfig, backoff_delay
from .merge import (
    FLEET_RESULT_SCHEMA,
    build_fleet_result,
    fleet_result_hash,
    load_shard_result,
)
from .worker import heartbeat_age_s, worker_main

#: Files inside a fleet directory.
FLEET_MANIFEST_FILENAME = "fleet.json"
FLEET_RESULT_FILENAME = "result.json"
SHARDS_DIRNAME = "shards"

#: Schema tag for the fleet manifest.
FLEET_MANIFEST_SCHEMA = "repro/fleet-manifest/v1"

#: Failure reasons retained per shard in the manifest (audit tail).
FAILURE_HISTORY = 5

#: Grace period for SIGTERM before a stubborn worker is SIGKILLed.
TERM_GRACE_S = 10.0

#: Shard lifecycle states persisted in the manifest.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
QUARANTINED = "quarantined"


@dataclass
class ShardSupervision:
    """One shard's supervision state (persisted minus the process)."""

    building: str
    status: str = PENDING
    failures_total: int = 0
    consecutive_failures: int = 0
    failures: List[str] = field(default_factory=list)
    quarantine_reason: Optional[str] = None
    # Runtime-only (never persisted):
    process: Optional[multiprocessing.process.BaseProcess] = None
    next_eligible: float = 0.0  # monotonic clock
    spawn_wall: float = 0.0
    spawn_monotonic: float = 0.0

    def to_manifest(self) -> Dict[str, Any]:
        persisted_status = PENDING if self.status == RUNNING else self.status
        return {
            "building": self.building,
            "status": persisted_status,
            "failures_total": self.failures_total,
            "consecutive_failures": self.consecutive_failures,
            "failures": list(self.failures),
            "quarantine_reason": self.quarantine_reason,
        }


@dataclass
class FleetOutcome:
    """What one supervise call actually did."""

    result: Optional[Dict[str, Any]]  # the fleet body; None if interrupted
    sha256: Optional[str]
    quarantined: Dict[str, str]
    interrupted: bool = False
    signal_name: Optional[str] = None
    result_file: Optional[Path] = None
    manifest_file: Optional[Path] = None
    wall_s: float = 0.0

    @property
    def completed(self) -> bool:
        return self.result is not None

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined)


class FleetSupervisor:
    """Drives one fleet directory to deterministic completion."""

    def __init__(
        self,
        config: FleetConfig,
        fleet_dir: Union[str, Path],
        store_dir: Optional[Union[str, Path]] = None,
        worker_faults: Optional[WorkerFaultPlan] = None,
        epoch_sleep_s: float = 0.0,
        record_obs: bool = False,
    ):
        self.config = config
        self.fleet_dir = Path(fleet_dir)
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.worker_faults = worker_faults or WorkerFaultPlan()
        self.epoch_sleep_s = epoch_sleep_s
        self.record_obs = record_obs
        self.shards: Dict[str, ShardSupervision] = {
            name: ShardSupervision(name) for name in config.buildings
        }
        self.interrupted = False
        self.signal_name: Optional[str] = None
        self._counts = {
            "workers_spawned": 0,
            "restarts": 0,
            "worker_failures": 0,
            "heartbeat_kills": 0,
            "quarantines": 0,
        }
        self._manifest_dirty = True
        self._wall_s = 0.0
        # Fork keeps worker dispatch free of re-import/pickling costs
        # and works from any caller; fall back where it is unavailable.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )

    # ------------------------------------------------------------------
    # Construction / resume
    # ------------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        fleet_dir: Union[str, Path],
        store_dir: Optional[Union[str, Path]] = None,
        epoch_sleep_s: float = 0.0,
        record_obs: bool = False,
    ) -> "FleetSupervisor":
        """Rebuild a supervisor from a fleet directory's manifest.

        Completed shards are reused byte-identically (their artifacts
        are trusted after hash re-verification at merge time); every
        other shard -- including previously quarantined ones, whose
        failure budget resets -- goes back to pending.  ``failures_total``
        is restored so deterministic worker-fault schedules keyed on
        the attempt number continue where they left off.
        """
        fleet_dir = Path(fleet_dir)
        manifest_path = fleet_dir / FLEET_MANIFEST_FILENAME
        if not manifest_path.exists():
            raise FleetError(
                f"nothing to resume: no fleet manifest under {fleet_dir}"
            )
        try:
            manifest = read_json(manifest_path)
        except Exception as exc:
            raise FleetError(f"unreadable fleet manifest {manifest_path}: {exc}")
        if (
            not isinstance(manifest, dict)
            or manifest.get("schema") != FLEET_MANIFEST_SCHEMA
        ):
            raise FleetError(
                f"{manifest_path} is not a fleet manifest "
                f"(expected schema {FLEET_MANIFEST_SCHEMA!r})"
            )
        config = FleetConfig.from_dict(manifest["config"])
        if store_dir is None and manifest.get("store"):
            store_dir = manifest["store"]
        faults = WorkerFaultPlan.from_dict(
            manifest.get("worker_faults") or {"faults": []}
        )
        supervisor = cls(
            config,
            fleet_dir,
            store_dir=store_dir,
            worker_faults=faults,
            epoch_sleep_s=epoch_sleep_s,
            record_obs=record_obs,
        )
        for entry in manifest.get("shards", {}).values():
            shard = supervisor.shards.get(entry.get("building"))
            if shard is None:
                continue
            shard.failures_total = int(entry.get("failures_total", 0))
            shard.failures = list(entry.get("failures", []))[-FAILURE_HISTORY:]
        obs_event("info", "fleet.resumed", fleet_dir=str(fleet_dir))
        return supervisor

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.fleet_dir / FLEET_MANIFEST_FILENAME

    @property
    def result_path(self) -> Path:
        return self.fleet_dir / FLEET_RESULT_FILENAME

    def shard_dir(self, building: str) -> Path:
        return self.fleet_dir / SHARDS_DIRNAME / building

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def _write_manifest(
        self,
        complete: bool = False,
        result_sha256: Optional[str] = None,
    ) -> None:
        payload = {
            "schema": FLEET_MANIFEST_SCHEMA,
            "config": self.config.to_dict(),
            "store": str(self.store_dir) if self.store_dir else None,
            "worker_faults": self.worker_faults.to_dict(),
            "shards": {
                name: shard.to_manifest()
                for name, shard in sorted(self.shards.items())
            },
            "supervision": {**self._counts, "wall_s": round(self._wall_s, 3)},
            "complete": complete,
            "interrupted": self.interrupted,
            "result_sha256": result_sha256,
        }
        write_json_atomic(self.manifest_path, payload)
        self._manifest_dirty = False

    # ------------------------------------------------------------------
    # Supervision primitives
    # ------------------------------------------------------------------

    def _spawn(self, shard: ShardSupervision) -> None:
        building = shard.building
        shard_dir = self.shard_dir(building)
        shard_dir.mkdir(parents=True, exist_ok=True)
        attempt = shard.failures_total
        process = self._ctx.Process(
            target=worker_main,
            name=f"fleet-{building}",
            args=(
                str(shard_dir),
                building,
                self.config.shard_config(building).to_dict(),
                str(self.store_dir) if self.store_dir else None,
                attempt,
                self.worker_faults.for_building(building).to_dict(),
                self.epoch_sleep_s,
                self.record_obs,
            ),
        )
        process.start()
        shard.process = process
        shard.status = RUNNING
        shard.spawn_wall = time.time()
        shard.spawn_monotonic = time.monotonic()
        self._counts["workers_spawned"] += 1
        obs_counter("fleet.workers_spawned").inc()
        if attempt > 0:
            self._counts["restarts"] += 1
            obs_counter("fleet.restarts").inc()
            obs_event(
                "info", "fleet.worker_restarted",
                building=building, attempt=attempt,
            )
        self._manifest_dirty = True

    def _record_failure(self, shard: ShardSupervision, reason: str) -> None:
        shard.process = None
        shard.failures_total += 1
        shard.consecutive_failures += 1
        shard.failures = (shard.failures + [reason])[-FAILURE_HISTORY:]
        self._counts["worker_failures"] += 1
        obs_counter("fleet.worker_failures").inc()
        if shard.consecutive_failures >= self.config.max_restarts:
            shard.status = QUARANTINED
            shard.quarantine_reason = (
                f"{shard.consecutive_failures} consecutive failures "
                f"(last: {reason})"
            )
            self._counts["quarantines"] += 1
            obs_counter("fleet.quarantines").inc()
            obs_event(
                "error", "fleet.shard_quarantined",
                building=shard.building,
                failures=shard.consecutive_failures,
                reason=reason,
            )
        else:
            shard.status = PENDING
            delay = backoff_delay(
                shard.consecutive_failures,
                self.config.backoff_base_s,
                self.config.backoff_max_s,
            )
            shard.next_eligible = time.monotonic() + delay
            obs_event(
                "warning", "fleet.worker_failed",
                building=shard.building, reason=reason,
                backoff_s=delay,
            )
        self._manifest_dirty = True

    def _mark_done(self, shard: ShardSupervision) -> None:
        shard.process = None
        shard.status = DONE
        shard.consecutive_failures = 0
        wall = time.monotonic() - shard.spawn_monotonic
        obs_counter("fleet.shards_completed").inc()
        obs_histogram("fleet.shard_wall_s").observe(wall)
        obs_event(
            "info", "fleet.shard_completed",
            building=shard.building, attempt=shard.failures_total,
        )
        self._manifest_dirty = True

    def _check_worker(self, shard: ShardSupervision) -> None:
        """Reap an exited worker, or kill a wedged one."""
        process = shard.process
        if process is None:
            return
        if process.exitcode is not None:
            process.join()
            if (self.shard_dir(shard.building) / RESULT_FILENAME).exists():
                self._mark_done(shard)
            else:
                self._record_failure(
                    shard, f"worker exit code {process.exitcode}"
                )
            return
        timeout = self.config.heartbeat_timeout_s
        if timeout <= 0.0:
            return
        age = heartbeat_age_s(self.shard_dir(shard.building))
        if age is None or shard.spawn_wall > time.time() - age:
            # No beat since this spawn yet: measure from spawn time.
            age = time.time() - shard.spawn_wall
        if age > timeout:
            process.kill()
            process.join()
            self._counts["heartbeat_kills"] += 1
            obs_counter("fleet.heartbeat_kills").inc()
            obs_gauge("fleet.last_heartbeat_gap_s").set(age)
            self._record_failure(
                shard,
                f"heartbeat gap {age:.1f}s exceeded "
                f"{timeout:g}s (killed)",
            )

    def _shutdown_workers(self) -> None:
        """Graceful stop: SIGTERM (campaign flushes a checkpoint),
        escalate to SIGKILL after a grace period."""
        running = [s for s in self.shards.values() if s.process is not None]
        for shard in running:
            shard.process.terminate()
        deadline = time.monotonic() + TERM_GRACE_S
        for shard in running:
            shard.process.join(max(0.1, deadline - time.monotonic()))
            if shard.process.exitcode is None:
                shard.process.kill()
                shard.process.join()
            shard.process = None
            shard.status = PENDING
            self._manifest_dirty = True

    # ------------------------------------------------------------------
    # The supervision loop
    # ------------------------------------------------------------------

    def run(self) -> FleetOutcome:
        """Supervise the fleet to completion (or graceful interrupt)."""
        started = time.monotonic()
        self.fleet_dir.mkdir(parents=True, exist_ok=True)
        # Non-recursive: the fleet root's manifest/result temps are ours
        # to sweep; shard dirs are swept by their own campaigns.
        reclaim_tmp_files(self.fleet_dir, recursive=False, scope="fleet")
        self._pre_register_obs()
        # Adopt shards already completed by a previous run.
        for shard in self.shards.values():
            if (self.shard_dir(shard.building) / RESULT_FILENAME).exists():
                shard.status = DONE
        self._write_manifest()

        with ShutdownGuard() as guard:
            while True:
                if guard.stop_requested:
                    self.interrupted = True
                    self.signal_name = guard.signal_name
                    self._shutdown_workers()
                    break
                for shard in self.shards.values():
                    if shard.status == RUNNING:
                        self._check_worker(shard)
                now = time.monotonic()
                running = sum(
                    1 for s in self.shards.values() if s.status == RUNNING
                )
                for shard in sorted(
                    self.shards.values(), key=lambda s: s.building
                ):
                    if running >= self.config.workers:
                        break
                    if shard.status == PENDING and now >= shard.next_eligible:
                        self._spawn(shard)
                        running += 1
                if all(
                    s.status in (DONE, QUARANTINED)
                    for s in self.shards.values()
                ):
                    break
                if self._manifest_dirty:
                    self._wall_s = time.monotonic() - started
                    self._write_manifest()
                time.sleep(self.config.poll_interval_s)

        self._wall_s = time.monotonic() - started
        if self.interrupted:
            self._write_manifest()
            obs_counter("fleet.interrupts").inc()
            obs_event(
                "warning", "fleet.interrupted",
                signal=self.signal_name or "?",
            )
            return FleetOutcome(
                result=None,
                sha256=None,
                quarantined=self._quarantine_map(),
                interrupted=True,
                signal_name=self.signal_name,
                manifest_file=self.manifest_path,
                wall_s=self._wall_s,
            )
        return self._finalize(started)

    def _finalize(self, started: float) -> FleetOutcome:
        """Merge surviving shards and write the fleet artifacts."""
        quarantined = self._quarantine_map()
        payloads = {
            name: load_shard_result(self.shard_dir(name))
            for name, shard in self.shards.items()
            if shard.status == DONE
        }
        missing = sorted(n for n, p in payloads.items() if p is None)
        if missing:
            raise FleetError(
                f"shard(s) marked done but missing result.json: {missing}"
            )
        body = build_fleet_result(self.config, payloads, quarantined)
        sha256 = fleet_result_hash(body)
        # Read-back-verified: a dropped rename here would leave a stale
        # or missing fleet result that "fleet status" would trust.
        result_file = write_json_atomic_verified(
            self.result_path,
            {"schema": FLEET_RESULT_SCHEMA, "sha256": sha256, "result": body},
        )
        self._wall_s = time.monotonic() - started
        self._write_manifest(complete=True, result_sha256=sha256)
        completed = body["totals"]["completed"]
        per_min = (
            completed / (self._wall_s / 60.0) if self._wall_s > 0 else 0.0
        )
        obs_gauge("fleet.buildings_per_min").set(per_min)
        obs_event(
            "info", "fleet.completed",
            buildings=completed, quarantined=len(quarantined),
            sha256=sha256, wall_s=round(self._wall_s, 3),
        )
        return FleetOutcome(
            result=body,
            sha256=sha256,
            quarantined=quarantined,
            result_file=result_file,
            manifest_file=self.manifest_path,
            wall_s=self._wall_s,
        )

    def _quarantine_map(self) -> Dict[str, str]:
        return {
            name: shard.quarantine_reason or "quarantined"
            for name, shard in sorted(self.shards.items())
            if shard.status == QUARANTINED
        }

    def _pre_register_obs(self) -> None:
        obs_counter("fleet.workers_spawned")
        obs_counter("fleet.worker_failures")
        obs_counter("fleet.restarts")
        obs_counter("fleet.quarantines")
        obs_counter("fleet.heartbeat_kills")
        obs_counter("fleet.shards_completed")
        obs_gauge("fleet.buildings_per_min")
        obs_gauge("fleet.last_heartbeat_gap_s")
        obs_histogram("fleet.shard_wall_s")


# ----------------------------------------------------------------------
# Module-level conveniences (the CLI's verbs)
# ----------------------------------------------------------------------

def run_fleet(
    config: FleetConfig,
    fleet_dir: Union[str, Path],
    store_dir: Optional[Union[str, Path]] = None,
    worker_faults: Optional[WorkerFaultPlan] = None,
    epoch_sleep_s: float = 0.0,
    record_obs: bool = False,
) -> FleetOutcome:
    """Start a fresh fleet (``fleet run``); refuses a used directory."""
    fleet_dir = Path(fleet_dir)
    if (fleet_dir / FLEET_MANIFEST_FILENAME).exists():
        raise FleetError(
            f"{fleet_dir} already hosts a fleet (fleet.json exists); "
            f"use 'fleet resume' to continue it"
        )
    return FleetSupervisor(
        config,
        fleet_dir,
        store_dir=store_dir,
        worker_faults=worker_faults,
        epoch_sleep_s=epoch_sleep_s,
        record_obs=record_obs,
    ).run()


def resume_fleet(
    fleet_dir: Union[str, Path],
    store_dir: Optional[Union[str, Path]] = None,
    epoch_sleep_s: float = 0.0,
    record_obs: bool = False,
) -> FleetOutcome:
    """Continue an interrupted fleet from its manifest + checkpoints
    (``fleet resume``)."""
    return FleetSupervisor.resume(
        fleet_dir,
        store_dir=store_dir,
        epoch_sleep_s=epoch_sleep_s,
        record_obs=record_obs,
    ).run()
