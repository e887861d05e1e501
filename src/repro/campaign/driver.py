"""The campaign driver: a resumable, supervised multi-month pilot run.

One *epoch* simulates one monitoring visit to the instrumented
footbridge: a wall charging session over a (possibly hostile) channel,
TDMA inventory and sensor reads, then the epoch's SHM samples --
acceleration and stress series whose variance tracks pedestrian load
and the storm schedule.  Running ``config.epochs`` epochs and analysing
the series of every committed epoch reproduces the paper's Fig. 21
capstone (anomaly windows in both channels during storms, mutual sensor
verification, compliance, PAO health grades) at any horizon up to and
beyond the 17-month pilot.

The robustness contract (see ``docs/CAMPAIGN.md``):

* every epoch is a pure function of (config, state-at-epoch-start), so
  a campaign killed at *any* point and resumed from its last checkpoint
  produces a final result **byte-identical** to an uninterrupted run;
* checkpoints are verified on load, quarantined when corrupt, and
  rolled back past (the replayed epochs are simply recomputed);
* a hung epoch is interrupted by the watchdog and recorded as an
  ``epoch_timeout`` degradation -- an epoch only touches state once it
  has finished inside its deadline, so an abandoned one leaves no trace
  and later epochs are unaffected;
* SIGINT/SIGTERM flush a final checkpoint before the process exits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..acoustics import StructureGeometry
from ..errors import CampaignError, CheckpointError, PartitionLockError, StoreError
from ..faults import FaultInjector, FaultPlan
from ..faults.io import reclaim_tmp_files
from ..link import PlacedNode, PowerUpLink, WallSession
from ..materials import get_concrete
from ..node import EcoCapsule, Environment
from ..obs import (
    obs_counter,
    obs_enabled,
    obs_event,
    obs_gauge,
    obs_histogram,
    obs_span,
)
from ..obs.pipeline import MetricsRecorder
from ..runtime.serialize import (
    canonical_json,
    write_json_atomic,
    write_json_atomic_verified,
)
from ..shm import (
    AnomalyWindow,
    ComplianceReport,
    Footbridge,
    JulyTimeSeriesGenerator,
    SECTION_NAMES,
    check_compliance,
    cross_validate,
    detect_anomalies,
    grade_sections,
    worst_grade,
)
from ..store import OBS_BUILDING, TelemetryStore, ingest_series, ingest_session
from .checkpoint import CheckpointStore
from .config import CampaignConfig
from .log import EpochLog
from .state import CampaignState
from .watchdog import EpochTimeout, ShutdownGuard, epoch_deadline

#: Schema tag for the final-result file written into the state dir.
CAMPAIGN_RESULT_SCHEMA = "repro/campaign-result/v1"

#: Filenames inside a campaign state directory.
CHECKPOINT_DIRNAME = "checkpoints"
EPOCH_LOG_FILENAME = "epochs.jsonl"
RESULT_FILENAME = "result.json"

#: Series naming for telemetry exported by a campaign (``--store``).
STORE_BUILDING = "campaign"
STORE_WALL = "pilot"

#: Heartbeat ticks buffered in memory between ``_obs`` store flushes.
#: Ticks are pure in-memory delta computations; the batched flush (one
#: non-durable block per touched series) amortises manifest rewrites so
#: the recorder stays inside the <= 2% wall-time budget pinned by
#: ``BENCH_obs.json``.  A crash loses at most this many ticks of
#: self-telemetry -- never any experiment data.
OBS_FLUSH_EPOCHS = 64


@dataclass(frozen=True)
class CampaignResult:
    """The deterministic final artifact of a completed campaign.

    Contains nothing wall-clock-dependent: two runs of the same config
    -- interrupted, killed, resumed, or neither -- serialize to
    identical bytes (see :func:`result_hash`).
    """

    epochs: int
    epochs_run: int
    storm_epochs: Tuple[int, ...]
    epoch_records: List[Dict[str, Any]]
    hours: np.ndarray
    acceleration: np.ndarray
    stress_mpa: np.ndarray
    acceleration_anomalies: List[AnomalyWindow]
    stress_anomalies: List[AnomalyWindow]
    sensors_mutually_verified: bool
    storms_detected: int
    compliance: ComplianceReport
    grade_fractions: Dict[str, float]
    fault_totals: Dict[str, int]
    timeouts: List[int]

    @property
    def storm_detected_in_both(self) -> bool:
        """Fig. 21's headline: every scheduled storm seen by both channels."""
        return len(self.storm_epochs) > 0 and self.storms_detected == len(
            self.storm_epochs
        )

    @property
    def health_at_or_above_b(self) -> bool:
        """The paper's PAO result: health stayed at B or above throughout."""
        return all(g in ("A", "B") for g in self.grade_fractions)

    @property
    def degraded_epochs(self) -> int:
        return sum(1 for r in self.epoch_records if r.get("degraded"))

    @property
    def mean_coverage(self) -> float:
        covered = [
            r["coverage"] for r in self.epoch_records if "coverage" in r
        ]
        if not covered:
            raise CampaignError("campaign completed no successful epochs")
        return float(sum(covered) / len(covered))


def result_hash(result: CampaignResult) -> str:
    """SHA-256 over the canonical JSON of a result -- the identity the
    kill-and-resume tests (``TestKillDashNine`` SIGKILLs a CLI run)
    compare."""
    return hashlib.sha256(
        canonical_json(result).encode("utf-8")
    ).hexdigest()


@dataclass
class CampaignOutcome:
    """What one ``run()``/``resume()`` call actually did."""

    result: Optional[CampaignResult]  # None when interrupted before the end
    state: CampaignState
    interrupted: bool = False
    signal_name: Optional[str] = None
    resumed_from_epoch: Optional[int] = None
    result_file: Optional[Path] = None

    @property
    def completed(self) -> bool:
        return self.result is not None


def _epoch_rng(seed: int, epoch: int, channel: str) -> np.random.Generator:
    """A per-(epoch, channel) numpy stream, PYTHONHASHSEED-stable."""
    digest = hashlib.sha256(f"{seed}:{epoch}:{channel}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class EpochSamples:
    """One epoch's SHM sample block, as the epoch body consumes it.

    The telemetry-store export and the epoch's grade read from this
    object; the final analytics regenerate the same series through
    :meth:`Campaign._epoch_series`, so the two can never disagree.
    """

    epoch: int
    storm: bool
    hours: np.ndarray
    acceleration: np.ndarray
    stress_mpa: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class EpochOutcome:
    """What one epoch produced, before it is committed to state.

    :meth:`Campaign._run_epoch` computes it without mutating the
    campaign state; the supervisor commits it only after the watchdog
    deadline has exited, so an abandoned epoch leaves no trace.
    """

    record: Dict[str, Any]
    rng: random.Random
    stuck_latches: Dict[str, Optional[int]]

    def commit(self, state: CampaignState) -> None:
        """Advance ``state``'s streams, latches, grades and fault totals."""
        state.rng = self.rng
        state.stuck_latches = self.stuck_latches
        grade = self.record["grade"]
        state.grade_counts[grade] = state.grade_counts.get(grade, 0) + 1
        state.absorb_faults(self.record["fault_counts"])


class Campaign:
    """A long-running, checkpointed pilot simulation.

    Args:
        config: What to simulate (see :class:`CampaignConfig`).
        state_dir: Where checkpoints, the epoch log and the final
            result live.  None runs fully in memory -- no persistence,
            no resume, but identical results (the experiment-registry
            entry uses this mode).
        epoch_hook: Test/CI seam called once per epoch *inside* the
            watchdog deadline, before the epoch body; may sleep (to
            give a kill window or trip the watchdog) but must not
            perturb any RNG.
        store_dir: When set, every epoch's telemetry (structure-level
            series plus the survey's sensor reports) is exported to the
            :class:`~repro.store.TelemetryStore` at this path.  Purely
            additive: the campaign result is byte-identical with or
            without a store attached.
        record_obs: When True (requires ``store_dir``), an obs ->
            store :class:`~repro.obs.pipeline.MetricsRecorder` ticks at
            every epoch boundary, appending the campaign's own health
            metrics (epoch wall time, checkpoint/export latency,
            degradations, timeouts, RSS) as ``_obs/campaign`` series.
            Same contract as the store itself: zero effect on the
            result bytes -- the recorder never draws from experiment
            RNG streams, and its timestamps are the deterministic
            epoch-boundary hours.
        store_building: Building component for exported series (and the
            ``_obs`` wall for the recorder).  Fleet workers set this to
            their shard's building name so many campaigns can share one
            store root without colliding partitions.
        store_wall: Wall component for exported series.
    """

    def __init__(
        self,
        config: CampaignConfig,
        state_dir: Optional[Union[str, Path]] = None,
        epoch_hook: Optional[Callable[[int], None]] = None,
        store_dir: Optional[Union[str, Path]] = None,
        record_obs: bool = False,
        store_building: str = STORE_BUILDING,
        store_wall: str = STORE_WALL,
    ):
        self.config = config
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.epoch_hook = epoch_hook
        self.store_building = store_building
        self.store_wall = store_wall
        self.store: Optional[CheckpointStore] = None
        self.log: Optional[EpochLog] = None
        self.telemetry: Optional[TelemetryStore] = None
        self.recorder: Optional[MetricsRecorder] = None
        #: Epochs whose ``--store`` export failed recoverably (ENOSPC,
        #: persistent write faults): the campaign kept computing, the
        #: degradation is recorded here and in the epoch log.
        self.export_failures: List[int] = []
        if self.state_dir is not None:
            # The state dir is single-owner by contract, so any *.tmp
            # here was leaked by a dead predecessor (crash between
            # mkstemp and rename, or a dropped rename).
            reclaim_tmp_files(self.state_dir, recursive=True, scope="campaign")
            self.store = CheckpointStore(
                self.state_dir / CHECKPOINT_DIRNAME, keep=config.checkpoint_keep
            )
            self.log = EpochLog(self.state_dir / EPOCH_LOG_FILENAME)
        if store_dir is not None:
            self.telemetry = TelemetryStore(store_dir)
        if record_obs:
            if self.telemetry is None:
                raise CampaignError(
                    "record_obs requires a telemetry store (store_dir)"
                )
            self.recorder = MetricsRecorder(
                self.telemetry,
                source=self.store_building,
                flush_every=OBS_FLUSH_EPOCHS,
            )

    # ------------------------------------------------------------------
    # Construction / resume
    # ------------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        state_dir: Union[str, Path],
        epoch_hook: Optional[Callable[[int], None]] = None,
        store_dir: Optional[Union[str, Path]] = None,
        record_obs: bool = False,
        store_building: str = STORE_BUILDING,
        store_wall: str = STORE_WALL,
    ) -> Tuple["Campaign", CampaignState]:
        """Reload a campaign from its newest good checkpoint.

        Corrupt checkpoints are quarantined and rolled past; raises
        :class:`~repro.errors.CheckpointError` when no usable
        checkpoint survives and :class:`~repro.errors.CampaignError`
        when the directory has never hosted a campaign.

        An attached telemetry store is healed the same way the epoch
        log is: exports from epochs past the checkpoint boundary (they
        will be replayed and re-exported) are truncated, and stale
        rollups are cleared for the next ``compact``.
        """
        store = CheckpointStore(Path(state_dir) / CHECKPOINT_DIRNAME)
        payload = store.load_latest()
        if payload is None:
            raise CampaignError(
                f"nothing to resume: no checkpoints under {state_dir}"
            )
        config = CampaignConfig.from_dict(payload["config"])
        state = CampaignState.from_dict(payload["state"])
        campaign = cls(
            config, state_dir=state_dir, epoch_hook=epoch_hook,
            store_dir=store_dir, record_obs=record_obs,
            store_building=store_building, store_wall=store_wall,
        )
        campaign._sync_log(state)
        if campaign.telemetry is not None:
            # Heal exactly this campaign's partition: its experiment
            # series and its own _obs heartbeat wall (both stamped on
            # deterministic epoch hours).  Every other building -- a
            # fleet sibling sharing the store root, or a serve-tier
            # recorder writing wall-clock hours -- must not lose its
            # history to *this* campaign's resume.
            campaign.telemetry.truncate_from(
                state.epoch * float(config.hours_per_epoch),
                keys=[
                    key for key in campaign.telemetry.keys()
                    if key.building == campaign.store_building
                    or (
                        key.building == OBS_BUILDING
                        and key.wall == campaign.store_building
                    )
                ],
            )
        obs_counter("campaign.resumes").inc()
        obs_event(
            "info", "campaign.resumed",
            epoch=state.epoch, state_dir=str(state_dir),
        )
        return campaign, state

    def _sync_log(self, state: CampaignState) -> None:
        """Heal the epoch log: truncate torn tails and stale records.

        The log may end mid-line (SIGKILL during append) or run ahead
        of the checkpoint (checkpoint_interval > 1); both are cut back
        so the replayed epochs re-append cleanly.
        """
        if self.log is None:
            return
        records = self.log.recover()
        fresh = [r for r in records if r.get("epoch", 0) < state.epoch]
        if len(fresh) != len(records):
            self.log.rewrite(fresh)

    # ------------------------------------------------------------------
    # The epoch body
    # ------------------------------------------------------------------

    def _build_wall(
        self, rng: random.Random
    ) -> Tuple[PowerUpLink, List[PlacedNode]]:
        """This epoch's deployment, drawn from the master RNG stream.

        Environmental drift (temperature, humidity, strain) comes from
        ``rng`` -- a copy of the serialized master stream -- so
        deployments evolve continuously across epochs *and* across
        resumes.
        """
        config = self.config
        concrete = get_concrete("UHPC")
        wall = StructureGeometry(
            "campaign wall",
            length=config.wall_length,
            thickness=0.20,
            medium=concrete.medium,
        )
        budget = PowerUpLink(wall)
        reach = min(
            config.wall_length / 2.0,
            0.85 * budget.max_range(config.tx_voltage),
        )
        if reach <= 0.3:
            raise CampaignError(
                f"tx voltage {config.tx_voltage} V cannot charge past 0.3 m"
            )
        placed: List[PlacedNode] = []
        for node_id in range(1, config.nodes + 1):
            env = Environment(
                temperature=rng.uniform(18.0, 32.0),
                humidity=rng.uniform(55.0, 90.0),
                strain=rng.uniform(-200.0, 300.0),
            )
            placed.append(
                PlacedNode(
                    capsule=EcoCapsule(
                        node_id=node_id,
                        environment=env,
                        seed=self.config.seed + node_id,
                    ),
                    distance=rng.uniform(0.3, reach),
                )
            )
        return budget, placed

    def _epoch_series(
        self, epoch: int, storm: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One epoch of SHM samples: (hours, acceleration, stress, counts)."""
        config = self.config
        n = config.hours_per_epoch * config.samples_per_hour
        start_hour = float(epoch * config.hours_per_epoch)
        hours = start_hour + np.arange(n) / config.samples_per_hour
        load = JulyTimeSeriesGenerator._pedestrian_load(hours)
        diurnal = JulyTimeSeriesGenerator._diurnal(hours)

        accel_rng = _epoch_rng(config.seed, epoch, "acceleration")
        envelope = 0.012 * (0.3 + load) * (2.5 if storm else 1.0)
        acceleration = accel_rng.normal(0.0, 1.0, size=n) * envelope

        stress_rng = _epoch_rng(config.seed, epoch, "stress")
        swing = 10.0
        stress = (
            -60.0
            + swing * diurnal
            - 0.35 * swing * load
            + stress_rng.normal(0.0, swing * 0.08, size=n)
        )
        if storm:
            stress = stress + (
                -1.4 * swing
                + 0.8 * swing * np.sin(2.0 * np.pi * hours / 18.0)
            )

        count_rng = _epoch_rng(config.seed, epoch, "pedestrians")
        lam = 60 * 0.22 * load * (0.25 if storm else 1.0)
        counts = count_rng.poisson(np.maximum(lam, 0.0))
        return hours, acceleration, stress, counts

    def _epoch_samples(self, epoch: int, storm: bool) -> EpochSamples:
        """One epoch's SHM samples for the export and the grade."""
        hours, acceleration, stress, counts = self._epoch_series(epoch, storm)
        return EpochSamples(
            epoch=epoch,
            storm=storm,
            hours=hours,
            acceleration=acceleration,
            stress_mpa=stress,
            counts=counts,
        )

    def _export_epoch(self, samples: EpochSamples, session_result: Any) -> None:
        """Export one completed epoch's telemetry to the attached store.

        One flush per epoch: each touched series gains exactly one
        block spanning this epoch's hours, so a resume can cut replayed
        epochs on an exact boundary.  Survey reports are stamped at the
        epoch's first hour (the monitoring visit's time).
        """
        if self.telemetry is None:
            return
        started = time.perf_counter()
        visit_hour = float(samples.epoch * self.config.hours_per_epoch)
        building, wall = self.store_building, self.store_wall
        try:
            with self.telemetry.writer() as writer:
                ingest_series(
                    writer, building, wall, "acceleration",
                    samples.hours, samples.acceleration,
                )
                ingest_series(
                    writer, building, wall, "stress_mpa",
                    samples.hours, samples.stress_mpa,
                )
                ingest_session(
                    writer, session_result, building, wall,
                    visit_hour,
                )
        except PartitionLockError:
            # A live foreign writer on our partition is a deployment
            # error (two campaigns racing one building), never a disk
            # fault -- stay loud.
            raise
        except (OSError, StoreError) as exc:
            # The store is an *additive* export: a full or failing disk
            # under it must not take the pilot down.  Record the
            # degradation (epoch log + obs) and keep computing; a later
            # resume heals the gap via truncate_from + replay.
            self.export_failures.append(samples.epoch)
            obs_counter("io.export_failures").inc()
            obs_event(
                "warning", "campaign.export_degraded",
                epoch=samples.epoch, error=str(exc),
            )
            return
        obs_counter("campaign.store_epochs").inc()
        obs_histogram("campaign.export_s").observe(
            time.perf_counter() - started
        )

    def _epoch_grade(self, epoch: int, counts: np.ndarray) -> str:
        """The bridge-level PAO grade for this epoch's busiest hour."""
        bridge = Footbridge()
        total = int(np.max(counts)) if counts.size else 0
        weight_rng = _epoch_rng(self.config.seed, epoch, "sections")
        weights = weight_rng.dirichlet(np.ones(len(SECTION_NAMES)))
        section_counts = {
            s: int(round(total * w)) for s, w in zip(SECTION_NAMES, weights)
        }
        speeds = {}
        for section, count in section_counts.items():
            area = bridge.section_area(section)
            density = count / area
            speeds[section] = (
                max(0.0, 1.4 * (1.0 - density / 0.9)) if count else 0.0
            )
        areas = {s: bridge.section_area(s) for s in SECTION_NAMES}
        healths = grade_sections(areas, section_counts, speeds, "hong_kong")
        return worst_grade(healths)

    def _stuck_injector(
        self, state: CampaignState, rate: float
    ) -> Optional[FaultInjector]:
        """The cross-epoch stuck-sensor injector, rehydrated from state.

        Built fresh every epoch from the checkpointed latches, so its
        behaviour is a pure function of (config, boundary state) -- the
        property the resume-determinism contract rests on.  Keys not yet
        in ``state.stuck_latches`` get their one-shot healthy/stuck
        decision here (at this epoch's -- possibly storm-scaled --
        rate); keys already decided pass straight to the latch logic.
        """
        if rate <= 0.0 and not state.stuck_latches:
            return None
        injector = FaultInjector(
            FaultPlan(seed=self.config.seed, stuck_sensor_rate=max(rate, 1e-12))
        )
        injector.restore_state(
            {
                "streams": {},
                "stuck": [
                    [int(key.split(":", 1)[0]), key.split(":", 1)[1], latched]
                    for key, latched in sorted(state.stuck_latches.items())
                ],
                "counts": {},
            }
        )
        return injector

    def _run_epoch(self, state: CampaignState) -> EpochOutcome:
        """Run epoch ``state.epoch``; ``state`` itself is left untouched."""
        config = self.config
        epoch = state.epoch
        storm = config.is_storm_epoch(epoch)
        if self.epoch_hook is not None:
            self.epoch_hook(epoch)

        plan = config.epoch_fault_plan(epoch)
        stuck_rate = plan.stuck_sensor_rate if plan is not None else 0.0
        if plan is not None:
            # Stuck sensors are campaign-scoped (a latched sensor stays
            # latched for the rest of the pilot), handled by the
            # cross-epoch injector below -- not re-drawn per session.
            plan = dataclasses.replace(plan, stuck_sensor_rate=0.0)
            if not plan.active:
                plan = None

        rng = random.Random()
        rng.setstate(state.rng.getstate())
        budget, placed = self._build_wall(rng)
        session = WallSession(
            budget=budget,
            nodes=placed,
            tx_voltage=config.tx_voltage,
            initial_q=3,
            seed=config.seed * 7_919 + epoch,
            faults=plan,
        )
        session_result = session.run(max_rounds=12)

        stuck = self._stuck_injector(state, stuck_rate)
        stuck_reads = 0
        latches = dict(state.stuck_latches)
        if stuck is not None:
            for node_id in sorted(session_result.reports):
                session_result.reports[node_id] = [
                    stuck.latch_stuck(report)
                    for report in session_result.reports[node_id]
                ]
            stuck_reads = stuck.counts.get("stuck_reads", 0)
            exported = stuck.export_state()
            latches = {
                f"{node_id}:{channel}": latched
                for node_id, channel, latched in exported["stuck"]
            }

        samples = self._epoch_samples(epoch, storm)
        self._export_epoch(samples, session_result)
        grade = self._epoch_grade(epoch, samples.counts)

        fault_counts = dict(session_result.fault_counts)
        if stuck_reads:
            fault_counts["stuck_reads"] = (
                fault_counts.get("stuck_reads", 0) + stuck_reads
            )

        record = {
            "epoch": epoch,
            "status": "ok",
            "storm": storm,
            "coverage": session_result.coverage,
            "read_fraction": len(session_result.reports) / config.nodes,
            "reports": sum(
                len(r) for r in session_result.reports.values()
            ),
            "retries": session_result.retries,
            "rounds_used": session_result.rounds_used,
            "charge_attempts": session_result.charge_attempts,
            "degraded": session_result.degraded,
            "grade": grade,
            "fault_counts": fault_counts,
        }
        return EpochOutcome(record=record, rng=rng, stuck_latches=latches)

    # ------------------------------------------------------------------
    # The supervised loop
    # ------------------------------------------------------------------

    def _checkpoint(self, state: CampaignState) -> None:
        if self.store is not None:
            started = time.perf_counter()
            self.store.save(
                state.epoch, self.config.to_dict(), state.to_dict()
            )
            obs_histogram("campaign.checkpoint_s").observe(
                time.perf_counter() - started
            )

    def _pre_register_obs(self) -> None:
        """Touch every heartbeat metric once, so the recorder's first
        tick writes the full ``_obs/campaign`` series set (at zero) even
        for a short clean run -- dashboards and the ``obs report`` verb
        can rely on the series existing, not just on lucky incidents.
        """
        if not obs_enabled():
            return
        obs_counter("campaign.epochs_run")
        obs_counter("campaign.degradations")
        obs_counter("campaign.epoch_timeouts")
        obs_counter("campaign.retries")
        obs_counter("campaign.store_epochs")
        obs_gauge("campaign.epoch")
        obs_gauge("campaign.epoch_wall_s")
        obs_histogram("campaign.epoch_s")
        obs_histogram("campaign.checkpoint_s")
        obs_histogram("campaign.export_s")

    def _supervised_epoch(self, state: CampaignState) -> None:
        """One epoch under the watchdog: run, record, log, checkpoint,
        heartbeat.  Mutates ``state`` in place."""
        config = self.config
        epoch = state.epoch
        started = time.perf_counter()
        try:
            with obs_span(
                "campaign.epoch", epoch=epoch,
                storm=config.is_storm_epoch(epoch),
            ):
                with epoch_deadline(config.epoch_timeout_s):
                    outcome = self._run_epoch(state)
        except EpochTimeout:
            # Nothing of the abandoned epoch reached state, so the
            # *next* epoch sees exactly the state it would have seen
            # had this epoch never run.
            record = {
                "epoch": epoch,
                "status": "epoch_timeout",
                "storm": config.is_storm_epoch(epoch),
                "degraded": True,
            }
            state.timeouts.append(epoch)
            obs_counter("campaign.epoch_timeouts").inc()
            obs_event(
                "warning", "campaign.epoch_timeout",
                epoch=epoch, budget_s=config.epoch_timeout_s,
            )
        else:
            outcome.commit(state)
            record = outcome.record
        state.epoch_records.append(record)
        state.epoch = epoch + 1
        elapsed = time.perf_counter() - started
        obs_counter("campaign.epochs_run").inc()
        if record.get("degraded"):
            obs_counter("campaign.degradations").inc()
        obs_counter("campaign.retries").inc(record.get("retries", 0))
        obs_gauge("campaign.epoch").set(state.epoch)
        obs_gauge("campaign.epoch_wall_s").set(elapsed)
        obs_histogram("campaign.epoch_s").observe(elapsed)
        if self.log is not None:
            # Wall time and export degradation are audit-log-only: they
            # must never reach state.epoch_records, which feed the
            # byte-stable result.json (an io-faulted run hashes
            # identically to a clean one).
            extra: Dict[str, Any] = {"elapsed_s": round(elapsed, 6)}
            if epoch in self.export_failures:
                extra["export_degraded"] = True
            self.log.append({**record, **extra})
        if (
            state.epoch % config.checkpoint_interval == 0
            or state.epoch == config.epochs
        ):
            self._checkpoint(state)
        if self.recorder is not None:
            # Heartbeat stamped at the completed epoch's START hour
            # (after the log/checkpoint so their latencies land in this
            # tick): resume truncation cuts t >= boundary *
            # hours_per_epoch, which then removes exactly the replayed
            # epochs' ticks and no others.
            self.recorder.record(t=epoch * float(config.hours_per_epoch))

    def run(self, state: Optional[CampaignState] = None) -> CampaignOutcome:
        """Drive the campaign from ``state`` (or epoch zero) to the end.

        Returns a :class:`CampaignOutcome`; when a SIGINT/SIGTERM
        arrived the outcome is ``interrupted`` with a final checkpoint
        already flushed, and a later :meth:`resume` continues it.
        """
        config = self.config
        if state is None:
            state = CampaignState.fresh(config.seed)
            self._checkpoint(state)  # epoch-0 anchor for early kills
        resumed_from = state.epoch if state.epoch else None
        interrupted = False
        signal_name: Optional[str] = None
        self._pre_register_obs()

        try:
            with ShutdownGuard() as guard:
                while state.epoch < config.epochs:
                    if guard.stop_requested:
                        interrupted, signal_name = True, guard.signal_name
                        break
                    self._supervised_epoch(state)
        finally:
            if self.recorder is not None:
                # Buffered heartbeat ticks reach the store even when an
                # exception (or KeyboardInterrupt) unwinds the loop;
                # anything past the last checkpoint is truncated and
                # replayed on resume anyway.
                self.recorder.flush()
        if interrupted:
            self._checkpoint(state)
            obs_counter("campaign.interrupts").inc()
            obs_event(
                "warning", "campaign.interrupted",
                epoch=state.epoch, signal=signal_name or "?",
            )
            return CampaignOutcome(
                result=None,
                state=state,
                interrupted=True,
                signal_name=signal_name,
                resumed_from_epoch=resumed_from,
            )

        result = self._finalize(state)
        result_file = None
        if self.state_dir is not None:
            # The terminal artifact is read back and compared after the
            # rename: a dropped rename or torn result would otherwise be
            # the one silent failure nothing downstream could detect.
            result_file = write_json_atomic_verified(
                self.state_dir / RESULT_FILENAME,
                {
                    "schema": CAMPAIGN_RESULT_SCHEMA,
                    "sha256": result_hash(result),
                    "result": result,
                },
            )
        return CampaignOutcome(
            result=result,
            state=state,
            resumed_from_epoch=resumed_from,
            result_file=result_file,
        )

    # ------------------------------------------------------------------
    # Analytics
    # ------------------------------------------------------------------

    def _finalize(self, state: CampaignState) -> CampaignResult:
        """Run the Fig. 21 analytics over the committed epochs' series.

        The series are regenerated here rather than checkpointed: each
        epoch's is a pure function of (seed, epoch, storm), and an epoch
        the watchdog abandoned contributes none.
        """
        config = self.config
        timed_out = set(state.timeouts)
        series = [
            self._epoch_series(epoch, config.is_storm_epoch(epoch))
            for epoch in range(state.epoch)
            if epoch not in timed_out
        ]
        if not series:
            raise CampaignError(
                "campaign accumulated no samples (every epoch timed out?)"
            )
        hours, acceleration, stress = (
            np.concatenate([s[i] for s in series]) for i in range(3)
        )

        accel_windows = detect_anomalies(hours, acceleration)
        stress_dev = stress - float(np.median(stress))
        stress_windows = detect_anomalies(hours, stress_dev)

        storm_epochs = tuple(
            e for e in config.storm_epochs() if e < state.epoch
        )
        storms_detected = 0
        for epoch in storm_epochs:
            window = AnomalyWindow(
                epoch * float(config.hours_per_epoch),
                (epoch + 1) * float(config.hours_per_epoch),
            )
            if any(w.overlaps(window) for w in accel_windows) and any(
                w.overlaps(window) for w in stress_windows
            ):
                storms_detected += 1

        compliance = check_compliance(
            Footbridge().limits, acceleration, stress
        )
        total_graded = sum(state.grade_counts.values())
        grade_fractions = {
            g: c / total_graded
            for g, c in sorted(state.grade_counts.items())
        }

        return CampaignResult(
            epochs=config.epochs,
            epochs_run=state.epoch,
            storm_epochs=storm_epochs,
            epoch_records=list(state.epoch_records),
            hours=hours,
            acceleration=acceleration,
            stress_mpa=stress,
            acceleration_anomalies=accel_windows,
            stress_anomalies=stress_windows,
            sensors_mutually_verified=cross_validate(
                accel_windows, stress_windows
            ),
            storms_detected=storms_detected,
            compliance=compliance,
            grade_fractions=grade_fractions,
            fault_totals=dict(sorted(state.fault_totals.items())),
            timeouts=list(state.timeouts),
        )


# ----------------------------------------------------------------------
# Module-level conveniences (the CLI's verbs)
# ----------------------------------------------------------------------

def run_campaign(
    config: CampaignConfig,
    state_dir: Optional[Union[str, Path]] = None,
    epoch_hook: Optional[Callable[[int], None]] = None,
    store_dir: Optional[Union[str, Path]] = None,
    record_obs: bool = False,
    store_building: str = STORE_BUILDING,
    store_wall: str = STORE_WALL,
) -> CampaignOutcome:
    """Start a fresh campaign (``campaign run``)."""
    return Campaign(
        config, state_dir=state_dir, epoch_hook=epoch_hook,
        store_dir=store_dir, record_obs=record_obs,
        store_building=store_building, store_wall=store_wall,
    ).run()


def resume_campaign(
    state_dir: Union[str, Path],
    epoch_hook: Optional[Callable[[int], None]] = None,
    store_dir: Optional[Union[str, Path]] = None,
    record_obs: bool = False,
    store_building: str = STORE_BUILDING,
    store_wall: str = STORE_WALL,
) -> CampaignOutcome:
    """Continue a campaign from its last good checkpoint
    (``campaign resume``)."""
    campaign, state = Campaign.resume(
        state_dir, epoch_hook=epoch_hook, store_dir=store_dir,
        record_obs=record_obs,
        store_building=store_building, store_wall=store_wall,
    )
    return campaign.run(state)


def campaign_status(state_dir: Union[str, Path]) -> Dict[str, Any]:
    """A non-mutating snapshot of a campaign directory's health."""
    state_dir = Path(state_dir)
    store = CheckpointStore(state_dir / CHECKPOINT_DIRNAME)
    log = EpochLog(state_dir / EPOCH_LOG_FILENAME)
    records = log.records()
    quarantined = (
        sorted(p.name for p in store.quarantine_dir.iterdir())
        if store.quarantine_dir.is_dir()
        else []
    )
    last = records[-1] if records else None
    status: Dict[str, Any] = {
        "state_dir": str(state_dir),
        "latest_checkpoint_epoch": store.latest_epoch(),
        "log_records": len(records),
        "log_last_epoch": last["epoch"] if last else None,
        # Operational read of the audit log: how the pilot is *running*
        # (wall time, degradations, watchdog trips), not just where.
        "last_epoch_wall_s": last.get("elapsed_s") if last else None,
        "degraded_epochs": sum(1 for r in records if r.get("degraded")),
        "export_degraded_epochs": [
            r["epoch"] for r in records if r.get("export_degraded")
        ],
        "epoch_timeouts": [
            r["epoch"] for r in records if r.get("status") == "epoch_timeout"
        ],
        "total_retries": sum(r.get("retries", 0) for r in records),
        "quarantined": quarantined,
        "complete": (state_dir / RESULT_FILENAME).exists(),
    }
    # Verify without quarantining: status must never mutate the store
    # (resume is the verb that acts on what it finds).
    payload = None
    corrupt: List[str] = []
    for path, _epoch in store._candidates():
        try:
            payload = store.verify(path)
            break
        except CheckpointError as exc:
            corrupt.append(str(exc))
    if corrupt:
        status["corrupt_checkpoints"] = corrupt
    if payload is not None:
        status["verified_epoch"] = payload["epoch"]
        status["epochs_total"] = payload["config"].get("epochs")
        status["timeouts"] = list(payload["state"].get("timeouts", []))
    elif store.latest_epoch() is not None:
        status["checkpoint_error"] = (
            "every checkpoint on disk fails verification; "
            "resume would quarantine them all and fail"
        )
    return status
