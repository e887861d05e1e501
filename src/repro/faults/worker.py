"""Worker-level fault injection: kill, hang or poison a fleet shard.

The channel/sensor faults in :mod:`repro.faults.plan` model a hostile
*world*; a fleet (see :mod:`repro.fleet`) also has to survive a hostile
*runtime* -- a campaign worker process that dies (OOM killer, node
reboot), wedges (NFS stall, scheduler pathologies), or fails the same
way on every restart (a poison shard).  A :class:`WorkerFaultPlan` is
the deterministic test double for those failure modes: a list of
:class:`WorkerFault` entries saying which building's worker misbehaves
at which epoch, and how many restart attempts the fault survives.

Faults fire from the campaign's ``epoch_hook`` -- *before* the epoch
body draws anything from the experiment RNG streams -- so an injected
failure at epoch ``e`` leaves the last checkpoint's state exactly what
a real SIGKILL at that boundary would: the resumed run is byte-
identical to an unharmed one.  That property is what lets the fleet
test suite assert sha256 identity across arbitrary kill schedules.

Actions:

* ``kill``   -- the worker SIGKILLs itself (crash: no cleanup, no
  checkpoint flush; resume replays from the last checkpoint);
* ``hang``   -- the worker sleeps far past any heartbeat budget; the
  supervisor's liveness watchdog must detect and kill it;
* ``poison`` -- the worker raises; by default the fault never expires
  (``times`` = unbounded), so the shard fails every restart and ends
  quarantined.

``times`` bounds how many *attempts* (0-based restart counts) the
fault fires on: a ``kill`` with ``times=2`` crashes attempts 0 and 1,
then attempt 2 runs clean -- the recovery path.  Plans serialize to
JSON (the CLI's ``fleet run --worker-faults plan.json``) and can be
drawn on a seeded schedule with :meth:`WorkerFaultPlan.seeded`.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import FaultConfigError
from .plan import PlanFile, strict_fields

#: Schema tag written into serialized worker-fault plans.
WORKER_FAULT_SCHEMA = "repro/worker-fault-plan/v1"

#: The three ways a worker process can misbehave.
WORKER_FAULT_ACTIONS = ("kill", "hang", "poison")

#: ``times`` value meaning "never expires" (poison's default).
UNBOUNDED = -1


@dataclass(frozen=True)
class WorkerFault:
    """One injected worker failure.

    Args:
        building: The shard whose worker misbehaves.
        epoch: Epoch (0-based) at whose boundary the fault fires.
        action: ``"kill"``, ``"hang"`` or ``"poison"``.
        times: Number of attempts the fault fires on (attempt = the
            worker's 0-based restart count for that shard), or
            :data:`UNBOUNDED` (-1) for every attempt.  Defaults to 1
            for kill/hang (one crash, then recovery) and unbounded for
            poison (the shard is terminally bad).
    """

    building: str
    epoch: int
    action: str
    times: int = 0  # sentinel: resolved to the per-action default below

    def __post_init__(self) -> None:
        if not isinstance(self.building, str) or not self.building:
            raise FaultConfigError(
                f"worker fault building must be a non-empty string, "
                f"got {self.building!r}"
            )
        if not isinstance(self.epoch, int) or isinstance(self.epoch, bool):
            raise FaultConfigError(
                f"worker fault epoch must be an int, got {self.epoch!r}"
            )
        if self.epoch < 0:
            raise FaultConfigError(
                f"worker fault epoch cannot be negative: {self.epoch}"
            )
        if self.action not in WORKER_FAULT_ACTIONS:
            raise FaultConfigError(
                f"unknown worker fault action {self.action!r}; "
                f"known: {list(WORKER_FAULT_ACTIONS)}"
            )
        if not isinstance(self.times, int) or isinstance(self.times, bool):
            raise FaultConfigError(
                f"worker fault times must be an int, got {self.times!r}"
            )
        if self.times == 0:
            object.__setattr__(
                self, "times", UNBOUNDED if self.action == "poison" else 1
            )
        elif self.times < UNBOUNDED:
            raise FaultConfigError(
                f"worker fault times must be positive or {UNBOUNDED} "
                f"(unbounded), got {self.times}"
            )

    def fires(self, building: str, epoch: int, attempt: int) -> bool:
        """Does this fault fire for ``building`` at ``epoch`` on the
        worker's ``attempt``-th try (0-based restart count)?"""
        if building != self.building or epoch != self.epoch:
            return False
        return self.times == UNBOUNDED or attempt < self.times

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkerFault":
        return cls(**strict_fields(cls, payload, "worker-fault"))


@dataclass(frozen=True)
class WorkerFaultPlan(PlanFile):
    """A deterministic schedule of worker failures for a fleet run."""

    faults: Tuple[WorkerFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, WorkerFault):
                raise FaultConfigError(
                    f"plan entries must be WorkerFault, got {fault!r}"
                )

    def __bool__(self) -> bool:
        return bool(self.faults)

    def matching(
        self, building: str, epoch: int, attempt: int
    ) -> Optional[WorkerFault]:
        """The first fault that fires, or None (workers act on one
        fault per epoch boundary -- the first listed wins)."""
        for fault in self.faults:
            if fault.fires(building, epoch, attempt):
                return fault
        return None

    def for_building(self, building: str) -> "WorkerFaultPlan":
        """The sub-plan targeting one shard (what a worker is handed)."""
        return WorkerFaultPlan(
            tuple(f for f in self.faults if f.building == building)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def seeded(
        cls,
        seed: int,
        buildings: Sequence[str],
        epochs: int,
        kill_rate: float = 0.0,
        hang_rate: float = 0.0,
        poison_rate: float = 0.0,
    ) -> "WorkerFaultPlan":
        """Draw a random-but-reproducible schedule: each building
        independently gets at most one fault, at a uniform epoch, with
        the given per-action probabilities (summing to <= 1)."""
        total = kill_rate + hang_rate + poison_rate
        if total > 1.0 or min(kill_rate, hang_rate, poison_rate) < 0.0:
            raise FaultConfigError(
                f"seeded rates must be non-negative and sum to <= 1, got "
                f"kill={kill_rate} hang={hang_rate} poison={poison_rate}"
            )
        if epochs < 1:
            raise FaultConfigError(f"epochs must be >= 1, got {epochs}")
        rng = random.Random(f"worker-faults:{seed}")
        faults = []
        for building in buildings:
            draw = rng.random()
            epoch = rng.randrange(epochs)
            if draw < kill_rate:
                faults.append(WorkerFault(building, epoch, "kill"))
            elif draw < kill_rate + hang_rate:
                faults.append(WorkerFault(building, epoch, "hang"))
            elif draw < total:
                faults.append(WorkerFault(building, epoch, "poison"))
        return cls(tuple(faults))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": WORKER_FAULT_SCHEMA,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkerFaultPlan":
        entries = strict_fields(
            cls, payload, "worker-fault-plan", WORKER_FAULT_SCHEMA
        ).get("faults", [])
        if not isinstance(entries, (list, tuple)):
            raise FaultConfigError("worker-fault-plan faults must be a list")
        return cls(tuple(WorkerFault.from_dict(e) for e in entries))
