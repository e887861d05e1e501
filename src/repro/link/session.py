"""Wall-session simulator: charging, inventory and reads with timing/energy.

Ties the whole stack together the way an operator uses it (Fig. 1f):
attach the reader, blast the CBW until the in-range capsules cold-start,
run TDMA inventory rounds, and collect sensor reports -- while tracking
wall-clock time and per-node energy.  This is the engine behind the
deployment planner and the protocol-level ablations.

The session degrades instead of failing: give it a
:class:`~repro.faults.FaultPlan` and CBW charge attempts can drop out
(the session retries with bounded exponential backoff before declaring
the wall dark), inventory rounds run over the lossy channel, and the
:class:`SessionResult` reports exactly what was lost --
``unheard_nodes``, ``retries``, ``fault_counts`` and the ``degraded``
flag -- rather than raising mid-survey.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PowerError, ProtocolError
from ..faults import FaultInjector, FaultPlan
from ..node import EcoCapsule
from ..obs import obs_counter, obs_enabled, obs_gauge, obs_histogram, obs_span
from ..phy import PieTiming
from ..phy.batch import default_engine
from ..protocol import TdmaInventory, SensorReport
from .budget import PowerUpLink


@dataclass(frozen=True)
class PlacedNode:
    """A capsule implanted at a distance along the structure."""

    capsule: EcoCapsule
    distance: float  # m from the reader station

    def __post_init__(self) -> None:
        if self.distance < 0.0:
            raise PowerError("distance cannot be negative")


@dataclass
class SessionTiming:
    """Air-interface timing used for the session clock."""

    pie: PieTiming = field(default_factory=PieTiming)
    uplink_bitrate: float = 1e3
    command_bits: int = 24  # mean downlink command length incl. framing
    reply_bits: int = 43  # RN16 (16) or sensor report (43); use the larger
    turnaround: float = 1e-3  # guard time between downlink and uplink

    @property
    def slot_duration(self) -> float:
        """Worst-case duration of one inventory slot (s)."""
        downlink = self.command_bits * self.pie.one_duration
        uplink = self.reply_bits / self.uplink_bitrate
        return downlink + self.turnaround + uplink + self.turnaround


@dataclass
class SessionResult:
    """What a completed wall session produced -- including the losses.

    A session never raises for an imperfect survey; it reports one of
    these with the damage itemised.  ``degraded`` is True when any
    powered node went unheard or charging failed outright; dark nodes
    (physically out of the charge envelope) do not count as degradation
    because no protocol effort can reach them.
    """

    powered_nodes: List[int]
    dark_nodes: List[int]
    reports: Dict[int, List[SensorReport]]
    elapsed: float  # s, wall-clock from CBW-on to last report
    slots_used: int
    rounds_used: int
    node_energy: Dict[int, float]  # J consumed per powered node
    unheard_nodes: List[int] = field(default_factory=list)
    retries: int = 0  # reader-side command retransmissions
    charge_attempts: int = 1  # CBW attempts incl. the successful one
    backoff_s: float = 0.0  # total time spent backing off between attempts
    recharges: int = 0  # re-charge cycles between inventory rounds
    fault_counts: Dict[str, int] = field(default_factory=dict)
    charge_failed: bool = False  # every CBW attempt dropped out

    @property
    def degraded(self) -> bool:
        """True when powered nodes went unheard or charging failed."""
        return self.charge_failed or bool(self.unheard_nodes)

    @property
    def coverage(self) -> float:
        total = len(self.powered_nodes) + len(self.dark_nodes)
        if total == 0:
            raise ProtocolError("session had no nodes")
        return len(self.powered_nodes) / total

    @property
    def reads_per_second(self) -> float:
        if self.elapsed <= 0.0:
            raise ProtocolError("session consumed no time")
        return sum(len(r) for r in self.reports.values()) / self.elapsed


@dataclass
class WallSession:
    """One reader station serving a set of implanted capsules.

    Args:
        budget: The structure's charging-link budget.
        nodes: The implanted capsules and their distances.
        tx_voltage: Reader drive voltage (V).
        channels: Sensor channels to read per singulated node.
        timing: Air-interface timing for the session clock.
        initial_q: TDMA starting Q.
        seed: RNG seed for the inventory.
        faults: Optional fault plan; the session then charges and
            inventories through the lossy world it describes.
        max_retries: Reader retransmissions per protocol command.
        max_charge_attempts: CBW attempts before giving the wall up as
            dark for this session.
        backoff_initial_s: First retry backoff; doubles per attempt.
        backoff_max_s: Ceiling on a single backoff interval.
    """

    budget: PowerUpLink
    nodes: Sequence[PlacedNode]
    tx_voltage: float = 250.0
    channels: Sequence[str] = ("temperature", "humidity", "strain")
    timing: SessionTiming = field(default_factory=SessionTiming)
    initial_q: int = 2
    seed: Optional[int] = None
    faults: Optional[FaultPlan] = None
    max_retries: int = 2
    max_charge_attempts: int = 3
    backoff_initial_s: float = 0.1
    backoff_max_s: float = 2.0

    def __post_init__(self) -> None:
        if self.tx_voltage <= 0.0:
            raise PowerError("TX voltage must be positive")
        if not self.nodes:
            raise ProtocolError("session needs at least one node")
        if self.max_charge_attempts < 1:
            raise ProtocolError(
                f"need at least one charge attempt, got {self.max_charge_attempts}"
            )
        if self.backoff_initial_s < 0.0 or self.backoff_max_s < 0.0:
            raise ProtocolError("backoff durations cannot be negative")

    def charge(self) -> Tuple[List[PlacedNode], List[PlacedNode], float]:
        """Apply the CBW field to every node.

        The field solve dispatches on the PHY engine in force (see
        :mod:`repro.phy.batch`): the batch engine evaluates the whole
        wall's link budget in one broadcast
        (:meth:`PowerUpLink.node_voltages`), the scalar engine walks the
        nodes through the reference :meth:`PowerUpLink.node_voltage`.
        The two differ by at most 1 ulp per voltage (documented in
        docs/PERFORMANCE.md); power-up margins are orders of magnitude
        wider.

        Returns:
            (powered nodes, dark nodes, charge time) where charge time is
            the slowest cold start among the powered nodes.
        """
        if default_engine() == "scalar" or len(self.nodes) == 1:
            voltages = [
                self.budget.node_voltage(placed.distance, self.tx_voltage)
                for placed in self.nodes
            ]
        else:
            voltages = [
                float(v)
                for v in self.budget.node_voltages(
                    [placed.distance for placed in self.nodes],
                    self.tx_voltage,
                )
            ]
        powered: List[PlacedNode] = []
        dark: List[PlacedNode] = []
        slowest = 0.0
        for placed, field_v in zip(self.nodes, voltages):
            if placed.capsule.apply_field(field_v):
                powered.append(placed)
                slowest = max(slowest, placed.capsule.cold_start_time())
            else:
                dark.append(placed)
        return powered, dark, slowest

    def _charge_with_retry(
        self, injector: Optional[FaultInjector]
    ) -> Tuple[List[PlacedNode], List[PlacedNode], float, int, float, bool]:
        """Charge, retrying dropped-out CBW attempts with backoff.

        Returns:
            (powered, dark, charge_time, attempts, backoff_s, failed).
        """
        backoff_s = 0.0
        for attempt in range(1, self.max_charge_attempts + 1):
            if injector is not None and injector.reader_dropout():
                if obs_enabled():
                    obs_counter("session.charge_retries").inc()
                if attempt < self.max_charge_attempts:
                    backoff_s += min(
                        self.backoff_initial_s * 2 ** (attempt - 1),
                        self.backoff_max_s,
                    )
                continue
            powered, dark, charge_time = self.charge()
            return powered, dark, charge_time, attempt, backoff_s, False
        return [], list(self.nodes), 0.0, self.max_charge_attempts, backoff_s, True

    def run(self, max_rounds: int = 20) -> SessionResult:
        """Execute the full session: charge, inventory, read, account.

        Never raises for a hostile wall: an unchargeable or partially
        heard deployment comes back as a ``degraded`` result.
        """
        injector = FaultInjector.from_plan(self.faults)
        with obs_span("session.charge", nodes=len(self.nodes)):
            powered, dark, charge_time, attempts, backoff_s, failed = (
                self._charge_with_retry(injector)
            )
        if obs_enabled():
            obs_counter("session.nodes_powered").inc(len(powered))
            obs_counter("session.nodes_dark").inc(len(dark))
            obs_histogram("session.charge_s").observe(charge_time)
            if failed:
                obs_counter("session.charge_failures").inc()
        if not powered:
            return SessionResult(
                powered_nodes=[],
                dark_nodes=[p.capsule.node_id for p in dark],
                reports={},
                elapsed=charge_time + backoff_s,
                slots_used=0,
                rounds_used=0,
                node_energy={},
                charge_attempts=attempts,
                backoff_s=backoff_s,
                fault_counts=dict(injector.counts) if injector else {},
                charge_failed=failed,
            )

        inventory = TdmaInventory(
            nodes=[p.capsule.protocol for p in powered],
            initial_q=self.initial_q,
            channels=self.channels,
            seed=self.seed,
            faults=self.faults,
            max_retries=self.max_retries,
        )
        with obs_span("session.inventory", powered=len(powered)):
            outcome = inventory.inventory_all(max_rounds=max_rounds)
        reports = outcome.reports

        # Every round after the first begins with a re-charge (the CBW
        # gap between rounds power-cycles the capsules).  The idealised
        # clean clock ignores that cost -- kept for continuity with the
        # paper's timing model -- but fault-mode surveys pay it.
        recharges = max(0, outcome.rounds_used - 1) if injector is not None else 0
        elapsed = (
            backoff_s
            + charge_time * (1 + recharges)
            + outcome.slots_used * self.timing.slot_duration
        )
        energy = {
            p.capsule.node_id: p.capsule.mcu.energy(
                "active", elapsed, self.timing.uplink_bitrate
            )
            for p in powered
        }
        fault_counts = dict(outcome.fault_counts)
        if injector:
            for name, count in injector.counts.items():
                fault_counts[name] = fault_counts.get(name, 0) + count
        result = SessionResult(
            powered_nodes=sorted(p.capsule.node_id for p in powered),
            dark_nodes=sorted(p.capsule.node_id for p in dark),
            reports=reports,
            elapsed=elapsed,
            slots_used=outcome.slots_used,
            rounds_used=outcome.rounds_used,
            node_energy=energy,
            unheard_nodes=list(outcome.unheard_nodes),
            retries=outcome.retries,
            charge_attempts=attempts,
            backoff_s=backoff_s,
            recharges=recharges,
            fault_counts=fault_counts,
        )
        if obs_enabled():
            # Session health gauges: last-session view of charging
            # coverage and read throughput (the paper's two headline
            # operator metrics).
            obs_gauge("session.charge_coverage").set(result.coverage)
            if result.elapsed > 0.0:
                obs_gauge("session.reads_per_second").set(
                    result.reads_per_second
                )
            obs_counter("session.reports_collected").inc(
                sum(len(r) for r in reports.values())
            )
            obs_counter("session.runs").inc()
            if result.degraded:
                obs_counter("session.degraded").inc()
        return result
