"""Reader-side inventory: slotted-ALOHA TDMA over multiple EcoCapsules.

The reader starts a round with Query(Q); each node picks a random slot
among 2^Q.  Slots with exactly one replier are singulated (Ack), then
served (SetBlf assignment, sensor reads); empty and collided slots
advance via QueryRep.  The Q parameter adapts between rounds with the
standard Gen2 Q-algorithm so the slot count tracks the population.

The inventory is fault-aware: give it a
:class:`~repro.faults.FaultPlan` and every command/reply crosses a
lossy channel that flips bits of its frame.  The injector draws one
flip mask per frame; a frame left intact arrives as the packet object
that was sent, and only a frame with bits flipped is encoded, XORed
and parsed again.  Commands are CRC-checked node-side (a node silently
drops what it cannot parse, as a real tag does), replies are
CRC-checked reader-side, and the reader answers corruption with
bounded retries (``max_retries``, counted in the ``tdma.retries``
metric).  Whatever faults remain uncorrected surface as *degraded
results*: :meth:`TdmaInventory.inventory_all` never raises on an
incomplete population -- it returns an :class:`InventoryResult` whose
``unheard_nodes``/``degraded`` record says exactly what was missed.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import ProtocolError
from ..faults import FaultInjector, FaultPlan
from ..obs import obs_counter, obs_enabled, obs_gauge
from .node_sm import NodeStateMachine
from .packets import Ack, Query, QueryRep, ReadSensor, Rn16Reply, SensorReport, SetBlf


@dataclass
class SlotOutcome:
    """What happened in one TDMA slot."""

    slot_index: int
    repliers: int
    singulated_node_id: Optional[int] = None
    reports: List[SensorReport] = field(default_factory=list)

    @property
    def collided(self) -> bool:
        return self.repliers > 1

    @property
    def empty(self) -> bool:
        return self.repliers == 0


@dataclass
class InventoryRound:
    """Result of one full Query...QueryRep round."""

    q: int
    slots: List[SlotOutcome] = field(default_factory=list)

    @property
    def singulated(self) -> int:
        return sum(1 for s in self.slots if s.singulated_node_id is not None)

    @property
    def collisions(self) -> int:
        return sum(1 for s in self.slots if s.collided)

    @property
    def empties(self) -> int:
        return sum(1 for s in self.slots if s.empty)

    @property
    def efficiency(self) -> float:
        """Singulated slots per slot used (ALOHA efficiency, <= ~0.37)."""
        if not self.slots:
            raise ProtocolError("round has no slots")
        return self.singulated / len(self.slots)


@dataclass
class InventoryResult(Mapping):
    """Everything a full inventory produced -- partial results included.

    Behaves as a read-only mapping of ``node_id -> [SensorReport]`` (so
    existing ``for node_id, reports in result.items()`` call sites keep
    working) and additionally records how the inventory went:

    Attributes:
        reports: Collected reports, first full read per node.
        rounds_used: Query rounds executed.
        slots_used: Total slots consumed across those rounds.
        unheard_nodes: Node ids never successfully read.  Non-empty
            means the result is *degraded*, not that the call failed.
        retries: Reader-side command retransmissions (ACK timeouts and
            corrupt-reply re-reads).
        fault_counts: Injected-fault tallies (empty for clean runs).
    """

    reports: Dict[int, List[SensorReport]]
    rounds_used: int
    slots_used: int
    unheard_nodes: List[int] = field(default_factory=list)
    retries: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when the inventory ended with nodes unheard."""
        return bool(self.unheard_nodes)

    def __getitem__(self, node_id: int) -> List[SensorReport]:
        return self.reports[node_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)


@dataclass
class TdmaInventory:
    """Runs inventory rounds against a population of node state machines.

    Args:
        nodes: The reachable nodes (their state machines).
        initial_q: Starting Q (2^Q slots per round).
        channels: Sensor channels to read from each singulated node.
        blf_plan_khz: BLFs assigned round-robin so simultaneous nodes
            occupy distinct sidebands (Sec. 3.4 guard-band scheme).
        seed: RNG seed for reproducibility.
        faults: Optional fault plan; commands and replies then cross a
            lossy channel that flips frame bits (see the module docstring).
        max_retries: Reader retransmissions per command before giving
            up on a node for the slot (only exercised under faults).
    """

    nodes: Sequence[NodeStateMachine]
    initial_q: int = 2
    channels: Sequence[str] = ("temperature",)
    blf_plan_khz: Sequence[int] = (10, 14, 18, 22)
    seed: Optional[int] = None
    faults: Optional[FaultPlan] = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.initial_q <= 15:
            raise ProtocolError(f"Q must be in [0, 15], got {self.initial_q}")
        if not self.blf_plan_khz:
            raise ProtocolError("BLF plan cannot be empty")
        if self.max_retries < 0:
            raise ProtocolError(f"max_retries cannot be negative: {self.max_retries}")
        self._rng = random.Random(self.seed)
        self._q_float = float(self.initial_q)
        # id -> node map built once: the per-slot lookup used to be an
        # O(n) scan, which made every round O(n * 2^Q).
        self._nodes_by_id: Dict[int, NodeStateMachine] = {}
        for node in self.nodes:
            if node.node_id in self._nodes_by_id:
                raise ProtocolError(f"duplicate node id {node.node_id}")
            self._nodes_by_id[node.node_id] = node
        self._injector = FaultInjector.from_plan(self.faults)
        self._retries = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def retries(self) -> int:
        """Total reader-side retransmissions so far."""
        return self._retries

    @property
    def fault_counts(self) -> Dict[str, int]:
        """Injected-fault tallies so far (empty for clean runs)."""
        return dict(self._injector.counts) if self._injector else {}

    # ------------------------------------------------------------------
    # Air interface (fault-aware when an injector is installed)
    # ------------------------------------------------------------------

    def _deliver(
        self, node: NodeStateMachine, command, mask: Optional[int] = None
    ) -> Optional[object]:
        """Send one command to one node across the (possibly lossy) channel.

        ``mask`` is the command's flip mask when the caller already drew
        it (see :meth:`_poll`).  An intact command is the object the
        reader holds, which is what parsing its frame would give back;
        only a command with flipped bits is encoded and parsed node-side.
        """
        if mask is None and self._injector is not None:
            mask = self._injector.downlink_mask(command.WIDTH)
        if mask:
            return node.handle_frame(command.to_int() ^ mask, command.WIDTH)
        return node.handle(command)

    def _receive(self, reply):
        """What the reader hears of ``reply``: it, a corruption, or nothing.

        Un-CRC'd replies (RN16) come back silently corrupted; CRC'd
        replies (sensor reports) that fail their check return None, as
        does a reply lost to a deep fade.
        """
        if self._injector is None or reply is None:
            return reply
        if self._injector.drop_reply():
            return None
        mask = self._injector.uplink_mask(reply.WIDTH)
        if not mask:
            return reply
        try:
            return type(reply).from_int(reply.to_int() ^ mask)
        except ProtocolError:
            self._injector.record("uplink_rejected")
            return None

    def _poll(self, roster: Sequence[NodeStateMachine], command) -> Dict[int, Rn16Reply]:
        """Broadcast Query/QueryRep and gather the RN16s the reader hears.

        Every node hears its own copy of the frame.  The copies' flip
        masks are cut from one mask over the roster's copies end to end,
        which takes the same draws, node after node, as a mask per copy.
        """
        replies: Dict[int, Rn16Reply] = {}
        width = command.WIDTH
        copy_mask = (1 << width) - 1
        shift = width * len(roster)
        masks = 0
        if self._injector is not None:
            masks = self._injector.downlink_mask(shift)
        for node in roster:
            shift -= width
            reply = self._deliver(node, command, (masks >> shift) & copy_mask)
            if isinstance(reply, Rn16Reply):
                heard = self._receive(reply)
                if isinstance(heard, Rn16Reply):
                    replies[node.node_id] = heard
        return replies

    def _count_retry(self) -> None:
        self._retries += 1
        if obs_enabled():
            obs_counter("tdma.retries").inc()

    def _ack_with_retry(self, node: NodeStateMachine, rn16: int) -> None:
        """Ack the singulated node; retransmit on (injected) ACK timeouts."""
        self._deliver(node, Ack(rn16=rn16))
        if self._injector is None:
            return
        for _ in range(self.max_retries):
            if node.is_acknowledged:
                return
            self._count_retry()
            self._deliver(node, Ack(rn16=rn16))

    def _read_channel(
        self, node: NodeStateMachine, channel: str
    ) -> Optional[SensorReport]:
        """Read one channel; retry on corrupt or missing replies."""
        reply = self._deliver(node, ReadSensor(channel=channel))
        if self._injector is None:
            return reply if isinstance(reply, SensorReport) else None
        attempts_left = self.max_retries
        while True:
            if isinstance(reply, SensorReport):
                heard = self._receive(self._injector.latch_stuck(reply))
                if isinstance(heard, SensorReport):
                    return heard
            if attempts_left == 0:
                self._injector.record("read_retries_exhausted")
                return None
            attempts_left -= 1
            self._count_retry()
            reply = self._deliver(node, ReadSensor(channel=channel))

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def run_round(self, q: Optional[int] = None) -> InventoryRound:
        """Execute one inventory round and return per-slot outcomes."""
        if q is None:
            q = int(round(self._q_float))
        q = min(max(q, 0), 15)
        round_result = InventoryRound(q=q)
        blf_cursor = 0
        roster = list(self.nodes)

        # Schedule this round's brownouts: each victim's harvested
        # supply collapses at a drawn slot and it misses the rest of
        # the round (it recharges in time for the next one).
        victims: Dict[int, List[int]] = {}
        if self._injector is not None:
            for node in self.nodes:
                if self._injector.brownout():
                    slot = self._injector.victim_slot(1 << q)
                    victims.setdefault(slot, []).append(node.node_id)

        # Slot 0: responses to the Query itself.
        replies = self._poll(roster, Query(q=q))

        for slot_index in range(1 << q):
            if slot_index in victims:
                downed = set(victims[slot_index])
                for node_id in downed:
                    self._nodes_by_id[node_id].power_cycle()
                    replies.pop(node_id, None)
                roster = [n for n in roster if n.node_id not in downed]
            if self._injector is not None and self._injector.slot_jitter():
                # The reader sampled the wrong uplink window: whatever
                # was backscattered this slot goes unheard.
                replies = {}
            outcome = SlotOutcome(slot_index=slot_index, repliers=len(replies))
            if len(replies) == 1:
                node_id, reply = next(iter(replies.items()))
                node = self._nodes_by_id[node_id]
                self._ack_with_retry(node, reply.rn16)
                if node.is_acknowledged:
                    outcome.singulated_node_id = node_id
                    blf = self.blf_plan_khz[blf_cursor % len(self.blf_plan_khz)]
                    blf_cursor += 1
                    self._deliver(node, SetBlf(blf_khz=blf))
                    for channel in self.channels:
                        report = self._read_channel(node, channel)
                        if report is not None:
                            outcome.reports.append(report)
            round_result.slots.append(outcome)

            # Adapt Q between slots (Gen2 Q-algorithm, c = 0.3).
            if outcome.collided:
                self._q_float = min(15.0, self._q_float + 0.3)
            elif outcome.empty:
                self._q_float = max(0.0, self._q_float - 0.3)

            # Advance to the next slot.
            replies = self._poll(roster, QueryRep())

        if obs_enabled():
            # One bulk update per round (not per slot) keeps the
            # instrumented inventory loop cheap even at Q=15.
            obs_counter("tdma.rounds").inc()
            obs_counter("tdma.slots").inc(len(round_result.slots))
            obs_counter("tdma.collisions").inc(round_result.collisions)
            obs_counter("tdma.empties").inc(round_result.empties)
            obs_counter("tdma.singulations").inc(round_result.singulated)
            obs_gauge("tdma.q").set(self._q_float)
        return round_result

    def inventory_all(self, max_rounds: int = 20) -> InventoryResult:
        """Run rounds until every node is read or ``max_rounds`` elapse.

        Nodes power-cycle between rounds (their harvested state dies
        with the CBW gap), and the first full read per node wins --
        later re-singulations of an already-served node are ignored.

        Never raises on an incomplete population: the returned
        :class:`InventoryResult` carries partial ``reports`` plus the
        ``unheard_nodes`` that make it ``degraded``.
        """
        retries_before = self._retries
        collected: Dict[int, List[SensorReport]] = {}
        rounds_used = 0
        slots_used = 0
        for _ in range(max_rounds):
            round_result = self.run_round()
            rounds_used += 1
            slots_used += len(round_result.slots)
            for slot in round_result.slots:
                if slot.singulated_node_id is not None and slot.reports:
                    if slot.singulated_node_id not in collected:
                        collected[slot.singulated_node_id] = list(slot.reports)
            if len(collected) == len(self.nodes):
                break
            for node in self.nodes:
                node.power_cycle()
        unheard = sorted(set(self._nodes_by_id) - set(collected))
        if unheard and obs_enabled():
            obs_counter("tdma.inventories_degraded").inc()
            obs_counter("tdma.nodes_unheard").inc(len(unheard))
        return InventoryResult(
            reports=collected,
            rounds_used=rounds_used,
            slots_used=slots_used,
            unheard_nodes=unheard,
            retries=self._retries - retries_before,
            fault_counts=self.fault_counts,
        )
