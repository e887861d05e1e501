"""Node-side protocol state machine (Gen2-style tag logic).

An EcoCapsule's MCU runs this logic: on Query it draws a random slot
counter; when the counter reaches zero it backscatters an RN16 and waits
for an Ack; once acknowledged it accepts SetBlf / ReadSensor commands
addressed to it.  The paper adopts the Gen2 slotted TDMA "because a
limited number of EcoCapsules are implanted into a wall" (Sec. 3.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..circuits.sensors import SensorError
from ..errors import ProtocolError
from .packets import (
    Ack,
    Query,
    QueryRep,
    ReadSensor,
    Rn16Reply,
    SensorReport,
    SetBlf,
    parse_frame,
)

#: Node protocol states.
READY = "ready"
ARBITRATE = "arbitrate"
REPLY = "reply"
ACKNOWLEDGED = "acknowledged"


@dataclass
class NodeStateMachine:
    """The tag-side protocol engine.

    Args:
        node_id: This node's 8-bit identity.
        read_sensor: Callback mapping a channel name to its current
            engineering value (wired to the capsule's sensor suite).
        seed: RNG seed for slot/RN16 draws (reproducible inventories).
    """

    node_id: int
    read_sensor: Callable[[str], float]
    seed: Optional[int] = None
    state: str = field(default=READY, init=False)
    slot_counter: int = field(default=0, init=False)
    rn16: Optional[int] = field(default=None, init=False)
    blf_khz: int = field(default=10, init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.node_id <= 0xFF:
            raise ProtocolError(f"node id out of range: {self.node_id}")
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    # Command handling
    # ------------------------------------------------------------------

    def handle(self, command) -> Optional[object]:
        """Process one downlink command; return an uplink reply or None."""
        if isinstance(command, Query):
            return self._on_query(command)
        if isinstance(command, QueryRep):
            return self._on_query_rep()
        if isinstance(command, Ack):
            return self._on_ack(command)
        if isinstance(command, SetBlf):
            return self._on_set_blf(command)
        if isinstance(command, ReadSensor):
            return self._on_read_sensor(command)
        raise ProtocolError(f"node cannot handle {type(command).__name__}")

    def handle_frame(self, value: int, width: int) -> Optional[object]:
        """Process a raw ``width``-bit downlink frame, as heard over the air.

        This is the fault-tolerant entry point the lossy channel uses
        for a command that arrived with bits flipped: a real tag that
        hears a command failing its CRC (or an opcode mangled into
        garbage) simply stays silent, so parse errors are swallowed
        rather than raised.  Commands that arrive intact, and clean
        simulations, go to :meth:`handle` as typed commands.
        """
        try:
            command = parse_frame(value, width)
        except ProtocolError:
            return None
        return self.handle(command)

    def _on_query(self, query: Query) -> Optional[Rn16Reply]:
        self.slot_counter = self._rng.randrange(1 << query.q)
        self.rn16 = None
        if self.slot_counter == 0:
            return self._enter_reply()
        self.state = ARBITRATE
        return None

    #: Sentinel slot counter for a node that already replied this round:
    #: Gen2 wraps a zero counter to 0x7FFF on QueryRep, which in practice
    #: parks the tag until the next Query.
    _OUT_OF_ROUND = 0x7FFF

    def _on_query_rep(self) -> Optional[Rn16Reply]:
        if self.state == ACKNOWLEDGED:
            # Round moved on; this node is done for the round.
            self.state = READY
            return None
        if self.state not in (ARBITRATE, REPLY):
            return None
        if self.state == REPLY:
            # Collided or unheard: Gen2 wraps the counter, parking the
            # node until the next Query round.
            self.state = ARBITRATE
            self.slot_counter = self._OUT_OF_ROUND
            return None
        self.slot_counter -= 1
        if self.slot_counter <= 0:
            return self._enter_reply()
        return None

    def _enter_reply(self) -> Rn16Reply:
        self.state = REPLY
        self.rn16 = self._rng.randrange(1 << 16)
        return Rn16Reply(rn16=self.rn16)

    def _on_ack(self, ack: Ack) -> None:
        if self.state != REPLY or self.rn16 is None:
            return None
        if ack.rn16 != self.rn16:
            self.state = ARBITRATE
            return None
        self.state = ACKNOWLEDGED
        return None

    def _on_set_blf(self, command: SetBlf) -> None:
        if self.state != ACKNOWLEDGED:
            return None
        self.blf_khz = command.blf_khz
        return None

    def _on_read_sensor(self, command: ReadSensor) -> Optional[SensorReport]:
        if self.state != ACKNOWLEDGED:
            return None
        try:
            value = self.read_sensor(command.channel)
            return SensorReport.from_value(self.node_id, command.channel, value)
        except (SensorError, ProtocolError):
            # The sensor refuses a value outside its range, or the
            # reading does not fit the report's fixed-point field.
            # Clipping would report a wrong value, so the node sends
            # nothing and the reader's failed-read path takes over.
            return None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    @property
    def is_acknowledged(self) -> bool:
        return self.state == ACKNOWLEDGED

    def power_cycle(self) -> None:
        """Reset to READY, as after losing the CBW (harvested supply)."""
        self.state = READY
        self.slot_counter = 0
        self.rn16 = None
