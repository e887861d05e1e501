"""Protocol layer: CRCs, Gen2-style packets, node state machine, TDMA."""

from .crc import (
    append_crc16,
    bits_from_int,
    crc5,
    crc16,
    int_from_bits,
    verify_crc16,
)
from .node_sm import (
    ACKNOWLEDGED,
    ARBITRATE,
    READY,
    REPLY,
    NodeStateMachine,
)
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
from .tdma import InventoryResult, InventoryRound, SlotOutcome, TdmaInventory

__all__ = [
    "append_crc16",
    "bits_from_int",
    "crc5",
    "crc16",
    "int_from_bits",
    "verify_crc16",
    "ACKNOWLEDGED",
    "ARBITRATE",
    "READY",
    "REPLY",
    "NodeStateMachine",
    "Ack",
    "Query",
    "QueryRep",
    "ReadSensor",
    "Rn16Reply",
    "SensorReport",
    "SetBlf",
    "parse_frame",
    "InventoryResult",
    "InventoryRound",
    "SlotOutcome",
    "TdmaInventory",
]
