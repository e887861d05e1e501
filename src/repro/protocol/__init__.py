"""Protocol layer: CRCs, Gen2-style packets, node state machine, TDMA."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".crc": (
        "append_crc16",
        "bits_from_int",
        "crc5",
        "crc16",
        "int_from_bits",
        "verify_crc16",
    ),
    ".node_sm": (
        "ACKNOWLEDGED",
        "ARBITRATE",
        "READY",
        "REPLY",
        "NodeStateMachine",
    ),
    ".packets": (
        "Ack",
        "Query",
        "QueryRep",
        "ReadSensor",
        "Rn16Reply",
        "SensorReport",
        "SetBlf",
        "parse_frame",
    ),
    ".tdma": (
        "InventoryResult",
        "InventoryRound",
        "SlotOutcome",
        "TdmaInventory",
    ),
})
