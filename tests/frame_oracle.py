"""Bit-list reference for the Gen2 frames: bitwise CRCs, encoders, parsers.

``repro.protocol`` carries every frame as an int of a fixed width and
computes its CRCs from tables.  This module is the straightforward
version those are checked against: CRCs shifted one bit at a time
through the register, and packets spelled out and parsed as lists of
0/1 bits, MSB first.
"""

from typing import List, Sequence

from repro.errors import CrcError, ProtocolError
from repro.protocol import (
    Ack,
    Query,
    QueryRep,
    ReadSensor,
    Rn16Reply,
    SensorReport,
    SetBlf,
)
from repro.protocol.packets import SENSOR_CHANNEL_NAMES, SENSOR_CHANNELS


def bits_of(value: int, width: int) -> List[int]:
    return [(value >> i) & 1 for i in range(width - 1, -1, -1)]


def int_of(bits: Sequence[int]) -> int:
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return value


def bit_crc5(bits: Sequence[int]) -> List[int]:
    """Gen2 CRC-5 (poly 0x09, preset 0x09): 5 check bits."""
    register = 0b01001
    for bit in bits:
        msb = (register >> 4) & 1
        register = (register << 1) & 0b11111
        if msb ^ bit:
            register ^= 0b01001
    return bits_of(register, 5)


def bit_crc16(bits: Sequence[int]) -> List[int]:
    """Gen2 CRC-16/CCITT (poly 0x1021, preset 0xFFFF, inverted): 16 bits."""
    register = 0xFFFF
    for bit in bits:
        msb = (register >> 15) & 1
        register = (register << 1) & 0xFFFF
        if msb ^ bit:
            register ^= 0x1021
    return bits_of(register ^ 0xFFFF, 16)


def bit_append_crc16(bits: Sequence[int]) -> List[int]:
    return list(bits) + bit_crc16(bits)


def bit_verify_crc16(bits: Sequence[int]) -> List[int]:
    """The payload of a CRC-16 protected message, or raise."""
    if len(bits) < 17:
        raise ProtocolError(f"message of {len(bits)} bits cannot carry a CRC-16")
    payload = list(bits[:-16])
    if bit_crc16(payload) != list(bits[-16:]):
        raise CrcError("CRC-16 mismatch")
    return payload


def _channel(code: int) -> str:
    if code not in SENSOR_CHANNEL_NAMES:
        raise ProtocolError(f"unknown sensor channel code {code}")
    return SENSOR_CHANNEL_NAMES[code]


def encode_bits(packet) -> List[int]:
    """The packet's frame, field by field."""
    if isinstance(packet, Query):
        body = (
            bits_of(Query.COMMAND, 4) + bits_of(packet.q, 4)
            + bits_of(packet.session, 2)
        )
        return body + bit_crc5(body)
    if isinstance(packet, QueryRep):
        return bits_of(QueryRep.COMMAND, 4) + bits_of(packet.session, 2)
    if isinstance(packet, Ack):
        return bits_of(Ack.COMMAND, 4) + bits_of(packet.rn16, 16)
    if isinstance(packet, SetBlf):
        return bit_append_crc16(bits_of(SetBlf.COMMAND, 4) + bits_of(packet.blf_khz, 8))
    if isinstance(packet, ReadSensor):
        return bit_append_crc16(
            bits_of(ReadSensor.COMMAND, 4) + bits_of(SENSOR_CHANNELS[packet.channel], 3)
        )
    if isinstance(packet, Rn16Reply):
        return bits_of(packet.rn16, 16)
    if isinstance(packet, SensorReport):
        return bit_append_crc16(
            bits_of(packet.node_id, 8)
            + bits_of(SENSOR_CHANNELS[packet.channel], 3)
            + bits_of(packet.raw, 16)
        )
    raise TypeError(f"not a packet: {packet!r}")


def parse_bits(cls, bits: Sequence[int]):
    """Parse a ``cls`` packet from its bits, or raise ProtocolError."""
    bits = list(bits)
    if cls is Query:
        if len(bits) != 15:
            raise ProtocolError(f"Query must be 15 bits, got {len(bits)}")
        body, check = bits[:10], bits[10:]
        if bit_crc5(body) != check:
            raise CrcError("Query CRC-5 mismatch")
        if int_of(body[:4]) != Query.COMMAND:
            raise ProtocolError("not a Query packet")
        return Query(q=int_of(body[4:8]), session=int_of(body[8:10]))
    if cls is QueryRep:
        if len(bits) != 6:
            raise ProtocolError(f"QueryRep must be 6 bits, got {len(bits)}")
        if int_of(bits[:4]) != QueryRep.COMMAND:
            raise ProtocolError("not a QueryRep packet")
        return QueryRep(session=int_of(bits[4:6]))
    if cls is Ack:
        if len(bits) != 20:
            raise ProtocolError(f"Ack must be 20 bits, got {len(bits)}")
        if int_of(bits[:4]) != Ack.COMMAND:
            raise ProtocolError("not an Ack packet")
        return Ack(rn16=int_of(bits[4:20]))
    if cls is SetBlf:
        body = bit_verify_crc16(bits)
        if len(body) != 12 or int_of(body[:4]) != SetBlf.COMMAND:
            raise ProtocolError("not a SetBlf packet")
        return SetBlf(blf_khz=int_of(body[4:12]))
    if cls is ReadSensor:
        body = bit_verify_crc16(bits)
        if len(body) != 7 or int_of(body[:4]) != ReadSensor.COMMAND:
            raise ProtocolError("not a ReadSensor packet")
        return ReadSensor(channel=_channel(int_of(body[4:7])))
    if cls is Rn16Reply:
        if len(bits) != 16:
            raise ProtocolError(f"RN16 reply must be 16 bits, got {len(bits)}")
        return Rn16Reply(rn16=int_of(bits))
    if cls is SensorReport:
        body = bit_verify_crc16(bits)
        if len(body) != 27:
            raise ProtocolError(f"sensor report body must be 27 bits, got {len(body)}")
        return SensorReport(
            node_id=int_of(body[:8]),
            channel=_channel(int_of(body[8:11])),
            raw=int_of(body[11:27]),
        )
    raise TypeError(f"not a packet class: {cls!r}")


COMMAND_CLASSES = (Query, QueryRep, Ack, SetBlf, ReadSensor)


def parse_command_bits(bits: Sequence[int]):
    """Parse any downlink command from its bits (dispatch on the 4-bit code)."""
    if len(bits) < 4:
        raise ProtocolError("command too short")
    code = int_of(bits[:4])
    for cls in COMMAND_CLASSES:
        if cls.COMMAND == code:
            return parse_bits(cls, bits)
    raise ProtocolError(f"unknown command code {code:#06b}")
