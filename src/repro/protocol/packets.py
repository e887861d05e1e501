"""Gen2-style packet formats for the EcoCapsule air interface.

The downlink packet structure follows the EPC UHF Gen2 protocol
(Sec. 5.1): the reader issues Query/QueryRep/Ack commands, plus an
EcoCapsule-specific SetBlf (configure a node's backscatter link
frequency) and ReadSensor (request a sensed value).  Uplink replies are
RN16 handles and sensor reports, protected by CRC-16.

Every packet type has a fixed frame width, ``WIDTH``.  A packet
encodes to a ``WIDTH``-bit int, MSB first on the air (:meth:`to_int`),
and parses back from one (:meth:`from_int`), so that
``P.from_int(p.to_int()) == p`` for every packet ``p``.  The reader
dispatches a downlink frame with :func:`parse_frame`.  :meth:`to_bits`
spells the frame out as a bit list for the PHY modulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List

from ..errors import CrcError, ProtocolError
from .crc import append_crc16, bits_from_int, crc5, verify_crc16

#: Command codes (4 bits).
QUERY = 0b0001
QUERY_REP = 0b0010
ACK = 0b0011
SET_BLF = 0b0100
READ_SENSOR = 0b0101

#: Sensor channel codes for ReadSensor (3 bits).
SENSOR_CHANNELS = {
    "temperature": 0b000,
    "humidity": 0b001,
    "strain": 0b010,
    "acceleration": 0b011,
}
SENSOR_CHANNEL_NAMES = {code: name for name, code in SENSOR_CHANNELS.items()}


def _channel_name(code: int) -> str:
    """The channel a 3-bit code names; codes 4-7 are unassigned."""
    try:
        return SENSOR_CHANNEL_NAMES[code]
    except KeyError:
        raise ProtocolError(f"unknown sensor channel code {code:#05b}") from None


class _Frame:
    """A packet with a fixed frame width (see the module docstring)."""

    WIDTH: ClassVar[int]

    def to_bits(self) -> List[int]:
        """The frame as a bit list, MSB first."""
        return bits_from_int(self.to_int(), self.WIDTH)


@dataclass(frozen=True)
class Query(_Frame):
    """Starts an inventory round with 2^q slots (Gen2 Query)."""

    q: int
    session: int = 0

    COMMAND: ClassVar[int] = QUERY
    WIDTH: ClassVar[int] = 15

    def __post_init__(self) -> None:
        if not 0 <= self.q <= 15:
            raise ProtocolError(f"Q must be in [0, 15], got {self.q}")
        if not 0 <= self.session <= 3:
            raise ProtocolError(f"session must be in [0, 3], got {self.session}")

    def to_int(self) -> int:
        body = (self.COMMAND << 6) | (self.q << 2) | self.session
        return (body << 5) | crc5(body, 10)

    @classmethod
    def from_int(cls, value: int) -> "Query":
        body = value >> 5
        if crc5(body, 10) != value & 0b11111:
            raise CrcError("Query CRC-5 mismatch")
        if body >> 6 != cls.COMMAND:
            raise ProtocolError("not a Query packet")
        return cls(q=(body >> 2) & 0xF, session=body & 0b11)


@dataclass(frozen=True)
class QueryRep(_Frame):
    """Advances the inventory round to the next slot."""

    session: int = 0

    COMMAND: ClassVar[int] = QUERY_REP
    WIDTH: ClassVar[int] = 6

    def __post_init__(self) -> None:
        if not 0 <= self.session <= 3:
            raise ProtocolError(f"session must be in [0, 3], got {self.session}")

    def to_int(self) -> int:
        return (self.COMMAND << 2) | self.session

    @classmethod
    def from_int(cls, value: int) -> "QueryRep":
        if value >> 2 != cls.COMMAND:
            raise ProtocolError("not a QueryRep packet")
        return cls(session=value & 0b11)


@dataclass(frozen=True)
class Ack(_Frame):
    """Acknowledges a node's RN16, singulating it."""

    rn16: int

    COMMAND: ClassVar[int] = ACK
    WIDTH: ClassVar[int] = 20

    def __post_init__(self) -> None:
        if not 0 <= self.rn16 <= 0xFFFF:
            raise ProtocolError(f"RN16 out of range: {self.rn16}")

    def to_int(self) -> int:
        return (self.COMMAND << 16) | self.rn16

    @classmethod
    def from_int(cls, value: int) -> "Ack":
        if value >> 16 != cls.COMMAND:
            raise ProtocolError("not an Ack packet")
        return cls(rn16=value & 0xFFFF)


@dataclass(frozen=True)
class SetBlf(_Frame):
    """Configures the acknowledged node's backscatter link frequency."""

    blf_khz: int

    COMMAND: ClassVar[int] = SET_BLF
    WIDTH: ClassVar[int] = 28

    def __post_init__(self) -> None:
        if not 1 <= self.blf_khz <= 255:
            raise ProtocolError(f"BLF must be 1-255 kHz, got {self.blf_khz}")

    def to_int(self) -> int:
        return append_crc16((self.COMMAND << 8) | self.blf_khz, 12)

    @classmethod
    def from_int(cls, value: int) -> "SetBlf":
        body = verify_crc16(value, cls.WIDTH)
        if body >> 8 != cls.COMMAND:
            raise ProtocolError("not a SetBlf packet")
        return cls(blf_khz=body & 0xFF)


@dataclass(frozen=True)
class ReadSensor(_Frame):
    """Requests one sensor channel from the acknowledged node."""

    channel: str

    COMMAND: ClassVar[int] = READ_SENSOR
    WIDTH: ClassVar[int] = 23

    def __post_init__(self) -> None:
        if self.channel not in SENSOR_CHANNELS:
            raise ProtocolError(
                f"unknown sensor channel {self.channel!r}; "
                f"expected one of {sorted(SENSOR_CHANNELS)}"
            )

    def to_int(self) -> int:
        return append_crc16((self.COMMAND << 3) | SENSOR_CHANNELS[self.channel], 7)

    @classmethod
    def from_int(cls, value: int) -> "ReadSensor":
        body = verify_crc16(value, cls.WIDTH)
        if body >> 3 != cls.COMMAND:
            raise ProtocolError("not a ReadSensor packet")
        return cls(channel=_channel_name(body & 0b111))


@dataclass(frozen=True)
class Rn16Reply(_Frame):
    """Uplink: a node's 16-bit random handle."""

    rn16: int

    WIDTH: ClassVar[int] = 16

    def __post_init__(self) -> None:
        if not 0 <= self.rn16 <= 0xFFFF:
            raise ProtocolError(f"RN16 out of range: {self.rn16}")

    def to_int(self) -> int:
        return self.rn16

    @classmethod
    def from_int(cls, value: int) -> "Rn16Reply":
        return cls(rn16=value)


@dataclass(frozen=True)
class SensorReport(_Frame):
    """Uplink: node id + channel + a 16-bit fixed-point reading, CRC-16.

    Readings are engineering values scaled by ``SCALE`` and offset by
    ``OFFSET``, so the 16-bit field carries -1024 to +1023.97 units in
    steps of 1/32.  That covers temperature and humidity, but not every
    sensor's full range: the strain gauge reads +/-5000 microstrain.  A
    value outside the field has no report (:meth:`from_value` raises),
    and a node asked for one answers nothing.
    """

    node_id: int
    channel: str
    raw: int

    SCALE: ClassVar[float] = 32.0
    OFFSET: ClassVar[int] = 1 << 15
    WIDTH: ClassVar[int] = 43

    def __post_init__(self) -> None:
        if not 0 <= self.node_id <= 0xFF:
            raise ProtocolError(f"node id out of range: {self.node_id}")
        if self.channel not in SENSOR_CHANNELS:
            raise ProtocolError(f"unknown sensor channel {self.channel!r}")
        if not 0 <= self.raw <= 0xFFFF:
            raise ProtocolError(f"raw reading out of range: {self.raw}")

    @classmethod
    def from_value(cls, node_id: int, channel: str, value: float) -> "SensorReport":
        """Quantise an engineering value into a report."""
        raw = int(round(value * cls.SCALE)) + cls.OFFSET
        if not 0 <= raw <= 0xFFFF:
            raise ProtocolError(
                f"value {value} does not fit the report's fixed-point range"
            )
        return cls(node_id=node_id, channel=channel, raw=raw)

    @property
    def value(self) -> float:
        """Engineering value carried by the report."""
        return (self.raw - self.OFFSET) / self.SCALE

    def to_int(self) -> int:
        body = (
            (self.node_id << 19) | (SENSOR_CHANNELS[self.channel] << 16) | self.raw
        )
        return append_crc16(body, 27)

    @classmethod
    def from_int(cls, value: int) -> "SensorReport":
        body = verify_crc16(value, cls.WIDTH)
        return cls(
            node_id=body >> 19,
            channel=_channel_name((body >> 16) & 0b111),
            raw=body & 0xFFFF,
        )


#: Downlink command classes by their 4-bit code.
_COMMANDS = {cls.COMMAND: cls for cls in (Query, QueryRep, Ack, SetBlf, ReadSensor)}


def parse_frame(value: int, width: int):
    """Parse any downlink command from a ``width``-bit frame.

    Dispatches on the leading 4-bit code; the frame must then be as
    wide as that command.
    """
    if width < 4:
        raise ProtocolError("command too short")
    code = value >> (width - 4)
    cls = _COMMANDS.get(code)
    if cls is None:
        raise ProtocolError(f"unknown command code {code:#06b}")
    if width != cls.WIDTH:
        raise ProtocolError(f"{cls.__name__} must be {cls.WIDTH} bits, got {width}")
    return cls.from_int(value)
