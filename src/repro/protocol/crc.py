"""CRC-5 and CRC-16 as used by the EPC UHF Gen2 air interface.

The paper's downlink packet structure follows Gen2 (Sec. 5.1), so the
reproduction uses the same integrity checks: CRC-5 (poly 0x09, preset
0x09) on Query commands and CRC-16/CCITT (poly 0x1021, preset 0xFFFF,
inverted) on longer messages.

A frame is an int of a known width, sent MSB first.  Both CRCs are
table-driven (Sarwate, CACM 1988): CRC-16 consumes one byte per lookup
in a 256-entry table, CRC-5 five bits per lookup in a 32-entry one.  A
width that is not a multiple of the chunk size feeds its leading bits
through the same table first, since a chunk of ``r`` bits indexes the
table with an ``r``-bit value.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import CrcError, ProtocolError


def _table(poly: int, degree: int, chunk: int) -> List[int]:
    """``c(x) * x^degree mod P(x)`` for every ``chunk``-bit ``c``."""
    top = 1 << (degree - 1)
    mask = (1 << degree) - 1
    table = []
    for value in range(1 << chunk):
        register = value << (degree - chunk)
        for _ in range(chunk):
            register = (register << 1) ^ (poly if register & top else 0)
        table.append(register & mask)
    return table


_CRC5_TABLE = _table(0b01001, 5, 5)
_CRC16_TABLE = _table(0x1021, 16, 8)


def _crc(
    table: Sequence[int], degree: int, chunk: int, register: int,
    value: int, width: int,
) -> int:
    """The register after shifting the ``width``-bit ``value`` through it."""
    if width < 0 or value < 0 or value >> width:
        raise ProtocolError(f"value {value} does not fit in {width} bits")
    mask = (1 << degree) - 1
    step = width % chunk or chunk
    while width:
        width -= step
        register = ((register << step) & mask) ^ table[
            (register >> (degree - step)) ^ ((value >> width) & ((1 << step) - 1))
        ]
        step = chunk
    return register


def crc5(value: int, width: int) -> int:
    """Gen2 CRC-5 of the ``width``-bit ``value``: a 5-bit check."""
    return _crc(_CRC5_TABLE, 5, 5, 0b01001, value, width)


def crc16(value: int, width: int) -> int:
    """Gen2 CRC-16 (CCITT) of the ``width``-bit ``value``: a 16-bit check."""
    return _crc(_CRC16_TABLE, 16, 8, 0xFFFF, value, width) ^ 0xFFFF


def append_crc16(value: int, width: int) -> int:
    """The ``width``-bit ``value`` followed by its CRC-16 (``width + 16`` bits)."""
    return (value << 16) | crc16(value, width)


def verify_crc16(frame: int, width: int) -> int:
    """Validate and strip the trailing CRC-16 of a ``width``-bit frame.

    Returns:
        The payload, ``width - 16`` bits wide.

    Raises:
        ProtocolError: when the frame is too short or does not fit
            ``width``; :class:`~repro.errors.CrcError` when the CRC fails.
    """
    if width < 17:
        raise ProtocolError(f"message of {width} bits cannot carry a CRC-16")
    payload = frame >> 16
    if crc16(payload, width - 16) != frame & 0xFFFF:
        raise CrcError("CRC-16 mismatch")
    return payload


def bits_from_int(value: int, width: int) -> List[int]:
    """Big-endian bit list of ``value`` in ``width`` bits."""
    if width <= 0:
        raise ProtocolError(f"width must be positive, got {width}")
    if value < 0 or value >= (1 << width):
        raise ProtocolError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width - 1, -1, -1)]


def int_from_bits(bits: Iterable[int]) -> int:
    """Big-endian integer from a bit list (e.g. bits demodulated off the air)."""
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ProtocolError(f"bits must be 0/1, got {bit!r}")
        value = (value << 1) | bit
    return value
