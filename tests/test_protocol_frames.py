"""Int frames against the bit-list reference (``tests/frame_oracle.py``).

The air interface carries frames as ``(value, width)`` ints with
table-driven CRCs.  These properties hold it to the bit-at-a-time
reference: the same CRCs, the same frames, and the same verdict on
every corrupted frame -- the same packet, or a rejection on both sides.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol import (
    Ack,
    Query,
    QueryRep,
    ReadSensor,
    Rn16Reply,
    SensorReport,
    SetBlf,
    crc5,
    crc16,
    parse_frame,
)
from repro.protocol.packets import SENSOR_CHANNELS

from .frame_oracle import (
    bit_crc5,
    bit_crc16,
    bits_of,
    encode_bits,
    int_of,
    parse_bits,
    parse_command_bits,
)

frames = st.integers(0, 128).flatmap(
    lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
)
channels = st.sampled_from(sorted(SENSOR_CHANNELS))
#: Every valid packet of each of the seven types.
PACKETS = {
    Query: st.builds(Query, q=st.integers(0, 15), session=st.integers(0, 3)),
    QueryRep: st.builds(QueryRep, session=st.integers(0, 3)),
    Ack: st.builds(Ack, rn16=st.integers(0, 0xFFFF)),
    SetBlf: st.builds(SetBlf, blf_khz=st.integers(1, 255)),
    ReadSensor: st.builds(ReadSensor, channel=channels),
    Rn16Reply: st.builds(Rn16Reply, rn16=st.integers(0, 0xFFFF)),
    SensorReport: st.builds(
        SensorReport, node_id=st.integers(0, 0xFF), channel=channels,
        raw=st.integers(0, 0xFFFF),
    ),
}
packets = st.one_of(*PACKETS.values())


def crc_valid_mask(cls, delta):
    """A mask that changes the body by ``delta`` and keeps the CRC valid.

    Both CRCs are affine over a fixed width, so ``crc(b ^ d)`` is
    ``crc(b) ^ crc(d) ^ crc(0)``: such masks reach the opcode, length
    and channel checks behind the CRC, which random masks rarely do.
    """
    if cls is Query:
        return (delta << 5) | (crc5(delta, 10) ^ crc5(0, 10))
    body = cls.WIDTH - 16
    return (delta << 16) | (crc16(delta, body) ^ crc16(0, body))


@st.composite
def corrupted(draw):
    """(packet, mask): a packet and a flip mask over its frame."""
    packet = draw(packets)
    cls = type(packet)
    random_mask = st.integers(0, (1 << cls.WIDTH) - 1)
    if cls in (Query, SetBlf, ReadSensor, SensorReport):
        body = cls.WIDTH - (5 if cls is Query else 16)
        mask = draw(st.one_of(
            random_mask,
            st.integers(0, (1 << body) - 1).map(
                lambda delta: crc_valid_mask(cls, delta)
            ),
        ))
    else:
        mask = draw(random_mask)
    return packet, mask


def verdict(parse, *args):
    """The parsed packet, or "rejected" when the parse raises."""
    try:
        return parse(*args)
    except ProtocolError:
        return "rejected"


class TestCrcsMatchTheOracle:
    @given(frames)
    @settings(max_examples=300, deadline=None)
    def test_int_crcs_equal_the_bitwise_crcs(self, frame):
        value, width = frame
        bits = bits_of(value, width)
        assert crc5(value, width) == int_of(bit_crc5(bits))
        assert crc16(value, width) == int_of(bit_crc16(bits))


class TestPacketsMatchTheOracle:
    @given(packets)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_and_bits(self, packet):
        cls = type(packet)
        frame = packet.to_int()
        assert 0 <= frame < 1 << cls.WIDTH
        assert cls.from_int(frame) == packet
        assert packet.to_bits() == encode_bits(packet)
        assert frame == int_of(encode_bits(packet))

    @given(corrupted())
    @settings(max_examples=500, deadline=None)
    # CRC-valid corruptions that reach each check behind the CRC: an
    # unassigned channel code (4-7), an opcode turned into another
    # command's, and a field value the packet itself refuses.
    @example((SensorReport(node_id=1, channel="temperature", raw=0),
              crc_valid_mask(SensorReport, 0b100 << 16)))
    @example((ReadSensor(channel="strain"), crc_valid_mask(ReadSensor, 0b100)))
    @example((SetBlf(blf_khz=10), crc_valid_mask(SetBlf, 0b0001 << 8)))
    @example((SetBlf(blf_khz=1), crc_valid_mask(SetBlf, 1)))
    def test_any_mask_gives_the_oracle_verdict(self, case):
        packet, mask = case
        cls = type(packet)
        heard = packet.to_int() ^ mask
        oracle_bits = [
            bit ^ flip
            for bit, flip in zip(encode_bits(packet), bits_of(mask, cls.WIDTH))
        ]
        expected = verdict(parse_bits, cls, oracle_bits)
        assert verdict(cls.from_int, heard) == expected
        if hasattr(cls, "COMMAND"):
            assert verdict(parse_frame, heard, cls.WIDTH) == verdict(
                parse_command_bits, oracle_bits
            )

    @given(st.integers(0, 48).flatmap(
        lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
    ))
    @settings(max_examples=300, deadline=None)
    def test_any_frame_of_any_width_gives_the_oracle_verdict(self, frame):
        value, width = frame
        assert verdict(parse_frame, value, width) == verdict(
            parse_command_bits, bits_of(value, width)
        )

    @pytest.mark.parametrize("cls", [Query, SetBlf, ReadSensor, SensorReport])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_crc_valid_masks_keep_the_crc(self, cls, data):
        packet = data.draw(PACKETS[cls])
        check_width = 5 if cls is Query else 16
        delta = data.draw(st.integers(0, (1 << (cls.WIDTH - check_width)) - 1))
        heard = packet.to_int() ^ crc_valid_mask(cls, delta)
        body = heard >> check_width
        assert body == (packet.to_int() >> check_width) ^ delta
        crc = crc5 if cls is Query else crc16
        assert crc(body, cls.WIDTH - check_width) == heard & ((1 << check_width) - 1)
