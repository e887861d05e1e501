"""Unit tests for the Gen2-style packet formats."""

import pytest

from repro.errors import CrcError, ProtocolError
from repro.protocol import (
    Ack,
    Query,
    QueryRep,
    ReadSensor,
    Rn16Reply,
    SensorReport,
    SetBlf,
    append_crc16,
    parse_frame,
)
from repro.protocol.packets import READ_SENSOR


class TestQuery:
    def test_round_trip(self):
        query = Query(q=4, session=2)
        assert Query.from_int(query.to_int()) == query

    def test_crc5_protects(self):
        frame = Query(q=4).to_int() ^ (1 << (Query.WIDTH - 1 - 5))
        with pytest.raises(CrcError):
            Query.from_int(frame)

    def test_q_range(self):
        with pytest.raises(ProtocolError):
            Query(q=16)
        with pytest.raises(ProtocolError):
            Query(q=-1)

    def test_wrong_length(self):
        with pytest.raises(ProtocolError):
            parse_frame(Query(q=4).to_int() >> 5, 10)
        with pytest.raises(ProtocolError):
            Query.from_int(Query(q=4).to_int() | 1 << Query.WIDTH)


class TestQueryRep:
    def test_round_trip(self):
        rep = QueryRep(session=1)
        assert QueryRep.from_int(rep.to_int()) == rep

    def test_six_bits(self):
        assert QueryRep.WIDTH == 6
        assert len(QueryRep().to_bits()) == 6


class TestAck:
    def test_round_trip(self):
        ack = Ack(rn16=0xBEEF)
        assert Ack.from_int(ack.to_int()) == ack

    def test_rn16_range(self):
        with pytest.raises(ProtocolError):
            Ack(rn16=0x10000)


class TestSetBlf:
    def test_round_trip(self):
        cmd = SetBlf(blf_khz=14)
        assert SetBlf.from_int(cmd.to_int()) == cmd

    def test_crc16_protects(self):
        frame = SetBlf(blf_khz=14).to_int() ^ (1 << (SetBlf.WIDTH - 1 - 6))
        with pytest.raises(CrcError):
            SetBlf.from_int(frame)

    def test_blf_range(self):
        with pytest.raises(ProtocolError):
            SetBlf(blf_khz=0)
        with pytest.raises(ProtocolError):
            SetBlf(blf_khz=256)


class TestReadSensor:
    def test_round_trip_all_channels(self):
        for channel in ("temperature", "humidity", "strain", "acceleration"):
            cmd = ReadSensor(channel=channel)
            assert ReadSensor.from_int(cmd.to_int()) == cmd

    def test_unknown_channel(self):
        with pytest.raises(ProtocolError):
            ReadSensor(channel="pressure")

    @pytest.mark.parametrize("code", [4, 5, 6, 7])
    def test_unassigned_channel_code_is_a_protocol_error(self, code):
        # A CRC-valid frame naming an unassigned channel code.
        frame = append_crc16((READ_SENSOR << 3) | code, 7)
        with pytest.raises(ProtocolError):
            ReadSensor.from_int(frame)
        with pytest.raises(ProtocolError):
            parse_frame(frame, ReadSensor.WIDTH)


class TestRn16Reply:
    def test_round_trip(self):
        reply = Rn16Reply(rn16=0x1234)
        assert Rn16Reply.from_int(reply.to_int()) == reply

    def test_sixteen_bits(self):
        assert len(Rn16Reply(rn16=1).to_bits()) == 16


class TestSensorReport:
    def test_round_trip(self):
        report = SensorReport.from_value(7, "temperature", 26.5)
        decoded = SensorReport.from_int(report.to_int())
        assert decoded == report
        assert decoded.value == pytest.approx(26.5, abs=1.0 / 32.0)

    def test_negative_values(self):
        report = SensorReport.from_value(1, "strain", -312.0)
        assert SensorReport.from_int(report.to_int()).value == pytest.approx(
            -312.0, abs=1.0 / 32.0
        )

    def test_fixed_point_resolution(self):
        report = SensorReport.from_value(1, "humidity", 63.31)
        assert abs(report.value - 63.31) <= 0.5 / 32.0 + 1e-12

    def test_out_of_range_value(self):
        with pytest.raises(ProtocolError):
            SensorReport.from_value(1, "strain", 5e4)

    def test_crc_protects(self):
        frame = SensorReport.from_value(7, "temperature", 26.5).to_int()
        with pytest.raises(CrcError):
            SensorReport.from_int(frame ^ (1 << (SensorReport.WIDTH - 1 - 10)))

    @pytest.mark.parametrize("code", [4, 5, 6, 7])
    def test_unassigned_channel_code_is_a_protocol_error(self, code):
        frame = append_crc16((7 << 19) | (code << 16) | 0x8000, 27)
        with pytest.raises(ProtocolError):
            SensorReport.from_int(frame)

    def test_node_id_range(self):
        with pytest.raises(ProtocolError):
            SensorReport(node_id=256, channel="temperature", raw=0)


class TestParseCommand:
    def test_dispatches_each_type(self):
        commands = [
            Query(q=3),
            QueryRep(),
            Ack(rn16=42),
            SetBlf(blf_khz=10),
            ReadSensor(channel="strain"),
        ]
        for cmd in commands:
            assert parse_frame(cmd.to_int(), cmd.WIDTH) == cmd

    def test_unknown_code(self):
        with pytest.raises(ProtocolError):
            parse_frame(0b1111 << 12, 16)

    def test_too_short(self):
        with pytest.raises(ProtocolError):
            parse_frame(0b10, 2)
