"""Failure-injection tests: the stack must fail loudly and recover cleanly."""

import numpy as np
import pytest

from repro.errors import CrcError, DecodingError, PowerError, ProtocolError
from repro.node import EcoCapsule, Environment
from repro.protocol import (
    Ack,
    Query,
    ReadSensor,
    SensorReport,
    parse_frame,
)


class TestCorruptedPackets:
    def test_flipped_bit_in_every_position_is_caught_or_changes_meaning(self):
        """No corrupted SensorReport may decode to a wrong value silently
        when the flip touches the protected body."""
        frame = SensorReport.from_value(7, "temperature", 26.5).to_int()
        for index in range(SensorReport.WIDTH):
            with pytest.raises(CrcError):
                SensorReport.from_int(frame ^ (1 << index))

    def test_truncated_command_rejected(self):
        frame = Query(q=3).to_int()
        with pytest.raises(ProtocolError):
            parse_frame(frame >> (Query.WIDTH - 8), 8)

    def test_garbage_command_rejected(self):
        rng = np.random.default_rng(0)
        rejected = 0
        for _ in range(50):
            frame = int(rng.integers(0, 1 << 15))
            try:
                parse_frame(frame, 15)
            except (ProtocolError, CrcError):
                rejected += 1
        # Random 15-bit strings almost never pass both the command-code
        # and CRC checks.
        assert rejected >= 48


class TestPowerLoss:
    def test_field_collapse_mid_handshake_resets_cleanly(self):
        capsule = EcoCapsule(node_id=2, seed=3)
        capsule.apply_field(2.0)
        reply = capsule.handle(Query(q=0))
        capsule.handle(Ack(rn16=reply.rn16))
        assert capsule.protocol.is_acknowledged

        # The reader walks away: the CBW dies before the sensor read.
        capsule.apply_field(0.0)
        with pytest.raises(PowerError):
            capsule.handle(ReadSensor(channel="temperature"))

        # Power returns: the node starts from READY, not ACKNOWLEDGED.
        capsule.apply_field(2.0)
        assert capsule.protocol.state == "ready"
        reply = capsule.handle(Query(q=0))
        assert reply is not None

    def test_brownout_between_reads(self):
        capsule = EcoCapsule(
            node_id=4, environment=Environment(temperature=25.0), seed=5
        )
        capsule.apply_field(2.0)
        reply = capsule.handle(Query(q=0))
        capsule.handle(Ack(rn16=reply.rn16))
        first = capsule.handle(ReadSensor(channel="temperature"))
        assert first is not None

        capsule.apply_field(0.4)  # below activation: brownout
        with pytest.raises(PowerError):
            capsule.handle(ReadSensor(channel="humidity"))


class TestChannelCollapse:
    def test_decoder_rejects_silent_capture(self):
        from repro.phy import BackscatterModulator
        from repro.reader import ReaderReceiver

        receiver = ReaderReceiver(modulator=BackscatterModulator())
        silence = np.zeros(int(1e5))
        with pytest.raises(DecodingError):
            # No carrier to estimate: the capture is all zeros.
            receiver.decode(silence, 200)

    def test_session_with_unreachable_wall(self):
        from repro.acoustics import StructureGeometry
        from repro.link import PlacedNode, PowerUpLink, WallSession
        from repro.materials import get_concrete

        wall = StructureGeometry(
            "far wall", length=50.0, thickness=0.6,
            medium=get_concrete("NC").medium,
        )
        session = WallSession(
            budget=PowerUpLink(wall),
            nodes=[
                PlacedNode(capsule=EcoCapsule(node_id=1, seed=1), distance=45.0)
            ],
            tx_voltage=50.0,
        )
        result = session.run()
        assert result.powered_nodes == []
        assert result.reports == {}

    def test_uplink_at_hopeless_snr_fails_gracefully(self):
        from repro.link import UplinkBasebandSimulator

        sim = UplinkBasebandSimulator(seed=7)
        result = sim.run([1, 0, 1, 1] * 25, bitrate=1e3, snr_db=-20.0)
        assert not result.synced
        assert 0.2 < result.ber < 0.8  # coin flips, not a crash


class TestSensorFaults:
    def test_out_of_range_environment_surfaces_the_fault(self):
        from repro.circuits import SensorError

        capsule = EcoCapsule(
            node_id=6, environment=Environment(temperature=500.0), seed=8
        )
        capsule.apply_field(2.0)
        with pytest.raises(SensorError):
            capsule.read_sensor("temperature")

    def test_report_encoding_rejects_unencodable_values(self):
        with pytest.raises(ProtocolError):
            SensorReport.from_value(1, "strain", 1e6)
