"""Integration tests: multi-module flows through the whole stack."""

import math
import random

import numpy as np
import pytest

from repro.acoustics import StructureGeometry, WavePrism, paper_structures
from repro.errors import PowerError
from repro.link import PowerUpLink, UplinkPassbandSimulator
from repro.materials import PLA, get_concrete
from repro.node import EcoCapsule, Environment
from repro.phy import BackscatterModulator
from repro.protocol import (
    Ack,
    Query,
    ReadSensor,
    SensorReport,
    TdmaInventory,
    int_from_bits,
)
from repro.reader import ReaderReceiver, ReaderTransmitter
from repro.shm import BridgeMonitor, Footbridge


class TestChargeAndRead:
    """The quickstart flow: budget -> power -> handshake -> sensor data."""

    def test_end_to_end_single_node(self):
        concrete = get_concrete("NC")
        wall = StructureGeometry(
            "wall", length=10.0, thickness=0.20, medium=concrete.medium
        )
        budget = PowerUpLink(wall)
        capsule = EcoCapsule(
            node_id=3,
            environment=Environment(temperature=27.0, strain=-80.0),
            seed=11,
        )

        field = budget.node_voltage(1.5, tx_voltage=200.0)
        assert capsule.apply_field(field)
        assert capsule.cold_start_time() < 0.1

        reply = capsule.handle(Query(q=0))
        capsule.handle(Ack(rn16=reply.rn16))
        report = capsule.handle(ReadSensor(channel="temperature"))
        assert isinstance(report, SensorReport)
        assert report.value == pytest.approx(27.0, abs=1.0)

    def test_node_beyond_range_stays_dark(self):
        wall = next(s for s in paper_structures() if s.name.startswith("S3"))
        budget = PowerUpLink(wall)
        capsule = EcoCapsule(node_id=4, seed=1)
        reach = budget.max_range(100.0)
        field = budget.node_voltage(reach * 1.5, tx_voltage=100.0)
        assert not capsule.apply_field(field)
        with pytest.raises(PowerError):
            capsule.handle(Query(q=0))

    def test_raising_voltage_revives_the_link(self):
        wall = next(s for s in paper_structures() if s.name.startswith("S3"))
        budget = PowerUpLink(wall)
        capsule = EcoCapsule(node_id=5, seed=2)
        distance = 3.0
        low_field = budget.node_voltage(distance, tx_voltage=50.0)
        assert not capsule.apply_field(low_field)
        needed = budget.minimum_voltage(distance)
        high_field = budget.node_voltage(distance, tx_voltage=needed * 1.05)
        assert capsule.apply_field(high_field)


class TestMultiNodeWall:
    """The wall-survey flow: population -> charge -> inventory -> data."""

    def test_full_inventory_of_a_wall(self):
        concrete = get_concrete("UHPC")
        wall = StructureGeometry(
            "wall", length=8.0, thickness=0.20, medium=concrete.medium
        )
        budget = PowerUpLink(wall)
        rng = random.Random(9)
        capsules = []
        for node_id in range(1, 7):
            capsule = EcoCapsule(
                node_id=node_id,
                environment=Environment(temperature=20.0 + node_id),
                seed=100 + node_id,
            )
            distance = rng.uniform(0.3, 2.5)
            capsule.apply_field(budget.node_voltage(distance, 250.0))
            assert capsule.is_powered
            capsules.append(capsule)

        inventory = TdmaInventory(
            nodes=[c.protocol for c in capsules],
            initial_q=3,
            channels=("temperature",),
            seed=55,
        )
        collected = inventory.inventory_all()
        assert set(collected) == set(range(1, 7))
        for node_id, reports in collected.items():
            assert reports[0].value == pytest.approx(20.0 + node_id, abs=1.0)


class TestWaveformLevelUplink:
    """PHY-faithful round trip: switch waveform -> capture -> DSP decode."""

    def test_sensor_report_over_the_air(self):
        report = SensorReport.from_value(9, "strain", 123.0)
        bits = report.to_bits()
        modulator = BackscatterModulator(blf=10e3, bitrate=2e3)
        simulator = UplinkPassbandSimulator(modulator=modulator, seed=21)
        result = simulator.run(bits)
        assert result.bit_errors == 0

        # Reconstruct the report from the decoded bits.
        waveform = simulator.received_waveform(bits)
        receiver = ReaderReceiver(sample_rate=1e6, modulator=modulator)
        decoded = receiver.decode(waveform, len(bits), carrier=230e3)
        recovered = SensorReport.from_int(int_from_bits(decoded))
        assert recovered.node_id == 9
        assert recovered.channel == "strain"
        assert recovered.value == pytest.approx(123.0, abs=1.0 / 32.0)

    def test_downlink_command_over_concrete(self):
        """PIE/FSK command synthesized, enveloped and decoded node-side."""
        from repro.circuits import EnvelopeDetector, LevelShifter, edge_intervals
        from repro.phy import DownlinkModulator, PieTiming, decode_edge_durations
        from repro.protocol import parse_frame

        sample_rate = 4e6
        timing = PieTiming(tari=250e-6, low=250e-6)
        transmitter = ReaderTransmitter(
            prism=WavePrism(PLA, get_concrete("NC").medium),
            modulator=DownlinkModulator(timing=timing),
            drive_voltage=100.0,
        )
        command = Query(q=2)
        waveform = transmitter.command_waveform_for_packet(command, sample_rate)

        # Concrete response: the 180 kHz low edges arrive attenuated.
        from repro.acoustics import ConcreteBlock, FrequencyResponse

        response = FrequencyResponse(ConcreteBlock(get_concrete("NC"), 0.15))
        # Apply the per-sample gain via the drive plan's frequency track.
        _, carrier = transmitter.modulator.drive_plan(command.to_bits(), sample_rate)
        gains = np.where(
            carrier == transmitter.modulator.resonant_frequency,
            response.gain(transmitter.modulator.resonant_frequency),
            response.gain(transmitter.modulator.off_frequency),
        )
        received = waveform * gains / np.max(gains)

        detector = EnvelopeDetector(cutoff=30e3)
        envelope = detector.detect(received, sample_rate)
        binary = LevelShifter().binarize(envelope)
        durations = edge_intervals(binary, sample_rate)
        bits = decode_edge_durations(durations, int(binary[0]), timing)
        assert parse_frame(int_from_bits(bits), len(bits)) == command


class TestPilotStudyPipeline:
    def test_month_of_monitoring(self):
        from repro.shm import (
            JulyTimeSeriesGenerator,
            check_compliance,
            detect_anomalies,
        )

        bridge = Footbridge()
        generator = JulyTimeSeriesGenerator(samples_per_hour=4, seed=77)
        hours, acc = generator.acceleration(0, scale=0.012)
        _, stress = generator.stress()

        assert check_compliance(bridge.limits, acc, stress).compliant
        assert detect_anomalies(hours, acc)  # the storm shows up

        monitor = BridgeMonitor(bridge)
        rng = np.random.default_rng(5)
        for _ in range(48):
            counts = {s: int(rng.poisson(2.0)) for s in "ABCDE"}
            monitor.update(counts)
        fractions = monitor.grade_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(g in ("A", "B") for g in fractions)  # sparse COVID deck


class TestDesignFlow:
    def test_shell_then_prism_then_hra_for_a_building(self):
        from repro.acoustics import design_resonator
        from repro.node import resin_shell

        concrete = get_concrete("UHPC")
        shell = resin_shell()
        assert shell.survives(120.0)

        prism = WavePrism(PLA, concrete.medium)
        angle = prism.recommend_angle()
        low, high = prism.critical_angles
        assert low < angle < high

        resonator = design_resonator(230e3, concrete.cs)
        assert resonator.resonant_frequency(concrete.cs) == pytest.approx(230e3)
