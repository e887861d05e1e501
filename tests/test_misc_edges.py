"""Edge-coverage tests across modules: paths the main suites skim over."""

import numpy as np
import pytest

from repro.errors import AcousticsError, DesignError, PowerError


class TestReaderAutoCarrier:
    def test_decode_with_estimated_carrier(self):
        """The receiver must decode without being told the carrier."""
        from repro.phy import BackscatterModulator
        from repro.reader import ReaderReceiver

        mod = BackscatterModulator(blf=10e3, bitrate=1e3)
        n = mod.samples_per_symbol(1e6) * 8
        t = np.arange(n) / 1e6
        cbw = np.sin(2 * np.pi * 230e3 * t)
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        capture = 0.5 * cbw + 0.05 * mod.reflect(cbw, bits, 1e6)
        receiver = ReaderReceiver(modulator=mod)
        assert receiver.decode(capture, len(bits)) == bits  # carrier=None


class TestTransducerEdges:
    def test_node_disc_lower_voltage_rating(self):
        from repro.transducer import node_disc, reader_tx_disc

        assert node_disc().max_voltage < reader_tx_disc().max_voltage

    def test_matching_network_detune_symmetype(self):
        from repro.transducer import MatchingNetwork

        match = MatchingNetwork(tuned_frequency=230e3)
        assert match.efficiency(230e3) > match.efficiency(150e3)
        with pytest.raises(DesignError):
            match.efficiency(0.0)

    def test_transmit_chain_rejects_nonpositive_request(self):
        from repro.transducer import TransmitChain, reader_tx_disc

        chain = TransmitChain(disc=reader_tx_disc())
        with pytest.raises(DesignError):
            chain.effective_drive_voltage(0.0, 230e3)


class TestChannelEdges:
    def test_direct_contact_channel_without_prism(self):
        from repro.acoustics import AcousticChannel, StructureGeometry
        from repro.materials import get_concrete

        wall = StructureGeometry(
            "wall", length=5.0, thickness=0.2,
            medium=get_concrete("NC").medium,
        )
        channel = AcousticChannel(structure=wall, max_bounces=5)
        assert channel.injection_gain == pytest.approx(0.9)
        assert channel.hra_gain == 1.0

    def test_spreading_model_derived_from_structure(self):
        from repro.acoustics import AcousticChannel, StructureGeometry
        from repro.materials import get_concrete

        nc = get_concrete("NC").medium
        thin = AcousticChannel(
            structure=StructureGeometry("t", 5.0, 0.15, nc), max_bounces=5
        )
        thick = AcousticChannel(
            structure=StructureGeometry("T", 5.0, 0.7, nc), max_bounces=5
        )
        assert thin.spreading.exponent < thick.spreading.exponent


class TestSessionTimingEdges:
    def test_slot_duration_components(self):
        from repro.link import SessionTiming
        from repro.phy import PieTiming

        timing = SessionTiming(
            pie=PieTiming(tari=100e-6, low=100e-6),
            uplink_bitrate=2e3,
            command_bits=10,
            reply_bits=20,
            turnaround=0.5e-3,
        )
        expected = 10 * (3 * 100e-6 + 100e-6) + 0.5e-3 + 20 / 2e3 + 0.5e-3
        assert timing.slot_duration == pytest.approx(expected)


class TestHarvesterEdges:
    def test_harvested_power_zero_below_regulation(self):
        from repro.circuits import EnergyHarvester

        harvester = EnergyHarvester()
        # Just above the diode drop but the pump output stays below the
        # LDO's minimum input.
        assert harvester.harvested_power(0.25) == 0.0

    def test_can_power_up_requires_both_conditions(self):
        from repro.circuits import EnergyHarvester, VoltageMultiplier

        # A single-stage pump cannot double 0.5 V past the LDO dropout.
        weak = EnergyHarvester(multiplier=VoltageMultiplier(stages=1))
        assert not weak.can_power_up(0.5)
        assert weak.can_power_up(1.2)


class TestProtocolEdges:
    def test_query_rep_in_ready_state_is_silent(self):
        from repro.protocol import NodeStateMachine, QueryRep

        node = NodeStateMachine(node_id=1, read_sensor=lambda c: 0.0, seed=0)
        assert node.handle(QueryRep()) is None
        assert node.state == "ready"

    def test_acknowledged_released_by_query_rep(self):
        from repro.protocol import Ack, NodeStateMachine, Query, QueryRep

        node = NodeStateMachine(node_id=1, read_sensor=lambda c: 0.0, seed=0)
        reply = node.handle(Query(q=0))
        node.handle(Ack(rn16=reply.rn16))
        node.handle(QueryRep())
        assert node.state == "ready"


class TestFrequencyResponseEdges:
    def test_rejects_nonpositive_quality(self):
        from repro.acoustics import ConcreteBlock, FrequencyResponse
        from repro.materials import get_concrete

        block = ConcreteBlock(get_concrete("NC"), 0.15)
        with pytest.raises(AcousticsError):
            FrequencyResponse(block, quality_factor=0.0)

    def test_higher_q_narrower_band(self):
        from repro.acoustics import ConcreteBlock, FrequencyResponse
        from repro.materials import get_concrete

        block = ConcreteBlock(get_concrete("NC"), 0.15)
        broad = FrequencyResponse(block, quality_factor=3.0)
        narrow = FrequencyResponse(block, quality_factor=12.0)
        f0 = broad.resonant_frequency
        off = f0 * 0.8
        assert narrow.gain(off) / narrow.gain(f0) < broad.gain(off) / broad.gain(f0)


class TestShellEdges:
    def test_displacement_grows_linearly_with_pressure(self):
        from repro.node import resin_shell

        shell = resin_shell()
        assert shell.radial_displacement(2e6) == pytest.approx(
            2.0 * shell.radial_displacement(1e6)
        )

    def test_zero_height_survives(self):
        from repro.node import resin_shell

        assert resin_shell().survives(0.0)

    def test_max_height_positive_density_required(self):
        from repro.node import max_building_height

        with pytest.raises(DesignError):
            max_building_height(1e6, concrete_density=0.0)


class TestCapsuleFieldEdges:
    def test_exact_activation_threshold_powers(self):
        from repro.node import EcoCapsule

        capsule = EcoCapsule(node_id=1, seed=0)
        assert capsule.apply_field(0.5)

    def test_power_budget_fails_when_dark(self):
        from repro.node import EcoCapsule

        capsule = EcoCapsule(node_id=1, seed=0)
        capsule.apply_field(0.0)
        assert not capsule.power_budget_ok(1e3)
