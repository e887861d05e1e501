"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustics import (
    SpreadingModel,
    reflection_coefficient,
    refract,
    transmission_energy_fraction,
)
from repro.materials import PLA, Medium, get_concrete, lame_parameters
from repro.phy import (
    Fm0Decoder,
    PieTiming,
    bipolar,
    decode_intervals,
    duty_cycle,
    fm0_encode_baseband,
    fm0_encode_levels,
    pie_encode,
)
from repro.protocol import (
    append_crc16,
    bits_from_int,
    int_from_bits,
    verify_crc16,
)
from repro.shm import grade, pedestrian_area_occupancy

NC = get_concrete("NC").medium

bits_strategy = st.lists(st.integers(0, 1), min_size=1, max_size=128)
#: (value, width) frames of 1 to 128 bits.
frame_strategy = st.integers(1, 128).flatmap(
    lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
)


class TestBoundaryInvariants:
    @given(st.floats(min_value=0.0, max_value=79.0))
    @settings(max_examples=80, deadline=None)
    def test_energy_conservation(self, angle_deg):
        result = refract(PLA, NC, math.radians(angle_deg))
        total = result.reflected_energy + result.p_energy + result.s_energy
        assert total == pytest.approx(1.0, abs=1e-6)
        assert result.reflected_energy >= -1e-12
        assert result.p_energy >= -1e-12
        assert result.s_energy >= -1e-12

    @given(
        st.floats(min_value=1e3, max_value=1e8),
        st.floats(min_value=1e3, max_value=1e8),
    )
    @settings(max_examples=50, deadline=None)
    def test_reflection_antisymmetric_and_bounded(self, z1, z2):
        r = reflection_coefficient(z1, z2)
        assert -1.0 < r < 1.0
        assert r == pytest.approx(-reflection_coefficient(z2, z1))
        assert r * r + transmission_energy_fraction(z1, z2) == pytest.approx(1.0)


class TestMaterialInvariants:
    @given(
        st.floats(min_value=1e8, max_value=5e11),
        st.floats(min_value=-0.4, max_value=0.45),
        st.floats(min_value=500.0, max_value=9000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_derived_velocities_ordered(self, modulus, poisson, density):
        medium = Medium.from_elastic_moduli("x", density, modulus, poisson)
        assert medium.cp > medium.cs > 0.0

    @given(st.floats(min_value=1e8, max_value=5e11),
           st.floats(min_value=-0.4, max_value=0.45))
    @settings(max_examples=60, deadline=None)
    def test_lame_mu_positive(self, modulus, poisson):
        _, mu = lame_parameters(modulus, poisson)
        assert mu > 0.0


class TestSpreadingInvariants:
    @given(
        st.floats(min_value=0.35, max_value=1.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_gain_bounded_and_monotone(self, exponent, distance):
        model = SpreadingModel(exponent=exponent)
        gain = model.amplitude_gain(distance)
        assert 0.0 < gain <= 1.0
        assert model.amplitude_gain(distance + 1.0) <= gain


class TestPieInvariants:
    @given(bits_strategy)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, bits):
        timing = PieTiming()
        assert decode_intervals(pie_encode(bits, timing), timing) == bits

    @given(bits_strategy)
    @settings(max_examples=80, deadline=None)
    def test_duty_cycle_at_least_half(self, bits):
        # The paper's power-delivery guarantee: >= 50 % of peak power.
        assert duty_cycle(bits) >= 0.5 - 1e-12

    @given(bits_strategy)
    @settings(max_examples=50, deadline=None)
    def test_segment_count(self, bits):
        assert len(pie_encode(bits)) == 2 * len(bits)


class TestFm0Invariants:
    @given(bits_strategy, st.sampled_from([2, 4, 8, 10]))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, bits, spb):
        waveform = bipolar(fm0_encode_baseband(bits, spb))
        decoder = Fm0Decoder(samples_per_symbol=spb)
        assert decoder.decode(waveform) == bits

    @given(bits_strategy)
    @settings(max_examples=60, deadline=None)
    def test_boundary_always_inverts(self, bits):
        pairs = fm0_encode_levels(bits)
        previous_end = 1  # initial level
        for bit, (first, second) in zip(bits, pairs):
            assert first == 1 - previous_end  # boundary inversion
            if bit == 0:
                assert second == 1 - first  # mid-symbol inversion
            else:
                assert second == first
            previous_end = second

    @given(bits_strategy, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_decoder_resists_moderate_noise(self, bits, seed):
        rng = np.random.default_rng(seed)
        waveform = bipolar(fm0_encode_baseband(bits, 10))
        noisy = waveform + rng.normal(0.0, 0.3, size=waveform.size)
        decoded = Fm0Decoder(samples_per_symbol=10).decode(noisy)
        errors = sum(1 for a, b in zip(decoded, bits) if a != b)
        assert errors <= max(1, len(bits) // 20)


class TestCrcInvariants:
    @given(frame_strategy)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, frame):
        value, width = frame
        assert verify_crc16(append_crc16(value, width), width + 16) == value

    @given(frame_strategy, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_single_bit_flip_always_detected(self, frame, position):
        from repro.errors import CrcError

        value, width = frame
        message = append_crc16(value, width)
        index = position % (width + 16)
        with pytest.raises(CrcError):
            verify_crc16(message ^ (1 << index), width + 16)

    @given(st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=60, deadline=None)
    def test_bits_int_round_trip(self, value):
        assert int_from_bits(bits_from_int(value, 16)) == value


class TestPaoInvariants:
    @given(
        st.floats(min_value=1.0, max_value=1000.0),
        st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_more_people_never_improves_grade(self, area, people):
        from repro.shm import GRADES

        sparse = grade(pedestrian_area_occupancy(area, people))
        crowded = grade(pedestrian_area_occupancy(area, people + 1))
        assert GRADES.index(crowded) >= GRADES.index(sparse)

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.sampled_from(["united_states", "hong_kong", "bangkok", "manila"]))
    @settings(max_examples=80, deadline=None)
    def test_grade_always_defined(self, pao, region):
        assert grade(pao, region) in "ABCDEF"


class TestShellInvariants:
    @given(st.floats(min_value=0.0015, max_value=0.01))
    @settings(max_examples=40, deadline=None)
    def test_thicker_is_stronger(self, thickness):
        from repro.node import SphericalShell

        shell = SphericalShell(thickness=thickness)
        thicker = SphericalShell(thickness=thickness * 1.2)
        assert thicker.max_pressure > shell.max_pressure
        assert thicker.max_height() > shell.max_height()

    @given(st.floats(min_value=0.0, max_value=300.0))
    @settings(max_examples=60, deadline=None)
    def test_survival_consistent_with_utilisation(self, height):
        from repro.node import resin_shell

        shell = resin_shell()
        assert shell.survives(height) == (shell.utilisation(height) <= 1.0)


class TestHarvesterInvariants:
    @given(st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_cold_start_positive_and_bounded(self, voltage):
        from repro.circuits import EnergyHarvester

        harvester = EnergyHarvester()
        t = harvester.cold_start_time(voltage)
        assert 0.0 < t <= 0.056

    @given(
        st.floats(min_value=0.5, max_value=10.0),
        st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_more_field_never_slower(self, voltage, extra):
        from repro.circuits import EnergyHarvester

        harvester = EnergyHarvester()
        assert harvester.cold_start_time(voltage + extra) <= harvester.cold_start_time(
            voltage
        )
