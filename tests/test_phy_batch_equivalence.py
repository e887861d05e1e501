"""Scalar-vs-batched PHY equivalence harness (hypothesis property tests).

The contract under test (see ``docs/PERFORMANCE.md``): the float64
batch kernels in ``repro.phy.batch`` are **bit-identical** to the
scalar reference in ``repro.phy.fm0`` -- encoded levels, waveforms,
matched-filter decisions and end-to-end Monte-Carlo BERs all match
exactly, across random seeds, SNRs, frame lengths and trial counts,
including degenerate shapes (0 trials, 1 symbol).

``scripts/ci.sh`` runs this file again under ``PYTHONHASHSEED`` 0 and
31337, next to ``tests/test_batch_golden_regression.py``: any divergence
beyond the documented tolerances is a release blocker.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, EncodingError
from repro.link.simulation import UplinkBasebandSimulator
from repro.phy import (
    Fm0BatchDecoder,
    Fm0Decoder,
    bipolar,
    default_engine,
    encode_baseband_batch,
    encode_levels_batch,
    fm0_encode_baseband,
    fm0_encode_levels,
    matched_filter_bank,
    use_engine,
)
from repro.phy.batch import EngineError

bit_frames = st.lists(st.integers(0, 1), min_size=1, max_size=96)
sps_strategy = st.sampled_from([2, 4, 6, 10, 16])
levels_strategy = st.sampled_from([0, 1])


def random_bit_matrix(seed, trials, symbols):
    return np.random.default_rng(seed).integers(0, 2, size=(trials, symbols))


class TestEncodeEquivalence:
    @given(bits=bit_frames, initial=levels_strategy)
    @settings(max_examples=120, deadline=None)
    def test_levels_match_scalar_exactly(self, bits, initial):
        scalar = fm0_encode_levels(bits, initial_level=initial)
        batch = encode_levels_batch(bits, initial_level=initial)
        assert batch.shape == (1, len(bits), 2)
        assert [tuple(pair) for pair in batch[0].tolist()] == scalar

    @given(bits=bit_frames, sps=sps_strategy, initial=levels_strategy)
    @settings(max_examples=120, deadline=None)
    def test_baseband_bit_identical(self, bits, sps, initial):
        scalar = fm0_encode_baseband(bits, sps, initial_level=initial)
        batch = encode_baseband_batch(bits, sps, initial_level=initial)
        # Bit-identical, not just allclose: same values, same dtype.
        assert batch.dtype == scalar.dtype == np.float64
        assert np.array_equal(batch[0], scalar)

    @given(
        seed=st.integers(0, 2**31),
        trials=st.integers(1, 12),
        symbols=st.integers(1, 48),
        sps=sps_strategy,
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_rows_match_per_frame_encode(
        self, seed, trials, symbols, sps
    ):
        matrix = random_bit_matrix(seed, trials, symbols)
        batch = encode_baseband_batch(matrix, sps)
        for row in range(trials):
            assert np.array_equal(
                batch[row], fm0_encode_baseband(list(matrix[row]), sps)
            )

    def test_degenerate_shapes(self):
        assert encode_levels_batch(np.zeros((0, 5), dtype=int)).shape == (0, 5, 2)
        assert encode_levels_batch(np.zeros((3, 0), dtype=int)).shape == (3, 0, 2)
        assert encode_baseband_batch(np.zeros((0, 5), dtype=int), 4).shape == (0, 20)
        one = encode_baseband_batch([1], 4)
        assert np.array_equal(one[0], fm0_encode_baseband([1], 4))

    def test_rejects_what_the_scalar_rejects(self):
        with pytest.raises(EncodingError):
            encode_levels_batch([0, 2, 1])
        with pytest.raises(EncodingError):
            encode_levels_batch([0, 1], initial_level=7)
        with pytest.raises(EncodingError):
            encode_baseband_batch([0, 1], 3)
        with pytest.raises(EncodingError):
            encode_levels_batch(np.zeros((2, 2, 2), dtype=int))


class TestFilterBank:
    @given(sps=sps_strategy)
    @settings(max_examples=10, deadline=None)
    def test_bank_matches_scalar_basis_stacking(self, sps):
        decoder = Fm0Decoder(samples_per_symbol=sps)
        stacked = np.stack(
            [
                decoder._bases[0][0],
                decoder._bases[0][1],
                decoder._bases[1][0],
                decoder._bases[1][1],
            ]
        )
        assert np.array_equal(matched_filter_bank(sps), stacked)

    def test_bank_is_cached_and_frozen(self):
        bank = matched_filter_bank(10)
        assert bank is matched_filter_bank(10)
        with pytest.raises(ValueError):
            bank[0, 0] = 5.0


class TestDecodeEquivalence:
    @given(
        seed=st.integers(0, 2**31),
        trials=st.integers(1, 10),
        symbols=st.integers(1, 40),
        sps=sps_strategy,
        snr_db=st.floats(min_value=-4.0, max_value=14.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_noisy_decode_bit_identical(
        self, seed, trials, symbols, sps, snr_db
    ):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(trials, symbols))
        clean = bipolar(encode_baseband_batch(matrix, sps))
        sigma = 10.0 ** (-snr_db / 20.0)
        noisy = clean + rng.normal(0.0, sigma, size=clean.shape)

        batch_bits = Fm0BatchDecoder(samples_per_symbol=sps).decode(noisy)
        scalar = Fm0Decoder(samples_per_symbol=sps)
        for row in range(trials):
            assert batch_bits[row].tolist() == scalar.decode(noisy[row])

    @given(
        seed=st.integers(0, 2**31),
        symbols=st.integers(1, 64),
        initial=levels_strategy,
    )
    @settings(max_examples=60, deadline=None)
    def test_clean_roundtrip_recovers_payload(self, seed, symbols, initial):
        matrix = random_bit_matrix(seed, 3, symbols)
        clean = bipolar(encode_baseband_batch(matrix, 10, initial_level=initial))
        decoded = Fm0BatchDecoder(
            samples_per_symbol=10, initial_level=initial
        ).decode(clean)
        assert np.array_equal(decoded, matrix)

    def test_degenerate_shapes(self):
        decoder = Fm0BatchDecoder(samples_per_symbol=4)
        assert decoder.decode(np.zeros((0, 12))).shape == (0, 3)
        assert decoder.decode(np.zeros((5, 0))).shape == (5, 0)
        one_symbol = bipolar(encode_baseband_batch([[1]], 4))
        assert decoder.decode(one_symbol).tolist() == [[1]]

    def test_single_frame_1d_input(self):
        wave = bipolar(fm0_encode_baseband([1, 0, 1], 6))
        assert Fm0BatchDecoder(samples_per_symbol=6).decode(wave).tolist() == [
            [1, 0, 1]
        ]

    def test_rejects_bad_shapes(self):
        decoder = Fm0BatchDecoder(samples_per_symbol=4)
        with pytest.raises(DecodingError):
            decoder.decode(np.zeros((2, 10)))  # not a whole symbol count
        with pytest.raises(DecodingError):
            decoder.decode(np.zeros((2, 2, 4)))
        with pytest.raises(DecodingError):
            Fm0BatchDecoder(samples_per_symbol=5)
        with pytest.raises(DecodingError):
            Fm0BatchDecoder(samples_per_symbol=4, initial_level=3)


class TestEngineDispatch:
    def test_default_engine_is_batch(self):
        assert default_engine() == "batch"

    def test_use_engine_nests_and_restores(self):
        with use_engine("scalar"):
            assert default_engine() == "scalar"
            with use_engine("batch"):
                assert default_engine() == "batch"
            assert default_engine() == "scalar"
        assert default_engine() == "batch"

    def test_use_engine_restores_when_its_block_raises(self):
        with pytest.raises(RuntimeError):
            with use_engine("scalar"):
                raise RuntimeError("boom")
        assert default_engine() == "batch"

    def test_unknown_engine_rejected(self):
        entered = []
        for name in ("vector", "batch-float32"):
            with pytest.raises(EngineError):
                with use_engine(name):
                    entered.append(name)
        assert entered == []
        assert default_engine() == "batch"


class TestSimulatorEquivalence:
    @given(
        seed=st.integers(0, 2**31),
        snr_db=st.floats(min_value=-2.0, max_value=10.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_measure_ber_byte_identical(self, seed, snr_db):
        """The headline contract: same seed, same BER, to the last bit."""
        with use_engine("scalar"):
            scalar = UplinkBasebandSimulator(seed=seed).measure_ber(
                snr_db, total_bits=1_200, packet_bits=60
            )
        with use_engine("batch"):
            batch = UplinkBasebandSimulator(seed=seed).measure_ber(
                snr_db, total_bits=1_200, packet_bits=60
            )
        assert scalar == batch  # byte-identical, no tolerance
