"""Property-based robustness tests (hypothesis) for the coding layers.

Two guarantees the fault-injection layer leans on, stated as
properties rather than examples:

* the Gen2 CRCs detect *every* contiguous burst error up to their
  degree (16 bits for CRC-16/CCITT, 5 for CRC-5) anywhere in the
  codeword -- this is what makes `uplink_ber` corruption surface as
  clean retries instead of silently wrong sensor values;
* the FM0 ML correlator decodes exactly through sample-level noise up
  to its correlation margin (fewer than ``samples_per_symbol / 4``
  inverted samples in any symbol).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CrcError
from repro.phy import Fm0Decoder, bipolar, fm0_encode_baseband as encode_baseband
from repro.protocol import append_crc16, crc5, crc16, verify_crc16

#: (value, width) payloads of 1 to 64 bits.
payloads = st.integers(1, 64).flatmap(
    lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
)


def burst_strategy(max_len):
    """(offset_fraction, burst) with the burst's end bits set, len <= max_len.

    The burst is a ``(pattern, length)`` pair: an int whose top and
    bottom bits (of ``length``) are both 1.
    """
    return st.tuples(
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(1, max_len).flatmap(
            lambda length: st.tuples(
                st.integers(0, (1 << length) - 1).map(
                    lambda inner, length=length: inner | 1 | (1 << (length - 1))
                ),
                st.just(length),
            )
        ),
    )


def burst_mask(width, offset_fraction, burst):
    """``burst`` placed in a ``width``-bit codeword at a scaled position."""
    pattern, length = burst
    span = width - length
    if span < 0:
        return None
    start = int(round(offset_fraction * span))  # bits from the MSB end
    return pattern << (span - start)


class TestCrcBurstDetection:
    @given(payload=payloads, burst=burst_strategy(16))
    @settings(max_examples=200, deadline=None)
    def test_crc16_detects_every_burst_up_to_degree(self, payload, burst):
        value, width = payload
        mask = burst_mask(width + 16, *burst)
        if mask is None:
            return
        with pytest.raises(CrcError):
            verify_crc16(append_crc16(value, width) ^ mask, width + 16)

    @given(payload=payloads, burst=burst_strategy(5))
    @settings(max_examples=200, deadline=None)
    def test_crc5_detects_every_burst_up_to_degree(self, payload, burst):
        value, width = payload
        mask = burst_mask(width + 5, *burst)
        if mask is None:
            return
        corrupted = ((value << 5) | crc5(value, width)) ^ mask
        assert crc5(corrupted >> 5, width) != corrupted & 0b11111

    @given(payload=payloads)
    @settings(max_examples=100, deadline=None)
    def test_clean_codewords_always_verify(self, payload):
        value, width = payload
        codeword = append_crc16(value, width)
        assert verify_crc16(codeword, width + 16) == value
        # Gen2's residue check: the CRC register run over a whole clean
        # codeword ends at 0x1D0F for CRC-16 and at 0 for CRC-5.
        assert crc16(codeword, width + 16) ^ 0xFFFF == 0x1D0F
        assert crc5((value << 5) | crc5(value, width), width + 5) == 0


class TestFm0RoundTrip:
    @given(
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=48),
        samples_per_symbol=st.sampled_from([4, 8, 12, 16]),
        initial_level=st.integers(0, 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_clean_round_trip(self, bits, samples_per_symbol, initial_level):
        waveform = bipolar(
            encode_baseband(bits, samples_per_symbol, initial_level)
        )
        decoder = Fm0Decoder(
            samples_per_symbol=samples_per_symbol,
            initial_level=initial_level,
        )
        assert decoder.decode(waveform) == bits

    @given(
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=32),
        samples_per_symbol=st.sampled_from([8, 12, 16]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_survives_sub_margin_sample_flips(
        self, bits, samples_per_symbol, data
    ):
        """Exact decode with < samples_per_symbol/4 inverted samples per
        symbol: the correct basis keeps a positive correlation margin
        over every competitor, so the ML decision cannot flip."""
        waveform = bipolar(encode_baseband(bits, samples_per_symbol))
        max_flips = (samples_per_symbol - 1) // 4  # strictly < n/4
        for symbol_index in range(len(bits)):
            n_flips = data.draw(
                st.integers(0, max_flips), label=f"flips[{symbol_index}]"
            )
            if n_flips == 0:
                continue
            positions = data.draw(
                st.lists(
                    st.integers(0, samples_per_symbol - 1),
                    min_size=n_flips,
                    max_size=n_flips,
                    unique=True,
                ),
                label=f"positions[{symbol_index}]",
            )
            for position in positions:
                waveform[symbol_index * samples_per_symbol + position] *= -1.0
        decoder = Fm0Decoder(samples_per_symbol=samples_per_symbol)
        assert decoder.decode(waveform) == bits

    def test_margin_is_tight(self):
        """At exactly n/4 inversions a symbol *can* tie/flip -- the
        sub-margin bound above is the strongest exact guarantee."""
        n = 8
        bits = [1, 1]
        waveform = bipolar(encode_baseband(bits, n))
        # Invert n/4 = 2 samples in the first half of symbol 0: the
        # bit-0 basis (which agrees on the second half after a phase
        # slip hypothesis) can now tie the bit-1 score.
        corrupted = waveform.copy()
        corrupted[0] *= -1.0
        corrupted[1] *= -1.0
        decoded = Fm0Decoder(samples_per_symbol=n).decode(corrupted)
        # Not asserting failure -- just that the decoder stays total
        # (no exception) at and beyond the margin.
        assert len(decoded) == len(bits)
