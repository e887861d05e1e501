"""Unit tests for CRC-5/CRC-16 and bit helpers."""

import pytest

from repro.errors import CrcError, ProtocolError
from repro.protocol import (
    append_crc16,
    bits_from_int,
    crc5,
    crc16,
    int_from_bits,
    verify_crc16,
)


class TestBitHelpers:
    def test_round_trip(self):
        for value, width in ((0, 4), (5, 4), (0xFFFF, 16), (0xABCD, 16)):
            assert int_from_bits(bits_from_int(value, width)) == value

    def test_big_endian(self):
        assert bits_from_int(0b1010, 4) == [1, 0, 1, 0]

    def test_rejects_overflow(self):
        with pytest.raises(ProtocolError):
            bits_from_int(16, 4)

    def test_rejects_negative(self):
        with pytest.raises(ProtocolError):
            bits_from_int(-1, 4)

    def test_rejects_non_binary_bits(self):
        with pytest.raises(ProtocolError):
            int_from_bits([0, 2, 1])


class TestCrc5:
    def test_length(self):
        for value, width in ((0b0101, 4), (0x3FF, 10), (0, 1)):
            assert 0 <= crc5(value, width) < 1 << 5

    def test_deterministic(self):
        assert crc5(0b1011001, 7) == crc5(0b1011001, 7)

    def test_sensitive_to_single_flip(self):
        body = 0b1011001010
        assert crc5(body, 10) != crc5(body ^ (1 << 6), 10)

    def test_rejects_non_binary(self):
        with pytest.raises(ProtocolError):
            crc5(0b100, 2)  # three bits do not fit a 2-bit frame
        with pytest.raises(ProtocolError):
            crc5(-1, 4)


class TestCrc16:
    def test_length(self):
        for value, width in ((0b101, 3), (0xFFFFFFFF, 32)):
            assert 0 <= crc16(value, width) < 1 << 16

    def test_round_trip(self):
        payload = 0b10110010
        assert verify_crc16(append_crc16(payload, 8), 24) == payload

    def test_detects_corruption(self):
        message = append_crc16(0b10110010, 8)
        with pytest.raises(CrcError):
            verify_crc16(message ^ (1 << (24 - 1 - 2)), 24)

    def test_detects_crc_corruption(self):
        message = append_crc16(0b1011, 4)
        with pytest.raises(CrcError):
            verify_crc16(message ^ 1, 20)

    def test_rejects_short_message(self):
        with pytest.raises(ProtocolError):
            verify_crc16(0xFFFF, 16)

    def test_detects_burst_errors(self):
        payload = int("01" * 16, 2)
        message = append_crc16(payload, 32)
        for start in range(0, 32 - 4):
            burst = 0b1111 << (48 - 4 - start)
            with pytest.raises(CrcError):
                verify_crc16(message ^ burst, 48)
