"""Unit tests for repro.utils.bits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import bits_to_int, int_to_bits, invert_bits


class TestIntToBits:
    def test_zero(self):
        assert int_to_bits(0, 4).tolist() == [0, 0, 0, 0]

    def test_little_endian_order(self):
        assert int_to_bits(0b1, 3).tolist() == [1, 0, 0]
        assert int_to_bits(0b100, 3).tolist() == [0, 0, 1]

    def test_zero_width(self):
        assert int_to_bits(0, 0).size == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_max_value_fits(self):
        assert int_to_bits(15, 4).tolist() == [1, 1, 1, 1]

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            int_to_bits(0, -1)

    def test_matches_per_bit_unpack(self):
        rng = np.random.default_rng(13)
        for k in (1, 7, 8, 9, 64, 100):
            bitmask = int(rng.integers(0, 1 << min(k, 62)))
            expected = np.array([(bitmask >> i) & 1 for i in range(k)], dtype=np.uint8)
            unpacked = int_to_bits(bitmask, k)
            assert unpacked.dtype == np.uint8
            assert np.array_equal(unpacked, expected)


class TestBitsToInt:
    def test_empty(self):
        assert bits_to_int(np.array([], dtype=np.uint8)) == 0

    def test_known_value(self):
        assert bits_to_int(np.array([0, 1, 1], dtype=np.uint8)) == 6

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 20)) == value


class TestInvertAndValidate:
    def test_invert(self):
        assert invert_bits(np.array([1, 0], dtype=np.uint8)).tolist() == [0, 1]

    def test_invert_is_involution(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert invert_bits(invert_bits(bits)).tolist() == bits.tolist()
