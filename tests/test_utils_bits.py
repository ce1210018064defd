"""Unit tests for repro.utils.bits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import (
    bits_to_int,
    int_to_bits,
    invert_bits,
    pack_positions,
    popcount,
    positions_to_mask,
)


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


class TestBitsToInt:
    def test_empty(self):
        assert bits_to_int(np.array([], dtype=np.uint8)) == 0

    def test_known_value(self):
        assert bits_to_int(np.array([0, 1, 1], dtype=np.uint8)) == 6

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 20)) == value


class TestPopcountAndMasks:
    def test_popcount(self):
        assert popcount(np.array([1, 0, 1, 1], dtype=np.uint8)) == 3

    def test_positions_to_mask(self):
        assert positions_to_mask([1, 3], 4).tolist() == [0, 1, 0, 1]

    def test_positions_to_mask_out_of_range(self):
        with pytest.raises(IndexError):
            positions_to_mask([4], 4)

    def test_pack_positions_roundtrip(self):
        mask = positions_to_mask([0, 2, 5], 6)
        assert pack_positions(mask) == (0, 2, 5)

    @given(st.sets(st.integers(min_value=0, max_value=31), max_size=10))
    def test_mask_pack_inverse(self, positions):
        mask = positions_to_mask(positions, 32)
        assert set(pack_positions(mask)) == positions


class TestInvertAndValidate:
    def test_invert(self):
        assert invert_bits(np.array([1, 0], dtype=np.uint8)).tolist() == [0, 1]

    def test_invert_is_involution(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert invert_bits(invert_bits(bits)).tolist() == bits.tolist()
