"""Unit tests for MemoryArray and AddressMap."""

import numpy as np
import pytest

from repro.memory.address import AddressMap, LogicalAddress
from repro.memory.array import MemoryArray


class TestMemoryArray:
    def test_roundtrip(self):
        array = MemoryArray(4, 8)
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        array.write(2, bits)
        assert (array.read(2) == bits).all()

    def test_read_returns_copy(self):
        array = MemoryArray(1, 4)
        array.write(0, np.ones(4, dtype=np.uint8))
        view = array.read(0)
        view[0] = 0
        assert array.read(0)[0] == 1

    def test_flip(self):
        array = MemoryArray(1, 4)
        array.flip(0, [1, 3])
        assert array.read(0).tolist() == [0, 1, 0, 1]

    def test_bounds(self):
        array = MemoryArray(2, 4)
        with pytest.raises(IndexError):
            array.read(2)
        with pytest.raises(IndexError):
            array.flip(0, [4])
        with pytest.raises(ValueError):
            array.write(0, np.ones(5, dtype=np.uint8))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            MemoryArray(1, 0)

    def test_total_bits(self):
        assert MemoryArray(3, 8).total_bits == 24


class TestAddressMap:
    @pytest.fixture
    def address_map(self):
        return AddressMap(k=64, n=71, num_words=10)

    def test_sizes(self, address_map):
        assert address_map.logical_bits == 640

    def test_bounds(self, address_map):
        with pytest.raises(IndexError):
            address_map.logical_to_flat(LogicalAddress(0, 64))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            AddressMap(k=8, n=4, num_words=1)
