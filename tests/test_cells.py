"""Unit tests for cell orientation."""

import numpy as np
import pytest
from randcases import random_cells

from repro.memory.cells import CellOrientation, all_true_cells, alternating_cells


class TestChargeSemantics:
    def test_true_cell_charged_when_one(self):
        orientation = all_true_cells(4)
        charged = orientation.charged_mask(np.array([1, 0, 1, 0], dtype=np.uint8))
        assert charged.tolist() == [1, 0, 1, 0]

    def test_anti_cell_charged_when_zero(self):
        orientation = CellOrientation(np.zeros(4, dtype=np.uint8))
        charged = orientation.charged_mask(np.array([1, 0, 1, 0], dtype=np.uint8))
        assert charged.tolist() == [0, 1, 0, 1]

    def test_alternating(self):
        orientation = alternating_cells(4)
        charged = orientation.charged_mask(np.ones(4, dtype=np.uint8))
        assert charged.tolist() == [1, 0, 1, 0]

    def test_batch_axis(self):
        orientation = all_true_cells(3)
        stored = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        assert orientation.charged_mask(stored).shape == (2, 3)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            all_true_cells(4).charged_mask(np.ones(5, dtype=np.uint8))

    def test_non_binary_mask(self):
        with pytest.raises(ValueError):
            CellOrientation(np.array([2, 0], dtype=np.int64))

    def test_random_cells_reproducible(self):
        a = random_cells(16, np.random.default_rng(0))
        b = random_cells(16, np.random.default_rng(0))
        assert (a.true_cell_mask == b.true_cell_mask).all()
