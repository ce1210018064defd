"""DRAM cell orientation model.

DRAM arrays mix *true cells* (charged when storing logical 1) and
*anti cells* (charged when storing logical 0).  Data-retention errors
discharge cells, so a cell can only fail when it holds charge.  The paper
assumes all true cells (§7.1.2, consistent with [96, 145]); the anti-cell
support here is an extension used to stress data-dependence handling.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CellOrientation", "all_true_cells", "alternating_cells"]


class CellOrientation:
    """Per-bit cell orientation for one codeword geometry.

    Args:
        true_cell_mask: ``(n,)`` 0/1 array; 1 marks a true cell.
    """

    def __init__(self, true_cell_mask: np.ndarray) -> None:
        mask = np.asarray(true_cell_mask, dtype=np.uint8)
        if mask.ndim != 1:
            raise ValueError("orientation mask must be one-dimensional")
        if mask.size and not np.all((mask == 0) | (mask == 1)):
            raise ValueError("orientation mask must contain only 0/1")
        self._mask = mask

    @property
    def n(self) -> int:
        return int(self._mask.shape[0])

    @property
    def true_cell_mask(self) -> np.ndarray:
        return self._mask

    def charged_mask(self, stored_bits: np.ndarray) -> np.ndarray:
        """Which cells hold charge given the stored codeword bits.

        True cells are charged when storing 1, anti cells when storing 0.
        Accepts ``(n,)`` or ``(batch, n)`` arrays.
        """
        bits = np.asarray(stored_bits, dtype=np.uint8)
        if bits.shape[-1] != self.n:
            raise ValueError(f"stored bits length {bits.shape[-1]} != n={self.n}")
        return np.where(self._mask.astype(bool), bits, 1 - bits).astype(np.uint8)


def all_true_cells(n: int) -> CellOrientation:
    """The paper's default: every cell is a true cell."""
    return CellOrientation(np.ones(n, dtype=np.uint8))


def alternating_cells(n: int) -> CellOrientation:
    """Alternating true/anti cells (a common real-DRAM layout)."""
    return CellOrientation((np.arange(n) % 2 == 0).astype(np.uint8))
