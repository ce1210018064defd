"""Logical bit addressing (paper §3.2).

The memory controller sees the *logical* address space: dataword bits only,
``k`` per ECC word.  Inside the chip, codewords occupy ``n = k + p`` bits
per word; the parity bits are invisible outside the chip.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AddressMap", "LogicalAddress"]


@dataclass(frozen=True)
class LogicalAddress:
    """A data bit as seen by the memory controller."""

    word_index: int
    bit_offset: int  # 0 <= bit_offset < k


class AddressMap:
    """Flattens logical bit addresses over a chip's ECC words.

    Args:
        k: data bits per ECC word.
        n: codeword bits per ECC word.
        num_words: number of ECC words in the chip.
    """

    def __init__(self, k: int, n: int, num_words: int) -> None:
        if not 0 < k <= n:
            raise ValueError(f"need 0 < k <= n, got k={k} n={n}")
        if num_words < 0:
            raise ValueError("num_words must be non-negative")
        self.k = k
        self.n = n
        self.num_words = num_words

    @property
    def logical_bits(self) -> int:
        return self.k * self.num_words

    def logical_to_flat(self, address: LogicalAddress) -> int:
        """Flat logical bit index over the whole chip."""
        self._check_logical(address)
        return address.word_index * self.k + address.bit_offset

    def _check_logical(self, address: LogicalAddress) -> None:
        if not 0 <= address.word_index < self.num_words:
            raise IndexError(f"word index {address.word_index} out of range")
        if not 0 <= address.bit_offset < self.k:
            raise IndexError(f"logical bit offset {address.bit_offset} out of range [0, {self.k})")
