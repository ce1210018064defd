"""Bit-vector helpers shared by the ECC and memory substrates.

Bit vectors are represented as one-dimensional ``numpy`` arrays of dtype
``uint8`` containing only 0/1 values.  Index 0 is the least-significant bit
when converting to and from Python integers, which matches the column
indexing convention used by :mod:`repro.ecc`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = [
    "int_to_bits",
    "bits_to_int",
    "popcount",
    "positions_to_mask",
    "pack_positions",
    "invert_bits",
]


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Convert a non-negative integer to a little-endian bit array.

    >>> int_to_bits(0b1011, 4).tolist()
    [1, 1, 0, 1]
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits: np.ndarray) -> int:
    """Convert a little-endian bit array to a Python integer.

    >>> bits_to_int(np.array([1, 1, 0, 1], dtype=np.uint8))
    11
    """
    result = 0
    for index, bit in enumerate(np.asarray(bits, dtype=np.uint8)):
        if bit:
            result |= 1 << index
    return result


def popcount(bits: np.ndarray) -> int:
    """Number of set bits in a bit array."""
    return int(np.count_nonzero(np.asarray(bits)))


def positions_to_mask(positions: Iterable[int], width: int) -> np.ndarray:
    """Build a bit array of ``width`` with ones at the given positions.

    >>> positions_to_mask([0, 3], 5).tolist()
    [1, 0, 0, 1, 0]
    """
    mask = np.zeros(width, dtype=np.uint8)
    for position in positions:
        if not 0 <= position < width:
            raise IndexError(f"position {position} out of range [0, {width})")
        mask[position] = 1
    return mask


def pack_positions(bits: np.ndarray) -> tuple[int, ...]:
    """Return the sorted positions of set bits as a tuple.

    >>> pack_positions(np.array([1, 0, 0, 1, 0], dtype=np.uint8))
    (0, 3)
    """
    return tuple(int(i) for i in np.flatnonzero(np.asarray(bits)))


def invert_bits(bits: np.ndarray) -> np.ndarray:
    """Return the bitwise complement of a 0/1 array."""
    arr = np.asarray(bits, dtype=np.uint8)
    return (1 - arr).astype(np.uint8)

