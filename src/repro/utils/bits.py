"""Bit-vector helpers shared by the ECC and memory substrates.

Bit vectors are represented as one-dimensional ``numpy`` arrays of dtype
``uint8`` containing only 0/1 values.  Index 0 is the least-significant bit
when converting to and from Python integers, which matches the column
indexing convention used by :mod:`repro.ecc`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "int_to_bits",
    "bits_to_int",
    "invert_bits",
]


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Convert a non-negative integer to a little-endian bit array.

    Vectorized (bytes -> ``np.unpackbits``): it turns every crafted
    dataword a profiler writes as an array back into bits.

    >>> int_to_bits(0b1011, 4).tolist()
    [1, 1, 0, 1]
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    # A negative width fails this shift with "negative shift count".
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    buffer = value.to_bytes((width + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(buffer, dtype=np.uint8), count=width, bitorder="little")


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


def invert_bits(bits: np.ndarray) -> np.ndarray:
    """Return the bitwise complement of a 0/1 array."""
    arr = np.asarray(bits, dtype=np.uint8)
    return (1 - arr).astype(np.uint8)

