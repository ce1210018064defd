"""Dense linear algebra over GF(2): one elimination, a size-dispatched product.

Matrices are two-dimensional ``numpy`` arrays of dtype ``uint8`` containing
0/1 entries; vectors are one-dimensional.  All arithmetic is modulo 2.

This module is the mathematical core of the repository: the on-die ECC
encoder/decoder (:mod:`repro.ecc.linear_code`), the ground-truth at-risk-set
computation (:mod:`repro.analysis.atrisk`), and BEEP's data-pattern crafting
all reduce to GF(2) matrix operations exposed here.

Elimination (:func:`row_reduce`, which :func:`rank` and :func:`solve`
build on) packs each row into a Python integer and clears a pivot column
with whole-row integer XOR.  A Python int is already a word-packed bit
vector, so this one kernel serves every system the repo builds, from a
BCH parity-check matrix to a BEER recovery's few hundred constraints.

The product (:func:`matmul`) picks its kernel from the multiply-accumulate
count alone.  Below ``_AUTO_PACKED_WORK`` it widens to int64 and reduces
mod 2, which keeps a single-pattern encode cheap; at or above it, rows
pack 64 columns to a ``uint64`` word and every output bit is the parity
of a popcount (``np.bitwise_count``) of two ANDed rows, which wins on
batch encodes and syndrome batches.  Both kernels are exact, so their
outputs are bit-identical; tests force either one by moving the
threshold.  Inputs must be 0/1 arrays; use :func:`is_bit_matrix` to
validate untrusted data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "identity",
    "matmul",
    "row_reduce",
    "rank",
    "solve",
    "is_bit_matrix",
]

#: Minimum multiply-accumulate count (rows * inner * cols) before the
#: popcount product kernel beats the int64 path — below it, per-call
#: packing overhead dominates (measured crossover is near 2**14.5).
_AUTO_PACKED_WORK = 32768

#: Row-block size bounding the (block, n, words) popcount temporary.
_MATMUL_BLOCK = 4096


def is_bit_matrix(matrix: np.ndarray) -> bool:
    """True if ``matrix`` contains only 0/1 entries."""
    arr = np.asarray(matrix)
    if arr.dtype == np.bool_:
        return True
    if arr.dtype == np.uint8:
        # Single reduction, no boolean temporaries, on the hot
        # revalidation path.
        return arr.size == 0 or int(arr.max()) <= 1
    return bool(np.all((arr == 0) | (arr == 1)))


def _validated(matrix: np.ndarray, ndim: int) -> np.ndarray:
    if isinstance(matrix, np.ndarray) and matrix.dtype == np.uint8:
        if matrix.ndim != ndim:
            raise ValueError(
                f"expected a {ndim}-dimensional array, got shape {matrix.shape}"
            )
        return matrix
    arr = np.asarray(matrix, dtype=np.uint8)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    return arr


def identity(n: int) -> np.ndarray:
    """The n-by-n identity matrix over GF(2)."""
    return np.eye(n, dtype=np.uint8)


def _pack_words(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, cols)`` 0/1 matrix into ``(rows, ceil(cols/64))`` uint64.

    Bit ``i`` of word ``j`` is column ``64*j + i`` — the layout of
    :func:`_pack_rows`, cut into 64-bit words.
    """
    rows, cols = matrix.shape
    width = -(-cols // 64) * 64
    padded = np.zeros((rows, width), dtype=np.uint8)
    padded[:, :cols] = matrix
    return np.packbits(padded, axis=1, bitorder="little").view(np.dtype("<u8"))


def _matmul_popcount(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2) product as popcount parity over packed rows of ``A`` and ``B^T``."""
    a_words = _pack_words(a)
    bt_words = _pack_words(b.T)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.uint8)
    for start in range(0, a.shape[0], _MATMUL_BLOCK):
        block = a_words[start : start + _MATMUL_BLOCK]
        counts = np.bitwise_count(block[:, None, :] & bt_words[None, :, :])
        out[start : start + _MATMUL_BLOCK] = counts.sum(axis=2, dtype=np.uint64) & 1
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product modulo 2 (operands must be 0/1)."""
    a = _validated(a, 2)
    b = _validated(b, 2)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} @ {b.shape}")
    if a.shape[0] * a.shape[1] * b.shape[1] < _AUTO_PACKED_WORK:
        # Accumulate in a wide dtype to avoid uint8 overflow, then
        # reduce mod 2.
        return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)
    return _matmul_popcount(a, b)


def _pack_rows(matrix: np.ndarray) -> list[int]:
    """Pack each row into a Python integer (bit i = column i).

    Rows of up to 64 columns convert in one ``tolist`` of their
    :func:`_pack_words` word; wider rows take one little-endian
    ``np.packbits`` pass over the whole matrix, then a bytes-to-int
    conversion per row.
    """
    arr = np.ascontiguousarray(matrix, dtype=np.uint8)
    if arr.shape[1] == 0:
        return [0] * arr.shape[0]
    if arr.shape[1] <= 64:
        return _pack_words(arr)[:, 0].tolist()
    packed_bytes = np.packbits(arr, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed_bytes]


def _unpack_rows(packed: list[int], cols: int) -> np.ndarray:
    """Inverse of :func:`_pack_rows`."""
    num_bytes = (cols + 7) // 8
    if num_bytes == 0:
        return np.zeros((len(packed), 0), dtype=np.uint8)
    buffer = b"".join(value.to_bytes(num_bytes, "little") for value in packed)
    as_bytes = np.frombuffer(buffer, dtype=np.uint8).reshape(len(packed), num_bytes)
    return np.unpackbits(as_bytes, axis=1, bitorder="little", count=cols)


def row_reduce(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns ``(rref, pivot_columns)``.  ``matrix`` is not modified.
    Columns are scanned left to right; each takes the first unreduced row
    with a one in it as its pivot and is cleared from every other row.
    """
    arr = _validated(matrix, 2)
    rows, cols = arr.shape
    work = _pack_rows(arr)
    pivot_columns: list[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        mask = 1 << col
        source = next((r for r in range(pivot_row, rows) if work[r] & mask), None)
        if source is None:
            continue
        work[pivot_row], work[source] = work[source], work[pivot_row]
        pivot_value = work[pivot_row]
        for row in range(rows):
            if row != pivot_row and work[row] & mask:
                work[row] ^= pivot_value
        pivot_columns.append(col)
        pivot_row += 1
    return _unpack_rows(work, cols), pivot_columns


def rank(matrix: np.ndarray) -> int:
    """Rank of a matrix over GF(2)."""
    _, pivots = row_reduce(matrix)
    return len(pivots)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of ``A x = b`` over GF(2), or ``None`` if inconsistent.

    Free variables are set to zero, so the returned solution is the unique
    one whose support lies in the pivot columns.
    """
    a = _validated(a, 2)
    b = np.asarray(b, dtype=np.uint8).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: A has {a.shape[0]} rows, b has {b.shape[0]} entries")
    num_cols = a.shape[1]
    reduced, pivots = row_reduce(np.concatenate([a, b.reshape(-1, 1)], axis=1))
    if num_cols in pivots:
        return None
    solution = np.zeros(num_cols, dtype=np.uint8)
    for row_index, col in enumerate(pivots):
        solution[col] = reduced[row_index, num_cols]
    return solution
