"""Dense linear algebra over GF(2) — the tier-dispatching facade.

Matrices are two-dimensional ``numpy`` arrays of dtype ``uint8`` containing
0/1 entries; vectors are one-dimensional.  All arithmetic is modulo 2.

This module is the mathematical core of the repository: the on-die ECC
encoder/decoder (:mod:`repro.ecc.linear_code`), the ground-truth at-risk-set
computation (:mod:`repro.analysis.atrisk`), and BEEP's data-pattern crafting
all reduce to GF(2) matrix operations exposed here.

Kernel tiers
============

Two interchangeable kernel tiers implement elimination (``row_reduce``,
which ``rank`` / ``solve`` / ``is_consistent`` / ``nullspace`` build on)
and the products (``matmul`` / ``matvec``):

``unpacked``
    The reference tier kept in this module: rows packed into Python
    integers, per-column pivot scan, whole-row integer XOR.  Lowest
    constant overhead — wins on the small parity-check-shaped systems
    that dominate unit tests and single solves.

``packed``
    The word-parallel tier in :mod:`repro.ecc.gf2w`: rows packed 64
    columns per ``uint64`` word, elimination as broadcast XOR over all
    rows at once.  Wins as matrices grow (reverse engineering, BEEP
    crafted-pattern batches, wide ground-truth systems).

Both tiers use the *same pivot-selection order* (first unreduced row with
a one in the leftmost eligible column, eliminated from every row), so
their outputs are bit-identical for every input — dispatch is purely a
performance decision and every downstream exhibit is tier-independent.

Dispatch reads the operand size alone.  Elimination takes ``packed``
when the operand has at least ``_AUTO_PACKED_SIZE`` entries (a measured
crossover — Python-int rows are themselves word-packed, so the packed
kernel's per-column numpy overhead only amortizes on large systems) and
``unpacked`` below.  Matrix products (``matmul`` / ``matvec``) dispatch
on the product's multiply-accumulate count instead: the packed
XOR+popcount kernel (``np.packbits`` packing plus ``np.bitwise_count``)
pays a per-call packing cost that only amortizes once the product does
at least ``_AUTO_PACKED_WORK`` bit-operations, so single-pattern encodes
stay on the historical widen-to-int64-then-mod path and batch encodes
take the popcount kernel.  Tests pin either tier by moving these two
thresholds.  Inputs must be 0/1 arrays; use :func:`is_bit_matrix` to
validate untrusted data.
"""

from __future__ import annotations

import numpy as np

from repro.ecc import gf2w

__all__ = [
    "identity",
    "zeros",
    "matmul",
    "matvec",
    "add",
    "row_reduce",
    "rank",
    "solve",
    "is_consistent",
    "nullspace",
    "is_bit_matrix",
]

#: Operand size (entries) at which elimination switches to the packed
#: tier.  Below it the integer-row reference has lower constant overhead:
#: the packed kernel's per-column numpy dispatch needs whole-matrix XOR
#: width to amortize (measured crossover is near 256x256; the win grows
#: with row count from there).
_AUTO_PACKED_SIZE = 65536

#: Minimum multiply-accumulate count (rows * inner * cols) before the
#: popcount product kernel beats the int64 path — below it, per-call
#: packing overhead dominates (measured crossover is near 2**14.5).
_AUTO_PACKED_WORK = 32768


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


def zeros(rows: int, cols: int) -> np.ndarray:
    """A rows-by-cols zero matrix."""
    return np.zeros((rows, cols), dtype=np.uint8)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product modulo 2 (operands must be 0/1)."""
    a = _validated(a, 2)
    b = _validated(b, 2)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} @ {b.shape}")
    if a.shape[0] * a.shape[1] * b.shape[1] < _AUTO_PACKED_WORK:
        # Historical reference path: accumulate in a wide dtype to avoid
        # uint8 overflow, then reduce mod 2.
        return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)
    return gf2w.matmul(a, b)


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product modulo 2."""
    a = _validated(a, 2)
    v = np.asarray(v, dtype=np.uint8).reshape(-1)
    if v.shape[0] != a.shape[1]:
        raise ValueError(f"shape mismatch for matvec: {a.shape} @ {v.shape}")
    if a.shape[0] * a.shape[1] < _AUTO_PACKED_WORK:
        return (a.astype(np.int64) @ v.astype(np.int64) % 2).astype(np.uint8)
    return gf2w.matvec(a, v)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum modulo 2 (XOR)."""
    return np.bitwise_xor(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


def _pack_rows(matrix: np.ndarray) -> list[int]:
    """Pack each row into a Python integer (bit i = column i).

    Vectorized via ``np.packbits``: one little-endian byte pass over the
    whole matrix, then a bytes-to-int conversion per row.
    """
    arr = np.ascontiguousarray(matrix, dtype=np.uint8)
    if arr.shape[1] == 0:
        return [0] * arr.shape[0]
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


def _row_reduce_unpacked(arr: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reference elimination: Python-int rows, per-column pivot scan."""
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


def row_reduce(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns ``(rref, pivot_columns)``.  ``matrix`` is not modified.
    Dispatches between the kernel tiers (module docstring); both produce
    bit-identical output.
    """
    arr = _validated(matrix, 2)
    if arr.size >= _AUTO_PACKED_SIZE:
        return gf2w.row_reduce(arr)
    return _row_reduce_unpacked(arr)


def rank(matrix: np.ndarray) -> int:
    """Rank of a matrix over GF(2)."""
    _, pivots = row_reduce(matrix)
    return len(pivots)


def _reduced_augmented(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[int], int]:
    a = _validated(a, 2)
    b = np.asarray(b, dtype=np.uint8).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: A has {a.shape[0]} rows, b has {b.shape[0]} entries")
    augmented = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    reduced, pivots = row_reduce(augmented)
    return reduced, pivots, a.shape[1]


def is_consistent(a: np.ndarray, b: np.ndarray) -> bool:
    """True if the linear system ``A x = b`` has at least one solution."""
    _, pivots, num_cols = _reduced_augmented(a, b)
    return num_cols not in pivots


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of ``A x = b`` over GF(2), or ``None`` if inconsistent.

    Free variables are set to zero, so the returned solution is the unique
    one whose support lies in the pivot columns.
    """
    reduced, pivots, num_cols = _reduced_augmented(a, b)
    if num_cols in pivots:
        return None
    solution = np.zeros(num_cols, dtype=np.uint8)
    for row_index, col in enumerate(pivots):
        solution[col] = reduced[row_index, num_cols]
    return solution


def nullspace(matrix: np.ndarray) -> np.ndarray:
    """A basis of the right nullspace, one basis vector per row.

    Returns a ``(dim, cols)`` array; ``dim`` may be zero.
    """
    a = _validated(matrix, 2)
    reduced, pivots = row_reduce(a)
    cols = a.shape[1]
    free_columns = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free_columns), cols), dtype=np.uint8)
    for basis_index, free_col in enumerate(free_columns):
        basis[basis_index, free_col] = 1
        for row_index, pivot_col in enumerate(pivots):
            if reduced[row_index, free_col]:
                basis[basis_index, pivot_col] = 1
    return basis
