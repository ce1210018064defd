"""Word-parallel (bit-packed) GF(2) linear algebra — the packed kernel tier.

The kernels here back :mod:`repro.ecc.gf2`'s elimination and products on
large operands, plus the multi-RHS :func:`solve_many`.  They work on
matrices packed 64 columns to a ``uint64`` word: bit ``i``
of word ``j`` holds column ``64*j + i`` (little-endian within the word,
words ascending).  A ``(rows, cols)`` byte-per-bit matrix becomes a
``(rows, ceil(cols/64))`` word matrix, so the XOR inner loop of Gaussian
elimination touches 64 columns per machine word and the whole row set per
``numpy`` operation::

    columns          0 ........ 63   64 ....... 127  128 ...
    packed row       [  word 0    ]  [  word 1    ]  [ word 2 ...
                      bit 0 = col 0   bit 0 = col 64

Packing goes through ``np.packbits(..., bitorder="little")`` and a
``uint64`` view, so pack/unpack are single vectorized passes; matrix
products use XOR + popcount (``np.bitwise_count``) over the packed words
instead of wide-integer accumulation.

Determinism contract
====================

The packed kernels follow the exact pivot-selection order of the
unpacked reference (scan columns left to right, take the first unreduced
row with a one in the pivot column), so :func:`row_reduce`,
:func:`matmul` and :func:`matvec` are *bit-identical* to the reference
tier for every input, and :func:`solve_many` to a per-plane
:func:`repro.ecc.gf2.solve` loop — the facade in :mod:`repro.ecc.gf2`
dispatches between the tiers on operand size alone on that basis.
``tests/test_gf2w.py`` property-tests the equivalence over rectangular,
rank-deficient, and multi-word (>64-column) matrices.

The charge solvers of :mod:`repro.analysis.atrisk` do not use this tier:
their constraint rows span at most ``k`` columns, where a Python integer
already is a packed bit vector.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "words_for",
    "pack_rows",
    "unpack_rows",
    "pack_vector",
    "row_reduce_packed",
    "row_reduce",
    "solve_many",
    "matmul",
    "matmul_packed",
    "matvec",
]

#: Columns per packed word.
WORD_BITS = 64

_ONE = np.uint64(1)


def words_for(cols: int) -> int:
    """Packed words needed to hold ``cols`` columns."""
    return (int(cols) + WORD_BITS - 1) // WORD_BITS


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, cols)`` 0/1 matrix into ``(rows, words)`` uint64.

    Bit ``i`` of word ``j`` is column ``64*j + i``.  Always returns a
    fresh, writable array.
    """
    arr = np.ascontiguousarray(matrix, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-dimensional array, got shape {arr.shape}")
    rows, cols = arr.shape
    width = words_for(cols) * WORD_BITS
    if width != cols:
        padded = np.zeros((rows, width), dtype=np.uint8)
        padded[:, :cols] = arr
        arr = padded
    packed_bytes = np.packbits(arr, axis=1, bitorder="little")
    return packed_bytes.view(np.dtype("<u8")).astype(np.uint64, copy=False)


def unpack_rows(packed: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: ``(rows, words)`` uint64 -> uint8 bits."""
    words = np.ascontiguousarray(packed, dtype=np.dtype("<u8"))
    if words.ndim != 2:
        raise ValueError(f"expected a 2-dimensional array, got shape {words.shape}")
    as_bytes = words.view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little", count=cols)


def pack_vector(vector: np.ndarray) -> np.ndarray:
    """Pack a length-``cols`` 0/1 vector into a ``(words,)`` uint64 row."""
    return pack_rows(np.asarray(vector, dtype=np.uint8).reshape(1, -1))[0]


def _column_word_bit(col: int) -> tuple[int, np.uint64]:
    """(word index, single-bit mask) addressing one column."""
    return col // WORD_BITS, _ONE << np.uint64(col % WORD_BITS)


def row_reduce_packed(
    packed: np.ndarray, cols: int
) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of a packed matrix, in place on a copy.

    Returns ``(rref_packed, pivot_columns)``.  Pivot selection matches
    the unpacked reference exactly: scan columns in ascending order and
    take the first row at or below the current pivot row with a one in
    that column; eliminate the column from *every* other row.
    """
    work = np.array(packed, dtype=np.uint64, copy=True)
    rows = work.shape[0]
    pivot_columns: list[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        word, bit = _column_word_bit(col)
        column = work[:, word] & bit
        candidates = np.nonzero(column[pivot_row:])[0]
        if not candidates.size:
            continue
        source = pivot_row + int(candidates[0])
        if source != pivot_row:
            work[[pivot_row, source]] = work[[source, pivot_row]]
            column[[pivot_row, source]] = column[[source, pivot_row]]
        # Whole-matrix elimination: one boolean mask selects every row
        # holding the pivot column, one broadcast XOR clears them all.
        hits = column != 0
        hits[pivot_row] = False
        if hits.any():
            work[hits] ^= work[pivot_row]
        pivot_columns.append(col)
        pivot_row += 1
    return work, pivot_columns


def row_reduce(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Packed tier of :func:`repro.ecc.gf2.row_reduce`."""
    arr = np.asarray(matrix, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-dimensional array, got shape {arr.shape}")
    cols = arr.shape[1]
    reduced, pivots = row_reduce_packed(pack_rows(arr), cols)
    return unpack_rows(reduced, cols), pivots


def solve_many(
    a: np.ndarray, rhs: np.ndarray, *, with_pivots: bool = False
) -> np.ndarray | None | tuple[np.ndarray | None, list[int]]:
    """Solve ``A x = b`` for every column ``b`` of ``rhs`` in one elimination.

    ``rhs`` has shape ``(rows, planes)``; returns ``(planes, cols)``
    solutions (each bit-identical to :func:`repro.ecc.gf2.solve` on that
    column), or ``None`` if *any* plane is inconsistent.  One RREF of the augmented
    system replaces ``planes`` separate eliminations — the multi-plane
    fast path :class:`repro.ecc.reverse_engineering.EccReverseEngineer`
    solves all parity planes with.  With ``with_pivots=True`` the return
    value is ``(solutions_or_None, pivot_columns)`` so callers can also
    read off ``rank(A)`` without a second elimination.
    """
    a = np.asarray(a, dtype=np.uint8)
    rhs = np.asarray(rhs, dtype=np.uint8)
    if a.ndim != 2 or rhs.ndim != 2 or rhs.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: A {a.shape} vs rhs {rhs.shape}")
    rows, cols = a.shape
    planes = rhs.shape[1]
    augmented = np.concatenate([a, rhs], axis=1)
    # Eliminate over A's columns only (the whole packed rows — RHS words
    # included — ride along in each XOR): a pivot then never lands in an
    # RHS plane, so inconsistency shows up as a zero-A row with a one
    # left anywhere in its RHS part.
    work, pivots = row_reduce_packed(pack_rows(augmented), cols)
    reduced = unpack_rows(work, cols + planes)
    pivot_row = len(pivots)
    if pivot_row < rows and reduced[pivot_row:, cols:].any():
        solutions = None
    else:
        solutions = np.zeros((planes, cols), dtype=np.uint8)
        for row_index, col in enumerate(pivots):
            solutions[:, col] = reduced[row_index, cols:]
    return (solutions, pivots) if with_pivots else solutions


# ----------------------------------------------------------------------
# Packed matrix products: XOR + popcount
# ----------------------------------------------------------------------

#: Row-block size bounding the (block, n, words) popcount temporary.
_MATMUL_BLOCK = 4096


def matmul_packed(a_packed: np.ndarray, bt_packed: np.ndarray) -> np.ndarray:
    """GF(2) product from packed operands: ``A`` rows x ``B^T`` rows.

    ``a_packed`` is ``pack_rows(A)`` with shape ``(m, words)``;
    ``bt_packed`` is ``pack_rows(B.T)`` with shape ``(n, words)`` over the
    same inner dimension.  Each output bit is the parity of the popcount
    of the AND of one row of each — all words at once.
    """
    m = a_packed.shape[0]
    n = bt_packed.shape[0]
    out = np.empty((m, n), dtype=np.uint8)
    for start in range(0, m, _MATMUL_BLOCK):
        block = a_packed[start : start + _MATMUL_BLOCK]
        counts = np.bitwise_count(block[:, None, :] & bt_packed[None, :, :])
        out[start : start + _MATMUL_BLOCK] = (
            counts.sum(axis=2, dtype=np.uint64) & _ONE
        ).astype(np.uint8)
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Packed tier of :func:`repro.ecc.gf2.matmul` (0/1 inputs)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} @ {b.shape}")
    return matmul_packed(pack_rows(a), pack_rows(np.ascontiguousarray(b.T)))


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Packed tier of :func:`repro.ecc.gf2.matvec`."""
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-dimensional array, got shape {a.shape}")
    v = np.asarray(v, dtype=np.uint8).reshape(-1)
    if v.shape[0] != a.shape[1]:
        raise ValueError(f"shape mismatch for matvec: {a.shape} @ {v.shape}")
    counts = np.bitwise_count(pack_rows(a) & pack_vector(v)[None, :])
    return (counts.sum(axis=1, dtype=np.uint64) & _ONE).astype(np.uint8)
