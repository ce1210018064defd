"""Systematic linear block codes with bounded-distance syndrome decoding.

The paper's on-die ECC model (its §2.5) is a systematic linear block code:
a codeword stores the ``k`` data bits unchanged followed by ``p``
parity-check bits.  We adopt the layout

    codeword = [ data bits 0..k-1 | parity bits k..k+p-1 ]

so the parity-check matrix is ``H = [P | I_p]`` and the transposed generator
matrix is ``G^T = [I_k | P^T]`` for a ``p``-by-``k`` parity submatrix ``P``.
This matches Equation 1 of the paper up to column ordering, which the paper
notes is a free design parameter (§2.5.2).

Decoding is bounded-distance syndrome decoding: a lookup table maps every
syndrome produced by an error pattern of weight at most ``t`` (the
correction capability) to that pattern.  A nonzero syndrome outside the
table is *detected but uncorrectable* and leaves the codeword unmodified,
matching the behaviour of DRAM on-die ECC decoders which never stall a read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from repro.ecc import gf2
from repro.utils.bits import bits_to_int

__all__ = ["SystematicCode", "DecodeResult"]


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding a (possibly corrupted) codeword.

    Attributes:
        data: the post-correction dataword (length ``k``).
        corrected_positions: codeword positions the decoder flipped.  For a
            single-error-correcting code this is empty or a single position.
        detected_uncorrectable: True when the syndrome was nonzero but did
            not match any correctable error pattern.
    """

    data: np.ndarray
    corrected_positions: tuple[int, ...]
    detected_uncorrectable: bool

    @property
    def corrected(self) -> bool:
        return bool(self.corrected_positions)


class SystematicCode:
    """A systematic linear block code defined by its parity submatrix.

    Args:
        parity_submatrix: ``(p, k)`` binary matrix ``P``; column ``i`` gives
            the parity footprint of data bit ``i``.
        correction_capability: ``t``, the number of errors the bounded
            distance decoder corrects (1 for SEC Hamming, 2 for DEC BCH).
        name: optional human-readable identifier.

    Raises:
        ValueError: if the resulting code cannot correct ``t`` errors, i.e.
            two distinct correctable error patterns share a syndrome.
    """

    def __init__(
        self,
        parity_submatrix: np.ndarray,
        correction_capability: int = 1,
        name: str | None = None,
    ) -> None:
        parity = np.asarray(parity_submatrix, dtype=np.uint8)
        if parity.ndim != 2:
            raise ValueError(f"parity submatrix must be 2-D, got shape {parity.shape}")
        if not gf2.is_bit_matrix(parity):
            raise ValueError("parity submatrix must be binary")
        if correction_capability < 0:
            raise ValueError("correction capability must be non-negative")
        self._parity = parity
        self.p, self.k = parity.shape
        self.n = self.k + self.p
        self.t = int(correction_capability)
        self.name = name or f"({self.n},{self.k})t{self.t}"
        self._syndrome_table = self._build_syndrome_table()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @cached_property
    def parity_check_matrix(self) -> np.ndarray:
        """``H = [P | I_p]`` with shape ``(p, n)``."""
        return np.concatenate([self._parity, gf2.identity(self.p)], axis=1)

    @cached_property
    def generator_matrix_t(self) -> np.ndarray:
        """``G^T = [I_k | P^T]`` with shape ``(k, n)``."""
        return np.concatenate([gf2.identity(self.k), self._parity.T], axis=1)

    @property
    def parity_submatrix(self) -> np.ndarray:
        """The defining ``(p, k)`` submatrix ``P`` (do not mutate)."""
        return self._parity

    @cached_property
    def parity_bytes(self) -> bytes:
        """``P`` as bytes — the memo layer's per-code cache-key component."""
        return self._parity.tobytes()

    @property
    def data_positions(self) -> range:
        """Codeword positions holding systematically-encoded data bits."""
        return range(self.k)

    def column(self, position: int) -> np.ndarray:
        """Column of ``H`` for a codeword position."""
        return self.parity_check_matrix[:, position]

    @cached_property
    def column_ints(self) -> tuple[int, ...]:
        """All columns of ``H`` packed into integers (LSB = row 0)."""
        return tuple(bits_to_int(self.parity_check_matrix[:, i]) for i in range(self.n))

    def column_int(self, position: int) -> int:
        """Column of ``H`` packed into an integer (LSB = row 0)."""
        return self.column_ints[position]

    @cached_property
    def parity_row_ints(self) -> tuple[int, ...]:
        """Rows of the parity submatrix ``P`` packed into integers
        (bit i = data bit i).  Used by the charge-constraint solvers."""
        return tuple(gf2._pack_rows(self._parity))

    def _build_syndrome_table(self) -> dict[int, tuple[int, ...]]:
        """Map syndrome integers to the correctable pattern producing them."""
        table: dict[int, tuple[int, ...]] = {}
        columns = [self.column_int(i) for i in range(self.n)]
        for weight in range(1, self.t + 1):
            for pattern in combinations(range(self.n), weight):
                syndrome = 0
                for position in pattern:
                    syndrome ^= columns[position]
                if syndrome == 0 or syndrome in table:
                    raise ValueError(
                        f"code {self.name} cannot correct {self.t} errors: "
                        f"pattern {pattern} aliases another correctable pattern"
                    )
                table[syndrome] = pattern
        return table

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode dataword(s) into codeword(s).

        Accepts a ``(k,)`` vector or a ``(batch, k)`` matrix and returns the
        corresponding ``(n,)`` or ``(batch, n)`` codewords.
        """
        arr = np.asarray(data, dtype=np.uint8)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr.reshape(1, -1)
        if arr.shape[1] != self.k:
            raise ValueError(f"dataword length {arr.shape[1]} != k={self.k}")
        parity = gf2.matmul(arr, self._parity.T)
        codewords = np.concatenate([arr, parity], axis=1)
        return codewords[0] if squeeze else codewords

    def syndrome(self, codeword: np.ndarray) -> np.ndarray:
        """Syndrome ``s = H . c`` for codeword(s)."""
        arr = np.asarray(codeword, dtype=np.uint8)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr.reshape(1, -1)
        if arr.shape[1] != self.n:
            raise ValueError(f"codeword length {arr.shape[1]} != n={self.n}")
        syndromes = gf2.matmul(arr, self.parity_check_matrix.T)
        return syndromes[0] if squeeze else syndromes

    def correction_for_syndrome(self, syndrome_value: int) -> tuple[int, ...] | None:
        """Correctable pattern for a syndrome integer, or None.

        Returns ``()`` for a zero syndrome, the codeword positions to flip
        for a correctable syndrome, and ``None`` for a detected-but-
        uncorrectable syndrome.
        """
        if syndrome_value == 0:
            return ()
        return self._syndrome_table.get(syndrome_value)

    def decode(self, codeword: np.ndarray) -> DecodeResult:
        """Bounded-distance decode of a single codeword."""
        arr = np.asarray(codeword, dtype=np.uint8).reshape(-1)
        if arr.shape[0] != self.n:
            raise ValueError(f"codeword length {arr.shape[0]} != n={self.n}")
        pattern = self.correction_for_syndrome(bits_to_int(self.syndrome(arr)))
        if pattern is None:
            return DecodeResult(
                data=arr[: self.k].copy(),
                corrected_positions=(),
                detected_uncorrectable=True,
            )
        corrected = arr.copy()
        for position in pattern:
            corrected[position] ^= 1
        return DecodeResult(
            data=corrected[: self.k],
            corrected_positions=pattern,
            detected_uncorrectable=False,
        )

    def syndrome_ints_batch(self, codewords: np.ndarray) -> np.ndarray:
        """Syndrome integers of a ``(batch, n)`` array in one GF(2) product.

        The multi-RHS product is :func:`repro.ecc.gf2.matmul`, which
        takes its popcount kernel on a large enough batch; each bit-row
        then packs into one integer with syndrome row 0 as its least
        significant bit, the key :meth:`correction_for_syndrome` looks up.
        Only :meth:`decode_batch` calls it: the simulation kernels XOR
        each failure pattern's columns (``column_int``) instead.
        """
        arr = np.asarray(codewords, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(f"expected shape (batch, {self.n}), got {arr.shape}")
        syndromes = gf2.matmul(arr, self.parity_check_matrix.T)
        weights = 1 << np.arange(self.p, dtype=np.int64)
        return syndromes.astype(np.int64) @ weights

    def decode_batch(self, codewords: np.ndarray) -> np.ndarray:
        """Decode a ``(batch, n)`` array, returning ``(batch, k)`` datawords.

        One syndrome product for the whole batch; per-word correction
        metadata is not materialized.  The simulation kernels do not
        call it (they decode each distinct failure pattern through
        ``profiling.runner.post_correction_data_errors``); tests check
        it against :meth:`decode`, and ``benchmarks/bench_engine.py``
        times it.
        """
        arr = np.asarray(codewords, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(f"expected shape (batch, {self.n}), got {arr.shape}")
        syndrome_ints = self.syndrome_ints_batch(arr)
        corrected = arr.copy()
        for row in np.flatnonzero(syndrome_ints):
            pattern = self._syndrome_table.get(int(syndrome_ints[row]))
            if pattern is not None:
                for position in pattern:
                    corrected[row, position] ^= 1
        return corrected[:, : self.k]

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SystematicCode {self.name} n={self.n} k={self.k} t={self.t}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SystematicCode):
            return NotImplemented
        return self.t == other.t and np.array_equal(self._parity, other._parity)

    def __hash__(self) -> int:
        return hash((self.t, self.parity_bytes, self._parity.shape))
