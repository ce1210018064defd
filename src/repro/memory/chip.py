"""Simulated memory chip with on-die ECC (paper Fig 1 / Fig 3).

The chip encodes every write through its proprietary on-die ECC and decodes
every read, silently correcting what it can.  The memory controller never
sees the parity bits.  Two read paths exist:

* :meth:`OnDieEccChip.read` — the normal path: decode, correct, return the
  post-correction dataword.  Correction events are *not* reported (the
  defining obfuscation the paper studies).
* :meth:`OnDieEccChip.read_raw` — the decode-bypass path HARP requires
  (paper §5.2): returns the raw stored values of the *data* bits only,
  skipping correction.  Parity bits remain hidden even on this path.

Retention errors are injected at read time from each word's
:class:`~repro.memory.error_model.WordErrorProfile`: every read models one
refresh window in which each charged at-risk cell independently fails with
its per-bit probability.  Errors do not persist across reads because the
profiling methodology rewrites the pattern each round.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.linear_code import SystematicCode
from repro.memory.array import MemoryArray
from repro.memory.error_model import RetentionErrorModel, WordErrorProfile

__all__ = ["OnDieEccChip", "ReadOutcome"]


class ReadOutcome:
    """A read result plus the hidden internal state (for instrumentation).

    The ``data`` attribute is all a real memory controller would see;
    ``injected_positions`` and ``corrected_positions`` exist so tests and
    the ground-truth analysis can verify behaviour ("white-box" access that
    the paper's simulator also relies on).
    """

    def __init__(
        self,
        data: np.ndarray,
        injected_positions: tuple[int, ...],
        corrected_positions: tuple[int, ...],
    ) -> None:
        self.data = data
        self.injected_positions = injected_positions
        self.corrected_positions = corrected_positions


class OnDieEccChip:
    """A memory chip whose storage is protected by proprietary on-die ECC.

    Args:
        code: the on-die ECC code (e.g. a (71, 64) SEC Hamming code).
        num_words: number of ECC words of capacity.
        rng: generator driving error injection.
    """

    def __init__(
        self,
        code: SystematicCode,
        num_words: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.code = code
        self._array = MemoryArray(num_words, code.n)
        self._error_model = RetentionErrorModel()
        self._rng = rng or np.random.default_rng(0)
        self._profiles: dict[int, WordErrorProfile] = {}

    # ------------------------------------------------------------------
    # Error profile plumbing (simulation-side, not controller-visible)
    # ------------------------------------------------------------------

    def set_error_profile(self, word_index: int, profile: WordErrorProfile) -> None:
        """Attach the at-risk bit profile of one word (simulation input)."""
        if profile.positions and max(profile.positions) >= self.code.n:
            raise IndexError("profile position out of codeword range")
        self._profiles[word_index] = profile

    def error_profile(self, word_index: int) -> WordErrorProfile:
        """The word's at-risk profile (empty if never set)."""
        return self._profiles.get(word_index, WordErrorProfile((), ()))

    # ------------------------------------------------------------------
    # Controller-visible interface
    # ------------------------------------------------------------------

    @property
    def num_words(self) -> int:
        return self._array.num_words

    def write(self, word_index: int, data: np.ndarray) -> None:
        """Encode a dataword through on-die ECC and store the codeword."""
        arr = np.asarray(data, dtype=np.uint8)
        if arr.shape != (self.code.k,):
            raise ValueError(f"expected dataword of shape ({self.code.k},), got {arr.shape}")
        self._array.write(word_index, self.code.encode(arr))

    def _corrupted_read(self, word_index: int) -> tuple[np.ndarray, tuple[int, ...]]:
        stored = self._array.read(word_index)
        profile = self.error_profile(word_index)
        corrupted, failures = self._error_model.corrupt(stored, profile, self._rng)
        injected = tuple(
            position for position, failed in zip(profile.positions, failures) if failed
        )
        return corrupted, injected

    def read(self, word_index: int) -> ReadOutcome:
        """Normal read: sample retention errors, decode, correct, return data."""
        corrupted, injected = self._corrupted_read(word_index)
        result = self.code.decode(corrupted)
        return ReadOutcome(
            data=result.data,
            injected_positions=injected,
            corrected_positions=result.corrected_positions,
        )

    def read_raw(self, word_index: int) -> ReadOutcome:
        """Decode-bypass read: raw data-portion bits, no correction.

        Parity bits are *not* returned — the bypass path exposes only the
        systematically-encoded data bits (paper §5.2).
        """
        corrupted, injected = self._corrupted_read(word_index)
        return ReadOutcome(
            data=corrupted[: self.code.k],
            injected_positions=injected,
            corrected_positions=(),
        )
