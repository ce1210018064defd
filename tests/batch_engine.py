"""EINSim-style batch error-injection engine (a test oracle).

The paper's artifact builds on EINSim [2], a standalone simulator that
injects errors into batches of ECC words and decodes them in bulk.  This
module provides the equivalent: a fully vectorized, profiler-agnostic
engine that takes a population of words and produces per-round
post-correction error observations.

It is intentionally an *independent implementation* of the physics in
:mod:`repro.profiling.runner` (dense matrix decode instead of integer
syndromes, batch sampling instead of per-word draws).  Only the test
suite uses it: ``test_batch_engine.py`` and ``test_sweep_engine.py``
cross-validate the two engines statistically, which guards the hot-path
shortcuts against silent drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc.linear_code import SystematicCode
from repro.memory.cells import CellOrientation, all_true_cells
from repro.memory.error_model import WordErrorProfile, check_profile_positions

__all__ = ["BatchObservation", "BatchInjectionEngine"]


@dataclass(frozen=True)
class BatchObservation:
    """One round of batch simulation.

    Attributes:
        raw_failures: boolean ``(num_words, n)`` pre-correction error mask.
        post_data_errors: boolean ``(num_words, k)`` post-correction data
            error mask (what the controller observes on normal reads).
    """

    raw_failures: np.ndarray
    post_data_errors: np.ndarray


class BatchInjectionEngine:
    """Vectorized error injection + decoding for a population of words.

    Args:
        code: the on-die ECC code shared by all words.
        profiles: one at-risk profile per word.
        orientation: cell orientation (default: all true cells).
    """

    def __init__(
        self,
        code: SystematicCode,
        profiles: list[WordErrorProfile],
        orientation: CellOrientation | None = None,
    ) -> None:
        self.code = code
        self.profiles = profiles
        self.orientation = orientation or all_true_cells(code.n)
        self.num_words = len(profiles)
        for profile in profiles:
            check_profile_positions(profile, code.n)
        # Dense (num_words, n) probability matrix: zero where not at risk,
        # built with one fancy-indexed scatter instead of a Python loop.
        self._probability = np.zeros((self.num_words, code.n), dtype=float)
        counts = [profile.count for profile in profiles]
        total = sum(counts)
        if total:
            rows = np.repeat(np.arange(self.num_words, dtype=np.intp), counts)
            cols = np.fromiter(
                (p for profile in profiles for p in profile.positions),
                dtype=np.intp,
                count=total,
            )
            values = np.fromiter(
                (q for profile in profiles for q in profile.probabilities),
                dtype=float,
                count=total,
            )
            self._probability[rows, cols] = values

    def run_round(self, data: np.ndarray, rng: np.random.Generator) -> BatchObservation:
        """Inject one round of errors against a common dataword.

        Args:
            data: the ``(k,)`` dataword programmed into every word.
            rng: generator for this round's Bernoulli draws.
        """
        dataword = np.asarray(data, dtype=np.uint8)
        if dataword.shape != (self.code.k,):
            raise ValueError(f"expected dataword of shape ({self.code.k},)")
        codeword = self.code.encode(dataword)
        charged = self.orientation.charged_mask(codeword).astype(bool)
        draws = rng.random((self.num_words, self.code.n))
        raw_failures = charged[None, :] & (draws < self._probability)
        corrupted = np.bitwise_xor(
            np.tile(codeword, (self.num_words, 1)), raw_failures.astype(np.uint8)
        )
        decoded = self.code.decode_batch(corrupted)
        post_data_errors = decoded != dataword[None, :]
        return BatchObservation(raw_failures=raw_failures, post_data_errors=post_data_errors)

    def estimate_post_error_rates(
        self,
        data: np.ndarray,
        num_rounds: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Empirical per-(word, bit) post-correction error frequencies.

        The batch counterpart of
        :func:`repro.analysis.probabilities.per_bit_post_error_probabilities`,
        estimated by simulation instead of exact enumeration.
        """
        if num_rounds < 1:
            raise ValueError("need at least one round")
        counts = np.zeros((self.num_words, self.code.k), dtype=np.int64)
        for _ in range(num_rounds):
            counts += self.run_round(data, rng).post_data_errors
        return counts / num_rounds
