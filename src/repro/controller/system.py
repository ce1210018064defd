"""End-to-end HARP-enabled memory system (paper Fig 5).

Composes the simulated chip (on-die ECC + error injection), an active
profiler per word, the error profile + ideal bit-repair mechanism, and the
secondary ECC performing reactive profiling.  This is the object-level
integration used by the examples and the integration test-suite; the
Fig 10 experiment computes the same quantities analytically for speed.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.controller.secondary_ecc import SecondaryEcc
from repro.memory.chip import OnDieEccChip
from repro.profiling.base import Profiler, ReadMode
from repro.repair.mechanisms import IdealBitRepair
from repro.repair.profile_store import ErrorProfile
from repro.utils.rng import derive_rng

__all__ = ["ActiveProfilingReport", "OperationReport", "MemorySystem"]

ProfilerFactory = Callable[..., Profiler]


@dataclass(frozen=True)
class ActiveProfilingReport:
    """Summary of an active-profiling campaign over the whole chip."""

    rounds: int
    words_profiled: int
    bits_identified: int


@dataclass
class OperationReport:
    """Tally of normal-operation reads with reactive profiling enabled."""

    reads: int = 0
    clean_reads: int = 0
    reactive_corrections: int = 0
    reactively_identified_bits: int = 0
    escaped_reads: int = 0
    escaped_bit_errors: int = 0
    #: word -> data positions that escaped at least once (would be
    #: software-visible corruption).
    escapes: dict[int, set[int]] = field(default_factory=dict)


class MemorySystem:
    """A memory controller driving one chip with on-die ECC.

    Args:
        chip: the simulated memory chip (error profiles pre-attached).
        profiler_factory: builds the active profiler for each word; called
            as ``factory(code, seed)``.
        secondary: reactive-profiling ECC (defaults to single-error
            correcting, matching the paper's SEC on-die ECC assumption).
        seed: seed for profiler pattern randomness and operation data.
    """

    def __init__(
        self,
        chip: OnDieEccChip,
        profiler_factory: ProfilerFactory,
        secondary: SecondaryEcc | None = None,
        seed: int = 0,
    ) -> None:
        self.chip = chip
        self.profiler_factory = profiler_factory
        self.secondary = secondary or SecondaryEcc(1)
        self.seed = seed
        self.profile = ErrorProfile()
        self.repair = IdealBitRepair(self.profile)

    # ------------------------------------------------------------------
    # Phase 1: active profiling
    # ------------------------------------------------------------------

    def run_active_profiling(self, num_rounds: int) -> ActiveProfilingReport:
        """Profile every word of the chip and populate the error profile."""
        code = self.chip.code
        identified_total = 0
        for word_index in range(self.chip.num_words):
            profiler = self.profiler_factory(code, derive_seed_for(self.seed, word_index))
            for round_index in range(num_rounds):
                written = profiler.pattern_for_round(round_index)
                self.chip.write(word_index, written)
                if profiler.read_mode_for(round_index) == ReadMode.BYPASS:
                    outcome = self.chip.read_raw(word_index)
                else:
                    outcome = self.chip.read(word_index)
                mismatches = frozenset(
                    int(i) for i in np.flatnonzero(outcome.data != written)
                )
                profiler.observe(round_index, mismatches)
            identified = profiler.identified
            self.profile.mark_many(word_index, identified)
            identified_total += len(identified)
        return ActiveProfilingReport(
            rounds=num_rounds,
            words_profiled=self.chip.num_words,
            bits_identified=identified_total,
        )

    # ------------------------------------------------------------------
    # Phase 2: normal operation with reactive profiling
    # ------------------------------------------------------------------

    def operate(self, reads_per_word: int, data: np.ndarray | None = None) -> OperationReport:
        """Run normal operation: repair masks profiled bits, secondary ECC
        corrects and identifies what remains.

        Args:
            reads_per_word: number of read accesses per ECC word.
            data: operational dataword (defaults to all-ones, the true-cell
                worst case the paper's case study measures under).
        """
        code = self.chip.code
        pattern = (
            np.ones(code.k, dtype=np.uint8) if data is None else np.asarray(data, dtype=np.uint8)
        )
        report = OperationReport()
        for word_index in range(self.chip.num_words):
            self.chip.write(word_index, pattern)
            for _ in range(reads_per_word):
                outcome = self.chip.read(word_index)
                report.reads += 1
                mismatches = frozenset(
                    int(i) for i in np.flatnonzero(outcome.data != pattern)
                )
                unrepaired = self.repair.unrepaired_errors(word_index, mismatches)
                if not unrepaired:
                    report.clean_reads += 1
                    continue
                reactive = self.secondary.process_read(unrepaired)
                if reactive.corrected:
                    report.reactive_corrections += 1
                    new_bits = reactive.corrected - self.profile.bits_for(word_index)
                    report.reactively_identified_bits += len(new_bits)
                    # Reactive identification: repaired from now on.
                    self.profile.mark_many(word_index, reactive.corrected)
                if reactive.escaped:
                    report.escaped_reads += 1
                    report.escaped_bit_errors += len(reactive.escaped)
                    report.escapes.setdefault(word_index, set()).update(reactive.escaped)
        return report


def derive_seed_for(seed: int, word_index: int) -> int:
    """Stable per-word profiler seed."""
    return derive_rng(seed, "system-word", word_index).integers(0, 2**63 - 1)
