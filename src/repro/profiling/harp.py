"""HARP active-phase profilers (paper §6).

HARP-U reads through the on-die ECC *bypass* path, so every mismatch it
observes is a raw pre-correction error in the data bits — profiling becomes
equivalent to profiling a chip without on-die ECC, which defeats all three
challenges of the paper's §4 for direct errors.

HARP-A additionally knows the on-die ECC parity-check matrix and, after
every new direct-error identification, precomputes which data positions
combinations of the identified bits can miscorrect onto (paper §6.3.1).
The prediction cannot cover miscorrections caused by at-risk *parity* bits,
which the bypass path does not expose — the reactive phase (secondary ECC)
picks those up at runtime.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.memo import cached_predict_indirect
from repro.ecc.linear_code import SystematicCode
from repro.profiling.base import Profiler, ReadMode

__all__ = ["HarpUProfiler", "HarpAProfiler"]


class HarpUProfiler(Profiler):
    """HARP-Unaware: bypass reads, standard patterns, no H knowledge."""

    name = "HARP-U"
    #: Bypass reads accumulate raw mismatches — the base ``observe_many``
    #: replay is exact, and ``read_mode_for`` is round-independent.
    batched = True

    def read_mode_for(self, round_index: int) -> str:
        return ReadMode.BYPASS


class HarpAProfiler(HarpUProfiler):
    """HARP-Aware: HARP-U plus miscorrection precomputation from H."""

    name = "HARP-A"

    def __init__(self, code: SystematicCode, seed: int, pattern: str = "random") -> None:
        super().__init__(code, seed, pattern)
        self._predicted: frozenset[int] = frozenset()

    def observe(self, round_index: int, mismatches: frozenset[int]) -> bool:
        if not super().observe(round_index, mismatches):
            return False
        # The direct-risk set grew: refresh the precomputed indirect set.
        # The memoized lookup collapses the repeats the sweep produces
        # (the same (code, observed set) recurs across probability
        # levels and words).
        self._predicted = cached_predict_indirect(self.code, self._observed)
        return True

    def observe_many(
        self, events: Iterable[tuple[int, frozenset[int]]]
    ) -> list[tuple[int, frozenset[int], frozenset[int]]]:
        """Batched replay: refresh the prediction at each growth event.

        The observed set after any round is the union of the distinct
        mismatch sets seen so far, and ``_predicted`` is a pure function
        of that union — so replaying only the distinct events visits
        exactly the same (observed, predicted) states, at the same
        rounds, as the per-round ``observe`` loop.
        """
        changes: list[tuple[int, frozenset[int], frozenset[int]]] = []
        observed = self._observed
        for round_index, mismatches in events:
            if mismatches <= observed:
                continue
            observed.update(mismatches)
            snapshot = frozenset(observed)
            self._predicted = cached_predict_indirect(self.code, observed)
            changes.append((round_index, snapshot | self._predicted, snapshot))
        return changes

    @property
    def identified_predicted(self) -> frozenset[int]:
        return self._predicted
