"""Oracle profiler: the unreachable upper bound.

Knows the word's exact ground truth and identifies every post-correction
at-risk bit in the first round.  No physical profiler can do this (it
requires the simulator's knowledge of the at-risk set, including parity
bits), but it anchors comparisons: any metric gap between the oracle and
HARP measures the cost of *reactive* identification, and tests use it to
sanity-check that metrics treat an all-knowing profiler as perfect.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.atrisk import GroundTruth
from repro.ecc.linear_code import SystematicCode
from repro.profiling.base import Profiler

__all__ = ["OracleProfiler"]


class OracleProfiler(Profiler):
    """Identifies the complete ground-truth at-risk set immediately."""

    name = "Oracle"
    batched = True

    def __init__(
        self,
        code: SystematicCode,
        seed: int,
        pattern: str = "random",
        ground_truth: GroundTruth | None = None,
    ) -> None:
        super().__init__(code, seed, pattern)
        if ground_truth is None:
            raise ValueError("the oracle needs the ground truth it will reveal")
        self._truth = ground_truth
        self._revealed = False

    def observe(self, round_index: int, mismatches: frozenset[int]) -> bool:
        if self._revealed:
            return False
        self._revealed = True
        self._observed.update(self._truth.post_correction_at_risk)
        self._observed.update(self._truth.direct_at_risk)
        return True

    def observe_many(
        self, events: Iterable[tuple[int, frozenset[int]]]
    ) -> list[tuple[int, frozenset[int]]]:
        """The oracle reveals on its first observation — always round 0.

        The scalar harness calls ``observe`` every round (including
        rounds without failures), so the reveal lands at round 0
        regardless of ``events`` — which may be empty for a word with
        no at-risk bits.
        """
        if not self.observe(0, frozenset()):
            return []
        return [(0, self.identified)]
