"""HARP-A + BEEP hybrid (paper §7.3.1).

Runs HARP-A's active phase (bypass reads, standard patterns, miscorrection
precomputation) for a fixed number of rounds, then hands the identified
at-risk set to a BEEP instance as its anchor pool and continues with BEEP's
crafted patterns through the normal read path.  The combination pairs
HARP's fast direct-error coverage with BEEP's ability to exploit *known*
at-risk bits to expose the remaining indirect errors — including those
caused by at-risk parity bits, which HARP-A alone cannot predict.

Both phases run on the code-level caches of :mod:`repro.analysis.memo`:
the active phase through HARP-A's memoized indirect prediction, the
crafted phase through the embedded :class:`BeepProfiler`'s shared
crafted-assignment and aliasing-pair caches — so the thousands of hybrid
words per sweep cell that share a code re-derive none of that state.
"""

from __future__ import annotations

from repro.ecc.linear_code import SystematicCode
from repro.profiling.base import Profiler, ReadMode
from repro.profiling.beep import BeepProfiler
from repro.profiling.harp import HarpAProfiler

__all__ = ["HarpABeepProfiler"]


class HarpABeepProfiler(Profiler):
    """HARP-A active phase followed by BEEP crafted-pattern exploration."""

    name = "HARP-A+BEEP"
    adaptive = True

    def __init__(
        self,
        code: SystematicCode,
        seed: int,
        pattern: str = "random",
        switch_round: int = 16,
    ) -> None:
        super().__init__(code, seed, pattern)
        if switch_round < 1:
            raise ValueError("switch_round must be >= 1")
        self.switch_round = switch_round
        self._harp = HarpAProfiler(code, seed, pattern)
        self._beep = BeepProfiler(code, seed, pattern)
        self._seeded_beep = False

    def _in_active_phase(self, round_index: int) -> bool:
        return round_index < self.switch_round

    def read_mode_for(self, round_index: int) -> str:
        return ReadMode.BYPASS if self._in_active_phase(round_index) else ReadMode.NORMAL

    def crafted_for_round(self, round_index: int) -> int | None:
        # Both phases draw their standard rounds from this profiler's
        # (pattern, seed) stream, so ``None`` means the same row for each.
        if self._in_active_phase(round_index):
            return self._harp.crafted_for_round(round_index)
        if not self._seeded_beep:
            # Seed BEEP's anchor pool with everything HARP-A identified.
            self._seeded_beep = True
            self._beep.observe(round_index, self._harp.identified)
        return self._beep.crafted_for_round(round_index)

    def observe(self, round_index: int, mismatches: frozenset[int]) -> None:
        if self._in_active_phase(round_index):
            self._harp.observe(round_index, mismatches)
        else:
            self._beep.observe(round_index, mismatches)

    @property
    def observation_count(self) -> int:
        # Both sub-pools are add-only, so the sum grows whenever either
        # does — a valid change fingerprint even when the union overlaps.
        return self._harp.observation_count + self._beep.observation_count

    @property
    def identified_observed(self) -> frozenset[int]:
        return self._harp.identified_observed | self._beep.identified_observed

    @property
    def identified_predicted(self) -> frozenset[int]:
        return self._harp.identified_predicted
