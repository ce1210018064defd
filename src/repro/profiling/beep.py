"""BEEP profiling (paper §7.1.1 baseline 2), reimplemented from BEER [145].

BEEP knows the on-die ECC parity-check matrix and uses it to craft data
patterns that *provoke* miscorrections: once at least one post-correction
error has been observed (an *anchor*), BEEP enumerates the pre-correction
error-pattern hypotheses that could explain further errors and charges
exactly the cells each hypothesis involves, leaving all other data bits
discharged so that any failure combination aliases into an observable data
position.  Before the first anchor is confirmed it falls back to random
patterns, exactly as the paper configures it ("use a random data pattern
before the first post-correction error is confirmed").

The crafted-pattern search is the incremental GF(2) solver of
:class:`repro.analysis.atrisk.ChargeSystem` (the paper uses Z3 for the
same purpose — see DESIGN.md §3), whose basis rows are Python
integers.  All per-round heavy lifting lives in
code-level caches (:mod:`repro.analysis.memo`) shared by every word that
uses the same parity-check matrix:

* the anchor-set system is eliminated once per (code, anchors) and each
  hypothesis pair is solved as a two-constraint incremental update
  (:meth:`~repro.analysis.memo.CraftedEpoch.assignment`);
* the O(n²) aliasing-pair expansion per observed target is computed once
  per (code, target) (:func:`~repro.analysis.memo.cached_aliasing_pairs`).

A crafted round stays an integer from the solver to the harness: the
memo stores each assignment as the solver's dataword bitmask, and
:meth:`BeepProfiler.crafted_for_round` hands that int out unchanged (ints
are immutable, so nothing needs copying).  Cache state never changes
results — hot and cold traces are bit-identical
(``tests/test_adaptive_caches.py``).

Reproduced qualitative behaviour (paper §7.2, §7.3): because crafted
patterns charge only hypothesis cells, at-risk bits outside the current
hypothesis pool are rarely charged, so BEEP explores pre-correction
combinations slowly and can plateau below full direct coverage — while its
deliberate aliasing makes it the strongest baseline at *indirect* error
exposure over long horizons.
"""

from __future__ import annotations

from repro.analysis.memo import code_caches
from repro.ecc.linear_code import SystematicCode
from repro.profiling.base import Profiler

__all__ = ["BeepProfiler"]


class BeepProfiler(Profiler):
    """Parity-check-aware crafted-pattern profiler."""

    name = "BEEP"

    def __init__(self, code: SystematicCode, seed: int, pattern: str = "random") -> None:
        super().__init__(code, seed, pattern)
        #: Per-code handle onto the shared crafted/aliasing caches.
        self._caches = code_caches(code)
        #: (target, pair) hypotheses scheduled for crafted rounds.
        self._hypotheses: list[tuple[int, tuple[int, int]]] = []
        self._targets_expanded: set[int] = set()
        self._next_hypothesis = 0
        #: Sorted anchor tuple, maintained on observation so the per-round
        #: cache lookups need not re-sort the observed set.
        self._anchor_key: tuple[int, ...] = ()
        #: The memo-owned epoch of the current anchor set: its lazily
        #: resolved pair -> assignment dict replaces any per-instance
        #: pattern cache, so every word and run reaching these anchors
        #: shares one table.  Refreshed whenever the anchors grow.
        self._epoch = self._caches.crafted_epoch(())

    # ------------------------------------------------------------------
    # Hypothesis generation
    # ------------------------------------------------------------------

    def _expand_target(self, target: int) -> None:
        """Queue every pre-correction pair that aliases onto ``target``.

        An indirect error at ``target`` requires a pattern whose syndrome
        equals ``H[target]``; the weight-2 explanations are the pairs
        ``{a, b}`` with ``H[a] xor H[b] == H[target]``.
        """
        if target in self._targets_expanded:
            return
        self._targets_expanded.add(target)
        for pair in self._caches.aliasing_pairs(target):
            self._hypotheses.append((target, pair))

    def observe(self, round_index: int, mismatches: frozenset[int]) -> bool:
        if not mismatches:
            return False
        for position in mismatches:
            if position not in self._observed:
                self._observed.add(position)
                self._expand_target(position)
        if len(self._observed) == len(self._anchor_key):
            return False
        self._anchor_key = tuple(sorted(self._observed))
        self._epoch = self._caches.crafted_epoch(self._anchor_key)
        return True

    # ------------------------------------------------------------------
    # Pattern crafting
    # ------------------------------------------------------------------

    def crafted_for_round(self, round_index: int) -> int | None:
        if not self._hypotheses:
            # Bootstrapping: no anchor yet, fall back to random patterns.
            return None
        hypotheses = self._hypotheses
        epoch = self._epoch
        resolved = epoch.patterns
        count = len(hypotheses)
        for _ in range(count):
            slot = self._next_hypothesis % count
            self._next_hypothesis += 1
            pair = hypotheses[slot][1]
            assignment = resolved[pair] if pair in resolved else epoch.assignment(pair)
            if assignment is not None:
                return assignment
        # Every queued hypothesis is charge-infeasible; fall back to random.
        return None
