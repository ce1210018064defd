"""Profiler abstractions (paper §2.3, §6).

A profiler runs rounds of write-then-read testing against one ECC word.
Each round it chooses a dataword to program; the harness writes it through
on-die ECC, samples pre-correction errors, and hands the profiler back the
positions where the data it reads differs from what it wrote.

A profiler chooses its dataword through one primitive,
:meth:`Profiler.crafted_for_round`: a dataword bitmask (bit ``i`` = data
bit ``i``) it crafted itself, or ``None`` for the row of its standard
pattern schedule.  The simulation kernels keep a crafted round in the
integer domain from the charge solver to the failure check;
:meth:`Profiler.pattern_for_round` derives the array for callers that
write arrays to a chip.  Two read paths exist (paper §5.2):

* the **normal** path returns post-correction data — mismatches are
  post-correction errors (direct or indirect);
* the **bypass** path returns raw data bits — mismatches are exactly the
  pre-correction errors within the data portion.

Profilers accumulate an *identified* set of at-risk data positions, split
into an observation channel and (for HARP-A) a prediction channel.
:meth:`Profiler.observe` returns whether that state may have moved, so
the kernels store a run as its change points
(:class:`~repro.profiling.runner.WordRunResult`) and never poll the sets
on rounds where nothing happened.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.ecc.linear_code import SystematicCode
from repro.memory.patterns import DataPattern, make_pattern
from repro.utils.bits import int_to_bits

__all__ = ["Profiler", "ReadMode"]


class ReadMode:
    """Read-path selectors (string enum kept trivial for speed)."""

    NORMAL = "normal"
    BYPASS = "bypass"


class Profiler:
    """Base class for round-based error profilers.

    Args:
        code: the on-die ECC code of the chip under test.  Knowledge of the
            *geometry* (k, n) is required by every profiler; whether the
            parity-check matrix contents may be used distinguishes
            ECC-aware profilers (BEEP, HARP-A) from unaware ones.
        seed: seed for the profiler's own pattern randomness.
        pattern: name of the standard data pattern schedule ("random",
            "charged", "checkered").
    """

    #: Human-readable profiler name used in reports.
    name: str = "abstract"
    #: Whether :meth:`observe_many` faithfully replays this profiler's
    #: :meth:`observe` semantics from distinct mismatch events alone.
    #: Declaring ``batched = True`` vouches for two properties the
    #: cell-batched kernel relies on: (1) the profiler's state after
    #: round ``r`` depends only on the *union* of the mismatch sets seen
    #: up to ``r`` (so repeated sets collapse to their first occurrence),
    #: and (2) :meth:`read_mode_for` is round-independent.  Subclasses
    #: that break either must leave it ``False`` (the kernel then refuses
    #: them) or override :meth:`observe_many` accordingly, as the oracle
    #: does.  The kernel writes only the standard schedule, so it also
    #: refuses a profiler that crafts its own datawords — an *adaptive*
    #: profiler, one that overrides :meth:`crafted_for_round`.
    batched: bool = False

    def __init__(self, code: SystematicCode, seed: int, pattern: str = "random") -> None:
        self.code = code
        self.seed = int(seed)
        self._pattern: DataPattern = make_pattern(pattern, seed)
        self._observed: set[int] = set()

    # ------------------------------------------------------------------
    # Per-round interface driven by the harness
    # ------------------------------------------------------------------

    def read_mode_for(self, round_index: int) -> str:
        """Which read path this profiler uses in the given round."""
        return ReadMode.NORMAL

    def crafted_for_round(self, round_index: int) -> int | None:
        """This round's crafted dataword as a bitmask, or ``None``.

        ``None`` means the row of the standard pattern schedule.  The one
        pattern primitive: adaptive profilers override this (never
        :meth:`pattern_for_round`), and overriding it is what makes a
        profiler adaptive.  The harness calls it exactly once per round,
        in round order, before that round's :meth:`observe`.
        """
        return None

    def pattern_for_round(self, round_index: int) -> np.ndarray:
        """The dataword to program this round, as a length-``k`` array.

        Derived from :meth:`crafted_for_round` (so it advances the same
        state) for callers that write arrays to a chip.
        """
        crafted = self.crafted_for_round(round_index)
        if crafted is None:
            return self._pattern.data_for_round(round_index, self.code.k)
        return int_to_bits(crafted, self.code.k)

    def observe(self, round_index: int, mismatches: frozenset[int]) -> bool:
        """Record the mismatching data positions of this round's read-back.

        Returns ``True`` whenever :attr:`identified` or
        :attr:`identified_observed` may have changed since the previous
        call — including changes this round's :meth:`crafted_for_round`
        made — and ``False`` only when neither did.  The kernels record a
        change point exactly when it returns ``True``: a spurious ``True``
        costs one redundant change point, a missed change corrupts the
        trace.  The default is plain accumulate semantics: mismatches
        union into the observed set.
        """
        observed = self._observed
        before = len(observed)
        observed.update(mismatches)
        return len(observed) != before

    def observe_many(
        self, events: Iterable[tuple[int, frozenset[int]]]
    ) -> list[tuple[int, frozenset[int], frozenset[int]]]:
        """Consume a whole run's distinct mismatch events in one call.

        ``events`` yields one ``(first_round, mismatches)`` pair per
        distinct non-empty failure pattern of the run (two patterns may
        share a mismatch set), ascending by round — the batched kernel's
        compressed replay of calling :meth:`observe` every round.
        Returns the run's change points, the
        :attr:`~repro.profiling.runner.WordRunResult.changes` of its
        result: ``(round, identified, identified_observed)`` triples,
        the cumulative sets materialized only at those rounds.  The
        default implementation replays the default :meth:`observe`;
        subclasses with extra per-observation state override it (see
        :class:`~repro.profiling.harp.HarpAProfiler`) and vouch for the
        replay with the :attr:`batched` flag.
        """
        changes: list[tuple[int, frozenset[int], frozenset[int]]] = []
        observed = self._observed
        # Accumulate semantics leave the prediction channel alone.
        predicted = self.identified_predicted
        for round_index, mismatches in events:
            if mismatches <= observed:
                continue
            observed.update(mismatches)
            # One snapshot per change point: for accumulate semantics
            # ``identified_observed`` is exactly frozenset(_observed) and
            # ``identified`` only adds the prediction channel.
            snapshot = frozenset(observed)
            identified = snapshot | predicted if predicted else snapshot
            changes.append((round_index, identified, snapshot))
        return changes

    # ------------------------------------------------------------------
    # Identification state
    # ------------------------------------------------------------------

    @property
    def identified_observed(self) -> frozenset[int]:
        """Data positions identified from read-back observations."""
        return frozenset(self._observed)

    @property
    def identified_predicted(self) -> frozenset[int]:
        """Data positions identified by precomputation (HARP-A only)."""
        return frozenset()

    @property
    def identified(self) -> frozenset[int]:
        """Everything this profiler would hand to the repair mechanism."""
        return self.identified_observed | self.identified_predicted
