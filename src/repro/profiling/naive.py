"""Naive profiling (paper §7.1.1 baseline 1).

Represents the long line of prior profilers that operate without any
knowledge of on-die ECC: write a worst-case data pattern, read it back
through the normal (corrected) path, and mark every mismatching bit as
at risk.  On a chip with on-die ECC the mismatches are post-correction
errors, so the Naive profiler suffers all three challenges of the paper's
§4 — it can only learn from uncorrectable pre-correction error
combinations.
"""

from __future__ import annotations

from repro.profiling.base import Profiler

__all__ = ["NaiveProfiler"]


class NaiveProfiler(Profiler):
    """Round-based pattern testing through the corrected read path."""

    name = "Naive"
    #: Pure accumulate semantics: the base ``observe_many`` replays
    #: ``observe`` exactly, so whole cells batch through the kernel.
    batched = True
