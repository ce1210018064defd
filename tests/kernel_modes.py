"""Pin the simulation kernel and the GF(2) product kernel from a test.

Dispatch reads only what the code can observe, so these helpers patch
exactly that, for one test (pytest's ``monkeypatch`` undoes it):

* the kernel: ``simulate_cell`` sends a profiler class to the
  cell-batched kernel when it declares ``batched`` (and does not craft
  its own datawords); :func:`force_scalar_kernel` clears the flag on
  every registry class, so every profiler runs through ``simulate_word``;
* the GF(2) product: ``gf2.matmul`` takes its popcount kernel once a
  product reaches ``_AUTO_PACKED_WORK`` multiply-accumulates;
  :func:`force_gf2_tier` moves that threshold to 0 (``packed``: the
  popcount product everywhere) or past any operand (``unpacked``: the
  int64 product everywhere).  Elimination has one kernel, so no mode
  touches it.

:func:`kernel_mode` names the combinations the suites pin results
under; :data:`MODES` lists them.  Hypothesis tests, which cannot take
the function-scoped fixture, wrap their body in
``with pytest.MonkeyPatch.context() as monkeypatch:``.

A run keeps no per-round failure log, so the suites check what a kernel
hands each profiler instead: :func:`record_feed` logs one profiler's
datawords and observations (:func:`record_registry` does it for every
profiler ``simulate_cell`` builds), and :func:`check_feed` recomputes
each round's failure pattern from the word's inputs and asserts the log
matches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ecc import gf2
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.base import ReadMode
from repro.profiling.runner import cell_artifacts, post_correction_data_errors
from repro.utils.bits import int_to_bits

__all__ = [
    "MODES",
    "Feed",
    "check_feed",
    "force_gf2_tier",
    "force_scalar_kernel",
    "kernel_mode",
    "record_feed",
    "record_registry",
]

#: ``auto`` (the code's own dispatch), every profiler on
#: ``simulate_word``, and the popcount GF(2) product forced everywhere.
MODES = ("auto", "scalar", "packed")


def force_scalar_kernel(monkeypatch) -> None:
    """Route every registry profiler through ``simulate_word``."""
    for cls in PROFILER_REGISTRY.values():
        monkeypatch.setattr(cls, "batched", False)


def force_gf2_tier(monkeypatch, tier: str) -> None:
    """Make ``gf2.matmul`` take the ``packed`` (popcount) or ``unpacked``
    (int64) product for every operand."""
    threshold = {"packed": 0, "unpacked": math.inf}[tier]
    monkeypatch.setattr(gf2, "_AUTO_PACKED_WORK", threshold)


def kernel_mode(monkeypatch, mode: str) -> None:
    """Apply one of :data:`MODES`."""
    if mode == "scalar":
        force_scalar_kernel(monkeypatch)
    elif mode != "auto":
        force_gf2_tier(monkeypatch, mode)


@dataclass
class Feed:
    """What a kernel handed one profiler, as :func:`record_feed` logs it.

    Attributes:
        datawords: ``crafted_for_round``'s answer to each call (the
            scalar kernel asks once per round, the batched kernel never).
        observed: ``(round, mismatches)`` of each ``observe`` call.
        events: the events ``observe_many`` consumed, ``None`` if it was
            never called.
    """

    datawords: list = field(default_factory=list)
    observed: list = field(default_factory=list)
    events: list | None = None


def record_feed(profiler) -> Feed:
    """Log what a kernel hands ``profiler`` from now on.

    Instance attributes shadow the kernel-facing methods, so the class,
    and with it the kernel ``simulate_cell`` picks, stays the same.
    """
    feed = Feed()
    crafted, observe, observe_many = (
        profiler.crafted_for_round,
        profiler.observe,
        profiler.observe_many,
    )

    def logged_crafted(round_index):
        feed.datawords.append(crafted(round_index))
        return feed.datawords[-1]

    def logged_observe(round_index, mismatches):
        feed.observed.append((round_index, mismatches))
        return observe(round_index, mismatches)

    def logged_observe_many(events):
        feed.events = list(events)
        return observe_many(feed.events)

    profiler.crafted_for_round = logged_crafted
    profiler.observe = logged_observe
    profiler.observe_many = logged_observe_many
    return feed


def record_registry(monkeypatch) -> dict[str, list]:
    """Make every registry profiler built from now on log its :class:`Feed`.

    Returns ``{name: [(profiler, feed), ...]}`` in construction order,
    which is word order for ``simulate_cell``.
    """
    built: dict[str, list] = {}
    for name, cls in list(PROFILER_REGISTRY.items()):

        def __init__(self, *args, _cls=cls, _built=built.setdefault(name, []), **kwargs):
            _cls.__init__(self, *args, **kwargs)
            _built.append((self, record_feed(self)))

        recording = type(cls.__name__, (cls,), {"__init__": __init__})
        monkeypatch.setitem(PROFILER_REGISTRY, name, recording)
    return built


def check_feed(
    profiler, feed, profile, word_seed, num_rounds, orientation=None, artifacts=None
) -> list[tuple[int, ...]]:
    """Assert a kernel fed ``profiler`` what the word implies; return the failure patterns.

    Each round's pre-correction failure pattern is recomputed from the
    word's artifacts (built the way the kernels build them when none are
    given) and the dataword the profiler wrote: the standard schedule's
    row when it crafted none, else its crafted dataword, encoded.  A
    charged at-risk position fails iff its draw is below its
    probability.  A scalar run must have observed each round's
    consequence, round by round; a batched run's ``observe_many`` events
    must be the first round of each distinct non-empty pattern, in round
    order, with its consequence.
    """
    code = profiler.code
    if artifacts is None:
        artifacts = cell_artifacts(
            [code], [profiler._pattern], [profile.count], [word_seed], num_rounds
        )[0]
    datawords = feed.datawords or [None] * num_rounds
    assert len(datawords) == num_rounds
    written = np.array(artifacts.codewords)
    for round_index, dataword in enumerate(datawords):
        if dataword is not None:
            written[round_index] = code.encode(int_to_bits(dataword, code.k))
    charged = written if orientation is None else orientation.charged_mask(written)
    positions = np.asarray(profile.positions, dtype=np.intp)
    below = artifacts.draws < np.asarray(profile.probabilities, dtype=float)
    failed = charged[:, positions].astype(bool) & below
    failures = [tuple(positions[row].tolist()) for row in failed]
    consequences: dict = {}
    expected = []
    for round_index, failed in enumerate(failures):
        key = (profiler.read_mode_for(round_index), failed)
        if key not in consequences:
            if key[0] == ReadMode.BYPASS:
                consequences[key] = frozenset(p for p in failed if p < code.k)
            else:
                consequences[key] = post_correction_data_errors(code, failed)
        expected.append((round_index, consequences[key]))
    if feed.events is None:
        assert feed.observed == expected
    else:
        first_rounds: dict[tuple[int, ...], int] = {}
        for round_index, failed in enumerate(failures):
            if failed:
                first_rounds.setdefault(failed, round_index)
        assert feed.events == [expected[r] for r in first_rounds.values()]
    return failures
