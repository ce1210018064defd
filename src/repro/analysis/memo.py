"""Process-local memoization for the exponential at-risk analyses.

:func:`repro.analysis.atrisk.compute_ground_truth` enumerates every
nonempty subset of a word's at-risk positions, and
:func:`repro.analysis.atrisk.predict_indirect_from_direct` enumerates
every combination of identified direct-risk bits — both exponential in
their input size and both pure functions of (parity-check matrix, input
positions).  The Monte-Carlo sweep engine re-encounters the same inputs
constantly: every probability level of a sweep shares the same sampled
at-risk positions, and HARP-A rediscovers the same observed sets across
probability levels and words.

The adaptive profilers add a third family of repeated work: BEEP solves a
GF(2) charge system per crafted round whose inputs are (parity-check
matrix, anchor set, hypothesis pair), and expands an O(n²) aliasing-pair
table per observed target — both pure in the code, yet re-derived by
every word of a sweep cell that shares that code.  The caches here
collapse those too: crafted-pattern epochs holding one eliminated
anchor-set base plus its lazily-resolved pair assignments
(:data:`crafted_pattern_cache`, which stores them as dataword bitmasks,
immutable and so shared freely), and per-target aliasing pairs
(:data:`beep_expansion_cache`).

This module provides bounded LRU caches for these functions, keyed on the
parity-check matrix bytes plus the input positions.  The caches are
**process-local**: each worker process of the parallel sweep engine owns
an independent cache, so no locking or shared state is needed — results
are deterministic regardless of cache state, making this safe under any
``multiprocessing`` start method (``fork`` inherits a snapshot; ``spawn``
starts cold; both converge to identical outputs).

Above the process-local tier sits an optional **shared tier**
(:mod:`repro.analysis.shared_memo`): when a sweep runs with
``shared_cache=True`` the parent precomputes the per-code artifacts once
and exposes them to pool workers through a shared-memory overlay.
:meth:`Memo.get` consults that overlay on every local miss — same keys,
same values — so a cold worker resolves precomputed entries without
re-deriving them; hits land in the local store and count as
``stats.shared_hits``.

Cache statistics (:class:`CacheStats`) are exposed for tests and
benchmarks to verify, e.g., that a sweep enumerates each word's ground
truth exactly once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

from repro.analysis import shared_memo
from repro.analysis.atrisk import (
    ChargeSystem,
    GroundTruth,
    compute_ground_truth,
    predict_indirect_from_direct,
)
from repro.ecc.code_analysis import aliasing_pairs_for_target
from repro.ecc.linear_code import SystematicCode
from repro.memory.error_model import WordErrorProfile

__all__ = [
    "CacheStats",
    "CodeAnalysisCaches",
    "CraftedEpoch",
    "Memo",
    "code_caches",
    "ground_truth_cache",
    "indirect_prediction_cache",
    "crafted_pattern_cache",
    "beep_expansion_cache",
    "mismatch_consequence_cache",
    "cached_ground_truth",
    "cached_predict_indirect",
    "cached_aliasing_pairs",
    "clear_analysis_caches",
]

T = TypeVar("T")


@dataclass
class CacheStats:
    """Hit/miss counters of one memo cache.

    ``shared_hits`` counts local misses that were resolved from the
    shared overlay (:mod:`repro.analysis.shared_memo`) instead of being
    recomputed; they are *not* included in ``hits`` or ``misses``, so
    existing exactly-once assertions on ``misses`` keep their meaning.
    """

    hits: int = 0
    misses: int = 0
    shared_hits: int = 0

    @property
    def calls(self) -> int:
        return self.hits + self.misses + self.shared_hits

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.shared_hits = 0


class Memo:
    """A bounded LRU key-value memo with hit/miss accounting.

    Values are computed at most once per key while resident; the least
    recently used entry is evicted when ``max_entries`` is exceeded.
    Not thread-safe by design — each process (and each sweep worker)
    owns its own instance.
    """

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._store: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The cached value for ``key``, computing and inserting on miss.

        A local miss consults the shared overlay first (see module
        docstring); only keys absent from both tiers are computed.
        """
        if key in self._store:
            self._store.move_to_end(key)
            self.stats.hits += 1
            return self._store[key]  # type: ignore[return-value]
        value = shared_memo.overlay_lookup(key)
        if value is shared_memo.MISS:
            value = compute()
            self.stats.misses += 1
        else:
            self.stats.shared_hits += 1
        self._store[key] = value
        if len(self._store) > self.max_entries:
            self._store.popitem(last=False)
        return value

    def peek_many(self, keys: list) -> list:
        """The cached value of each key, ``None`` where absent, computing nothing.

        Consults the shared overlay like :meth:`get` (a resolved overlay
        entry lands in the local store and counts as a shared hit); a
        local hit counts as a hit, and an absent key leaves the
        statistics alone, so batch producers can probe-then-:meth:`insert`
        without double-counting misses.  The batched simulation kernel
        probes each cell's distinct normal-read patterns in one call.
        """
        store = self._store
        move_to_end = store.move_to_end
        miss = shared_memo.MISS
        out: list = []
        append = out.append
        hits = 0
        for key in keys:
            value = store.get(key, miss)
            if value is not miss:
                move_to_end(key)
                hits += 1
                append(value)
                continue
            value = shared_memo.overlay_lookup(key)
            if value is miss:
                append(None)
                continue
            self.stats.shared_hits += 1
            store[key] = value
            if len(store) > self.max_entries:
                store.popitem(last=False)
            append(value)
        self.stats.hits += hits
        return out

    def insert(self, key: Hashable, value: T) -> T:
        """Insert a value computed outside the memo (counts as one miss).

        The batched simulation kernel resolves whole groups of keys in
        one vectorized pass instead of calling :meth:`get` per key; each
        insert still increments ``stats.misses`` exactly once, so the
        exactly-once accounting the tests pin keeps its meaning.
        """
        self.stats.misses += 1
        self._store[key] = value
        self._store.move_to_end(key)
        if len(self._store) > self.max_entries:
            self._store.popitem(last=False)
        return value

    def clear(self) -> None:
        self._store.clear()
        self.stats.reset()


def _code_key(code: SystematicCode) -> tuple:
    """Hashable identity of a code: capability + parity-check matrix bytes."""
    return (code.t, code.parity_submatrix.shape, code.parity_bytes)


#: Process-local caches (one set per worker process of a parallel sweep).
ground_truth_cache = Memo(max_entries=8192)
indirect_prediction_cache = Memo(max_entries=8192)
#: Crafted-pattern epochs, one per (code, anchor set); each holds its
#: lazily-resolved pair -> assignment bitmask dict (see CraftedEpoch).
#: Epochs are small (a dict of ints), but a paper-scale sweep touches
#: tens of thousands of distinct anchor sets — the bound must exceed
#: that working set or the LRU thrashes mid-sweep.
crafted_pattern_cache = Memo(max_entries=131072)
#: Per-(code, target) aliasing-pair tables for BEEP hypothesis expansion.
beep_expansion_cache = Memo(max_entries=8192)
#: Decode consequences of one (code, failure pattern) on the normal read
#: path: the post-correction data errors a profiler observes when that
#: pattern fails.  Bypass reads decode nothing (their mismatches are the
#: failed data bits), so no kernel stores them here.  Promoted out of
#: ``simulate_word``'s per-run dict so repeated cells on the same code —
#: every (probability, profiler) cell re-simulates the same words —
#: share resolved patterns across runs and kernels.  A paper-scale cell
#: sees tens of thousands of distinct patterns per code; the bound must
#: hold a sweep's working set or the LRU thrashes.
mismatch_consequence_cache = Memo(max_entries=131072)


def cached_ground_truth(
    code: SystematicCode,
    at_risk: tuple[int, ...] | WordErrorProfile,
) -> GroundTruth:
    """Memoized :func:`~repro.analysis.atrisk.compute_ground_truth`.

    Keyed on (parity-check matrix bytes, at-risk positions);
    the word's per-bit probabilities are irrelevant to ground truth, so a
    sweep's probability levels all share one enumeration.
    """
    positions = (
        at_risk.positions if isinstance(at_risk, WordErrorProfile) else tuple(at_risk)
    )
    key = ("gt", _code_key(code), positions)
    return ground_truth_cache.get(key, lambda: compute_ground_truth(code, positions))


def cached_predict_indirect(
    code: SystematicCode,
    direct_bits: frozenset[int] | set[int],
) -> frozenset[int]:
    """Memoized :func:`~repro.analysis.atrisk.predict_indirect_from_direct`.

    Keyed on (parity-check matrix bytes, sorted direct bits).  HARP-A
    refreshes its prediction after every direct-risk discovery, and the
    same (code, observed set) pairs recur across the sweep's probability
    levels — this cache collapses those repeats.
    """
    bits = tuple(sorted(int(b) for b in direct_bits))
    key = ("ind", _code_key(code), bits)
    return indirect_prediction_cache.get(
        key, lambda: predict_indirect_from_direct(code, frozenset(bits))
    )


class CraftedEpoch:
    """Lazily-resolved crafted assignments of one (code, anchor set).

    The eliminated anchor-set base is built at most once; each hypothesis
    pair resolves through a two-constraint
    :meth:`~repro.analysis.atrisk.ChargeSystem.with_charged` update into
    a plain dict, so a profiler's per-round lookup is a single dict hit —
    and every word, round, and run that reaches the same (code, anchors)
    shares the already-resolved pairs.  All-data systems (anchors and
    pair within the data bits) short-circuit: data bits are free
    variables, so the canonical solution is just the OR of the pinned
    bits.  Values are dataword bitmasks (bit ``i`` = data bit ``i``), the
    solver's own :meth:`~repro.analysis.atrisk.ChargeSystem.solution_int`,
    or None for infeasible pairs.
    """

    __slots__ = ("code", "anchors", "_anchor_mask", "_base", "patterns")

    def __init__(self, code: SystematicCode, anchors: tuple[int, ...]) -> None:
        self.code = code
        self.anchors = anchors
        #: OR of the anchor bits, or None when an anchor is a parity
        #: position (generic solver path only).
        self._anchor_mask: int | None = 0
        for anchor in anchors:
            if 0 <= anchor < code.k:
                self._anchor_mask |= 1 << anchor
            else:
                self._anchor_mask = None
                break
        self._base: ChargeSystem | None = None
        self.patterns: dict[tuple[int, int], int | None] = {}

    def assignment(self, pair: tuple[int, int]) -> int | None:
        """The crafted assignment bitmask for ``pair``, resolving on miss."""
        patterns = self.patterns
        if pair in patterns:
            return patterns[pair]
        code = self.code
        a, b = pair
        if self._anchor_mask is not None and 0 <= a < code.k and 0 <= b < code.k:
            solved = self._anchor_mask | (1 << a) | (1 << b)
        else:
            base = self._base
            if base is None:
                base = self._base = ChargeSystem(code, self.anchors)
            solved = base.with_charged(pair).solution_int()
        patterns[pair] = solved
        return solved


class CodeAnalysisCaches:
    """Per-code bound view of the adaptive-profiler caches (hot-path handle).

    BEEP performs a cache lookup per crafted round; binding the code key
    once per profiler instance keeps that lookup to a tuple build plus
    one :class:`Memo` access instead of re-deriving the parity-matrix key
    every round.  Obtain instances through :func:`code_caches` — they are
    shared per code contents, and all state lives in the module caches.
    """

    __slots__ = ("code", "_key")

    def __init__(self, code: SystematicCode) -> None:
        self.code = code
        self._key = _code_key(code)

    def crafted_epoch(self, anchors: tuple[int, ...]) -> CraftedEpoch:
        """The shared :class:`CraftedEpoch` for one sorted anchor tuple.

        Profilers re-fetch this only when their anchor set grows (a
        handful of times per run); the per-round pair lookup then
        bypasses the memo entirely via :meth:`CraftedEpoch.assignment`.
        """
        key = ("epoch", self._key, anchors)
        return crafted_pattern_cache.get(key, lambda: CraftedEpoch(self.code, anchors))

    def decode_consequences(
        self, failed: tuple[int, ...], compute: Callable[[], frozenset[int]]
    ) -> frozenset[int]:
        """Memoized mismatch set of one failure pattern read through on-die ECC.

        A normal read observes the pattern's post-correction data errors,
        pure in (parity-check matrix, failed positions).  ``compute``
        supplies the decoder (the caches stay import-free of the
        profiling layer); the scalar ``simulate_word`` keeps a per-run
        dict in front of this shared tier, so the memo is consulted once
        per distinct pattern per run.  Bypass reads never come here:
        their mismatches are the failed data bits themselves.
        """
        return mismatch_consequence_cache.get(("mis", self._key, failed), compute)

    def peek_decode_consequences_many(
        self, patterns: list[tuple[int, ...]]
    ) -> list[frozenset[int] | None]:
        """The cached mismatch set of each pattern, ``None`` where absent."""
        key = self._key
        return mismatch_consequence_cache.peek_many([("mis", key, failed) for failed in patterns])

    def insert_decode_consequences(
        self, failed: tuple[int, ...], mismatches: frozenset[int]
    ) -> frozenset[int]:
        """Share a mismatch set resolved by a batched producer."""
        return mismatch_consequence_cache.insert(("mis", self._key, failed), mismatches)

    def aliasing_pairs(self, target: int) -> tuple[tuple[int, int], ...]:
        """Memoized :func:`repro.ecc.code_analysis.aliasing_pairs_for_target`.

        The pair table is pure in (parity-check matrix, target); without
        the cache every word sharing a code rebuilds the same O(n²) table
        for every newly observed post-correction error.
        """
        key = ("pairs", self._key, target)
        return beep_expansion_cache.get(
            key, lambda: aliasing_pairs_for_target(self.code, target)
        )


#: Shared per-code handles (content-addressed; cleared with the caches).
_code_caches_registry: dict[tuple, CodeAnalysisCaches] = {}


def code_caches(code: SystematicCode) -> CodeAnalysisCaches:
    """The shared :class:`CodeAnalysisCaches` handle for ``code``."""
    key = _code_key(code)
    handle = _code_caches_registry.get(key)
    if handle is None:
        handle = CodeAnalysisCaches(code)
        _code_caches_registry[key] = handle
    return handle


def cached_aliasing_pairs(
    code: SystematicCode, target: int
) -> tuple[tuple[int, int], ...]:
    """Functional spelling of :meth:`CodeAnalysisCaches.aliasing_pairs`."""
    return code_caches(code).aliasing_pairs(target)


def clear_analysis_caches() -> None:
    """Empty all analysis caches and reset their statistics (tests/benchmarks)."""
    ground_truth_cache.clear()
    indirect_prediction_cache.clear()
    crafted_pattern_cache.clear()
    beep_expansion_cache.clear()
    mismatch_consequence_cache.clear()
    _code_caches_registry.clear()
