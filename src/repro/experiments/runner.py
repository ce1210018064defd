"""Parallel, cache-aware Monte-Carlo sweep engine for the profiler exhibits.

Executes every (pre-correction error count, per-bit probability, profiler)
cell of a :class:`~repro.experiments.config.SweepConfig` and reduces each
simulated word to the compact :class:`WordMetrics` record that Figs 6-9
consume.

Architecture
============

The grid decomposes into self-contained, picklable work units — one
:class:`SweepShard` per cell — executed by a pluggable
:class:`~repro.experiments.backends.ExecutionBackend`: in-process
(``SerialBackend``), across a local
``concurrent.futures.ProcessPoolExecutor`` (``ProcessPoolBackend``,
what ``jobs>1`` selects, with ``jobs=0`` meaning one worker per CPU),
or shipped to worker processes on any machine as authenticated
``repro-wire-v1`` frames (``SocketBackend``;
``python -m repro worker --connect HOST:PORT``).  Every quantity a
shard needs is re-derived from the experiment seed through the
:func:`~repro.utils.rng.derive_seed` key-path scheme, so results are
bit-identical regardless of backend, worker count, scheduling order, or
start method; ``run_sweep(config, jobs=N)`` and
``run_sweep(config, backend=...)`` equal ``run_sweep(config)`` cell for
cell.

Completed cells stream: ``run_sweep`` maps its shards through the
drivers' one campaign loop (:func:`~repro.experiments.campaign.run_campaign`),
and ``run_sweep(config, resume=PATH)`` appends each cell to a
:class:`~repro.experiments.store.ShardStore` JSONL file the moment a
backend delivers it — an interrupted sweep rerun with the same
``resume`` path skips every persisted cell and returns the store's cells
with the newly computed ones, reproducing the paper artifact's
"parallelize across machines, aggregate the raw files afterwards"
workflow (§A.7).

Redundant work is eliminated by two layers of process-local caches:

* **Analysis layer** (:mod:`repro.analysis.memo`): the exponential
  ground-truth enumeration is keyed on (parity-check matrix bytes,
  at-risk positions) — the positions depend only on (seed, error count),
  never on the probability, so each sampled word is enumerated exactly
  once per sweep instead of once per probability level.  HARP-A's
  indirect-prediction enumeration is memoized the same way, and the
  adaptive profilers' crafted-pattern solves and aliasing-pair tables
  are shared across every word of a cell that uses the same code.
* **Engine layer** (this module): word sampling is hoisted out of the
  probability loop (``_words_for``), and the simulation inputs that
  repeat across cells — each word's encoded standard pattern schedule
  and its Bernoulli failure draws — are built for a whole
  error-count block at once by
  :func:`~repro.profiling.runner.cell_artifacts` and cached one block
  per process (``_block_artifacts``); each shard hands its slice to
  :func:`~repro.profiling.runner.simulate_cell`, which picks the kernel.

Each worker process owns independent caches (no locks, no shared state);
a ``fork`` start inherits the parent's warm caches, a ``spawn`` start
begins cold, and both produce identical outputs.

Fairness (paper §7.1.2) is preserved exactly as before: ground truth is
shared by all profilers of a word, and failure draws flow from the word
seed alone, so every profiler sees the same ECC words, pre-correction
error patterns, and data patterns.

Per-cell wall-clock timings are collected in ``SweepResult.timings`` and
rendered by :func:`repro.experiments.reporting.timing_table`; the CLI
exposes both knobs as ``python -m repro fig6 --jobs 4 --timings``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from repro.analysis import shared_memo
from repro.analysis.atrisk import GroundTruth, max_simultaneous_post_errors
from repro.analysis.memo import cached_ground_truth
from repro.experiments.backends import ExecutionBackend
from repro.ecc.hamming import random_sec_code
from repro.ecc.linear_code import SystematicCode
from repro.memory.error_model import WordErrorProfile, sample_word_profile
from repro.memory.patterns import make_pattern
from repro.profiling.runner import (
    WordArtifacts,
    WordRunResult,
    cell_artifacts,
    simulate_cell,
)
from repro.utils.rng import derive_rng, derive_seed

__all__ = [
    "WordMetrics",
    "SweepCell",
    "SweepResult",
    "SweepShard",
    "shard_grid",
    "run_shard",
    "run_sweep",
    "metrics_for_run",
    "metrics_for_words",
    "clear_engine_caches",
]


@dataclass(frozen=True)
class WordMetrics:
    """Per-round metrics of one (profiler, word) simulation.

    All lists have one entry per profiling round (cumulative state *after*
    that round).
    """

    direct_total: int
    direct_identified: tuple[int, ...]
    indirect_total: int
    indirect_missed: tuple[int, ...]
    post_total: int
    post_identified: tuple[int, ...]
    #: Required secondary-ECC capability per round (Fig 9 metric).
    capability: tuple[int, ...]
    #: 1-based round of first direct-risk identification, censored to the
    #: simulated round count when no direct bit was ever identified (Fig 7).
    first_direct_round: int


@dataclass
class SweepCell:
    """All word metrics of one (error count, probability, profiler) cell."""

    error_count: int
    probability: float
    profiler: str
    words: list[WordMetrics]


@dataclass
class SweepResult:
    """Results of a full sweep, keyed by (error_count, probability, profiler).

    Attributes:
        config: the sweep configuration the cells were computed from.
        cells: per-cell word metrics.
        timings: per-cell wall-clock seconds as measured by whichever
            process executed the cell (empty for deserialized results).
        quarantined: cell keys a ``continue_past_quarantine`` run set
            aside instead of computing (empty everywhere else); the
            corresponding keys are absent from ``cells`` until a
            targeted re-run fills them in.
    """

    config: object
    cells: dict[tuple[int, float, str], SweepCell]
    timings: dict[tuple[int, float, str], float] = field(default_factory=dict)
    quarantined: tuple = ()

    def cell(self, error_count: int, probability: float, profiler: str) -> SweepCell:
        return self.cells[(error_count, probability, profiler)]


def metrics_for_run(
    run: WordRunResult,
    ground_truth: GroundTruth,
    num_rounds: int,
) -> WordMetrics:
    """Reduce a simulation trace to the compact per-word metrics record.

    The required-capability metric is recomputed only at rounds where the
    identified set actually grows (identification is monotonic), keeping
    the reduction linear in practice.

    This is the single-word reference reduction; the engine reduces all
    words of a cell at once through the bit-identical batched
    :func:`metrics_for_words`, whose numpy set-ops amortize across the
    cell.
    """
    direct = ground_truth.direct_at_risk
    indirect = ground_truth.indirect_at_risk
    post = ground_truth.post_correction_at_risk

    direct_identified: list[int] = []
    indirect_missed: list[int] = []
    post_identified: list[int] = []
    capability: list[int] = []
    first_direct = num_rounds
    previous: frozenset[int] | None = None
    previous_capability = 0
    for round_index, identified in enumerate(run.identified_per_round):
        if previous is None or identified != previous:
            missed = post - identified
            previous_capability = max_simultaneous_post_errors(ground_truth, missed)
            previous = identified
        direct_hits = len(identified & direct)
        direct_identified.append(direct_hits)
        indirect_missed.append(len(indirect - identified))
        post_identified.append(len(identified & post))
        capability.append(previous_capability)
        if direct_hits and first_direct == num_rounds:
            # Record the first round with a direct identification; a first
            # hit exactly at the censoring bound is indistinguishable from
            # (and recorded as) the censored value, matching the paper's
            # conservative Fig 7 plotting.
            first_direct = round_index + 1
    return WordMetrics(
        direct_total=len(direct),
        direct_identified=tuple(direct_identified),
        indirect_total=len(indirect),
        indirect_missed=tuple(indirect_missed),
        post_total=len(post),
        post_identified=tuple(post_identified),
        capability=tuple(capability),
        first_direct_round=first_direct,
    )


def metrics_for_words(
    runs: list[WordRunResult],
    ground_truths: list[GroundTruth],
    num_rounds: int,
) -> list[WordMetrics]:
    """Batched :func:`metrics_for_run` over every word of a cell.

    Each run arrives as its change points (:attr:`WordRunResult.changes`),
    so its segments of identical identified sets come straight from the
    kernels: a segment starts at round 0 and at every change point whose
    identified set differs by value from the segment before it.  The
    per-round set intersections that the reference loop evaluates 4x per
    round become numpy set-ops over the *whole cell*: every metric
    member's first-seen segment lands in
    one global ``bincount``/``cumsum`` (counting, per segment, how many
    of the word's at-risk positions are identified so far), and the
    per-segment counts expand back to per-round series with one
    ``repeat`` per metric.  The exponential required-capability metric
    is evaluated once per segment, exactly as often as the reference.
    Outputs are bit-identical to ``[metrics_for_run(r, t, num_rounds)
    for r, t in zip(runs, ground_truths)]`` — property-tested, and the
    speedup is pinned in ``benchmarks/bench_engine.py``.
    """
    words = list(zip(runs, ground_truths))
    if not words:
        return []
    seg_starts_per_word: list[list[int]] = []
    segs_per_word: list[int] = []
    trace_lengths: list[int] = []
    seg_end_parts: list[int] = []  # each word's starts[1:] + trace length
    first_seen_direct: list[int] = []  # global segment index per member, -1 = never
    first_seen_indirect: list[int] = []
    first_seen_post: list[int] = []
    indirect_totals: list[int] = []
    capability_parts: list[int] = []
    base = 0
    for run, truth in words:
        rounds = run.num_rounds
        starts: list[int] = []
        segment_sets: list[frozenset[int]] = []
        if rounds:
            starts.append(0)
            segment_sets.append(frozenset())
            for round_index, identified, _ in run.changes:
                if identified != segment_sets[-1]:
                    if round_index == starts[-1]:
                        segment_sets[-1] = identified  # a change in round 0
                    else:
                        starts.append(round_index)
                        segment_sets.append(identified)
            seg_end_parts.extend(starts[1:])
            seg_end_parts.append(rounds)
        seg_starts_per_word.append(starts)
        segs_per_word.append(len(starts))
        trace_lengths.append(rounds)
        post = truth.post_correction_at_risk
        first_seen: dict[int, int] = {}
        previous: frozenset[int] = frozenset()
        for segment_index, identified in enumerate(segment_sets):
            for position in identified - previous:
                first_seen[position] = segment_index
            previous = identified
            capability_parts.append(max_simultaneous_post_errors(truth, post - identified))
        get = first_seen.get
        first_seen_direct.extend(
            base + local if local >= 0 else -1
            for local in (get(p, -1) for p in truth.direct_at_risk)
        )
        first_seen_indirect.extend(
            base + local if local >= 0 else -1
            for local in (get(p, -1) for p in truth.indirect_at_risk)
        )
        first_seen_post.extend(
            base + local if local >= 0 else -1 for local in (get(p, -1) for p in post)
        )
        indirect_totals.append(len(truth.indirect_at_risk))
        base += len(starts)

    total_segments = base
    segs = np.asarray(segs_per_word, dtype=np.int64)
    word_base = np.concatenate(([0], np.cumsum(segs)[:-1]))
    starts_flat = np.asarray(
        [start for starts in seg_starts_per_word for start in starts], dtype=np.int64
    )
    seg_lengths = np.asarray(seg_end_parts, dtype=np.int64) - starts_flat

    def segment_counts(first_seen_global: list[int]) -> Any:
        """Per-segment identified-member counts, all words at once.

        ``cumsum(bincount(first seen))`` counts, for every global
        segment, the members first identified at or before it; each
        word's own counts are that running total minus the total at the
        word's base segment.
        """
        seen = np.asarray(first_seen_global, dtype=np.int64)
        seen = seen[seen >= 0]
        running = np.cumsum(np.bincount(seen, minlength=total_segments))
        if not total_segments:
            return running
        preceding = np.concatenate(([0], running))[word_base]
        return running - np.repeat(preceding, segs)

    direct_segment = segment_counts(first_seen_direct)
    indirect_segment = np.repeat(
        np.asarray(indirect_totals, dtype=np.int64), segs
    ) - segment_counts(first_seen_indirect)
    post_segment = segment_counts(first_seen_post)
    capability_segment = np.asarray(capability_parts, dtype=np.int64)

    boundaries = np.cumsum(trace_lengths)[:-1]
    direct_rounds = np.split(np.repeat(direct_segment, seg_lengths), boundaries)
    indirect_rounds = np.split(np.repeat(indirect_segment, seg_lengths), boundaries)
    post_rounds = np.split(np.repeat(post_segment, seg_lengths), boundaries)
    capability_rounds = np.split(np.repeat(capability_segment, seg_lengths), boundaries)

    metrics: list[WordMetrics] = []
    cursor = 0
    for word_index, (run, truth) in enumerate(words):
        count = segs_per_word[word_index]
        hit_segments = np.flatnonzero(direct_segment[cursor : cursor + count])
        first_direct = (
            seg_starts_per_word[word_index][int(hit_segments[0])] + 1
            if hit_segments.size
            else num_rounds
        )
        metrics.append(
            WordMetrics(
                direct_total=len(truth.direct_at_risk),
                direct_identified=tuple(direct_rounds[word_index].tolist()),
                indirect_total=len(truth.indirect_at_risk),
                indirect_missed=tuple(indirect_rounds[word_index].tolist()),
                post_total=len(truth.post_correction_at_risk),
                post_identified=tuple(post_rounds[word_index].tolist()),
                capability=tuple(capability_rounds[word_index].tolist()),
                first_direct_round=first_direct,
            )
        )
        cursor += count
    return metrics


# ----------------------------------------------------------------------
# Process-local engine caches
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _WordContext:
    """Probability-independent state of one sampled ECC word."""

    code: SystematicCode
    positions: tuple[int, ...]
    ground_truth: GroundTruth
    word_seed: int


@lru_cache(maxsize=512)
def _code_for(seed: int, k: int, code_index: int) -> SystematicCode:
    """The sweep's ``code_index``-th random SEC code (cached per process)."""
    return random_sec_code(k, derive_rng(seed, "code", k, code_index))


def _sample_words(config, error_count: int) -> tuple[_WordContext, ...]:
    """Sample the word contexts of one error count (uncached core).

    Word sampling depends only on (seed, error count) so that every
    probability level and every profiler sees the exact same codes and
    at-risk positions — the probability only rescales the failure draws.
    Ground truth goes through the analysis-layer memo, so each distinct
    (code, positions) pair is enumerated once per process per sweep.
    """
    words = []
    for code_index in range(config.num_codes):
        code = _code_for(config.seed, config.k, code_index)
        for word_index in range(config.words_per_code):
            word_rng = derive_rng(config.seed, "word", error_count, code_index, word_index)
            template = sample_word_profile(code, error_count, 1.0, word_rng)
            ground_truth = cached_ground_truth(code, template.positions)
            word_seed = derive_seed(config.seed, "draws", error_count, code_index, word_index)
            words.append(_WordContext(code, template.positions, ground_truth, word_seed))
    return tuple(words)


@lru_cache(maxsize=64)
def _words_for(config, error_count: int) -> tuple[_WordContext, ...]:
    """Word contexts of one error count, hoisted out of the probability loop.

    Cached on the config — which must therefore be hashable, as the frozen
    :class:`~repro.experiments.config.SweepConfig` is — so a sweep samples
    each (error_count, code, word) tuple exactly once per process.  A
    shared-cache worker resolves the whole tuple (ground truths included)
    from the parent's published overlay instead of re-sampling.
    """
    shared = shared_memo.overlay_lookup(("swords", config, error_count))
    if shared is not shared_memo.MISS:
        return shared
    return _sample_words(config, error_count)


@lru_cache(maxsize=1)
def _block_artifacts(config, error_count: int) -> tuple[WordArtifacts, ...]:
    """The simulation inputs of one error count's words, in word order.

    Every cell of an error-count block reads all of the block's words,
    and the grid is error-count-major, so one cached block serves a
    worker's whole run of cells; :func:`cell_artifacts` builds it in one
    vectorized pass.
    """
    words = _words_for(config, error_count)
    return tuple(
        cell_artifacts(
            [ctx.code for ctx in words],
            [make_pattern(config.pattern, ctx.word_seed) for ctx in words],
            [len(ctx.positions) for ctx in words],
            [ctx.word_seed for ctx in words],
            config.num_rounds,
        )
    )


def clear_engine_caches() -> None:
    """Empty the engine-layer caches (tests and benchmarks only).

    Does not touch the analysis-layer caches; see
    :func:`repro.analysis.memo.clear_analysis_caches` for those.
    """
    _code_for.cache_clear()
    _words_for.cache_clear()
    _block_artifacts.cache_clear()


# ----------------------------------------------------------------------
# Work units and execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepShard:
    """One self-contained, picklable unit of sweep work (a single cell).

    A shard carries everything needed to recompute its cell from scratch:
    the full config plus the cell coordinates.  Execution is a pure
    function of the shard, so shards may run in any process, in any
    order, with bit-identical results.
    """

    config: Any
    error_count: int
    probability: float
    profiler: str

    @property
    def key(self) -> tuple[int, float, str]:
        return (self.error_count, self.probability, self.profiler)


def shard_grid(config) -> list[SweepShard]:
    """Decompose a sweep config into its cell shards, in grid order.

    The error count varies slowest, so contiguous chunks handed to one
    worker share their sampled words and ground truths via the
    process-local caches.
    """
    return [
        SweepShard(config=config, error_count=error_count, probability=probability, profiler=name)
        for error_count in config.error_counts
        for probability in config.probabilities
        for name in config.profilers
    ]


#: Words reduced per :func:`metrics_for_words` call inside a shard: large
#: enough to amortize the numpy set-ops, small enough that a PAPER-scale
#: cell (2500 words) never holds every simulation trace at once.
_METRICS_BATCH = 256


def run_shard(shard: SweepShard) -> tuple[SweepCell, float]:
    """Execute one cell shard, returning its cell and wall-clock seconds.

    Words simulate and reduce in :data:`_METRICS_BATCH`-sized groups so a
    worker's peak memory holds one group's traces, not the whole cell's.
    Each group goes through :func:`~repro.profiling.runner.simulate_cell`
    with its slice of the block's cached inputs (:func:`_block_artifacts`).
    """
    started = time.perf_counter()
    config = shard.config
    words = _words_for(config, shard.error_count)
    artifacts = _block_artifacts(config, shard.error_count)
    metrics: list[WordMetrics] = []
    for start in range(0, len(words), _METRICS_BATCH):
        group = words[start : start + _METRICS_BATCH]
        runs = simulate_cell(
            [shard.profiler],
            [ctx.code for ctx in group],
            [
                WordErrorProfile(ctx.positions, tuple(shard.probability for _ in ctx.positions))
                for ctx in group
            ],
            [ctx.word_seed for ctx in group],
            config.num_rounds,
            config.pattern,
            artifacts=artifacts[start : start + _METRICS_BATCH],
        )[shard.profiler]
        metrics.extend(
            metrics_for_words(runs, [ctx.ground_truth for ctx in group], config.num_rounds)
        )
    cell = SweepCell(
        error_count=shard.error_count,
        probability=shard.probability,
        profiler=shard.profiler,
        words=metrics,
    )
    return cell, time.perf_counter() - started


def _sweep_chunksize(config, worker_count: int) -> int:
    """Chunk size aligning pool chunks to whole error-count blocks.

    Grid order is error-count-major, so a block's word sampling and
    exponential ground-truth enumeration stay on one worker; when there
    are fewer blocks than workers, each block splits as evenly as
    possible instead of starving the pool.
    """
    blocks = max(1, len(config.error_counts))
    block_size = max(1, len(config.probabilities) * len(config.profilers))
    if blocks >= worker_count:
        return block_size
    splits_per_block = -(-worker_count // blocks)  # ceil division
    return max(1, block_size // splits_per_block)


def run_sweep(
    config,
    jobs: int | None = None,
    backend: ExecutionBackend | str | None = None,
    resume: str | None = None,
    progress: bool | float = False,
    shared_cache: bool = False,
) -> SweepResult:
    """Execute the full (error count x probability x profiler) grid.

    Args:
        config: a :class:`~repro.experiments.config.SweepConfig` (or any
            compatible object; it must be hashable — and picklable for
            any multi-process backend — because word sampling is cached
            per config).
        jobs: worker processes.  ``None``/``1`` runs serially in-process;
            ``N > 1`` uses a pool of ``N``; ``0`` uses one per CPU.  The
            result is bit-identical for every setting.
        backend: execution backend instance or spec string (``serial``,
            ``process``, ``socket``, ``socket://HOST:PORT``); ``None``
            infers serial/process-pool from ``jobs``.  Bit-identical
            across all backends.
        resume: path to a :class:`~repro.experiments.store.ShardStore`
            JSONL file.  Completed cells stream to it as they finish,
            already-persisted cells are skipped on restart, and the
            returned result merges stored and fresh cells — equal to an
            uninterrupted run, cell for cell.
        progress: print periodic grid-coverage/ETA lines to stderr via
            :class:`~repro.experiments.monitor.ProgressReporter` as
            cells complete (``True`` = default cadence, a float = that
            many seconds between lines).  Purely observational: results
            are byte-identical with it on or off.
        shared_cache: precompute the sweep's per-code artifacts (word
            contexts with ground truths, aliasing tables) once in this
            process and publish them through
            :mod:`repro.analysis.shared_memo` before the map starts.
            Process-pool workers attach the shared block (fork children
            inherit the warm overlay outright) instead of re-deriving
            each other's solves; the block is destroyed when the map
            drains.  Bit-identical on or off; serial runs simply start
            warm, and socket workers (possibly on other machines)
            ignore it.

    A backend running in continue-past-quarantine mode may set shards
    aside instead of executing them; their keys come back on
    ``SweepResult.quarantined`` (and as ``quarantine`` records in the
    ``resume`` store) so a targeted re-run of the same command can
    compute exactly the missing cells.
    """
    from repro.experiments.campaign import run_campaign
    from repro.experiments.store import SWEEP_STORE

    campaign = run_campaign(
        SWEEP_STORE,
        config,
        shard_grid,
        run_shard,
        # Chunk size derives from the *full* grid even when resuming.  On
        # a fresh run the chunks then align to whole error-count blocks,
        # keeping a block's word sampling and ground-truth enumeration on
        # one worker; on a resume the holes left by persisted cells can
        # shift boundaries so a chunk straddles two blocks — a bounded,
        # accepted cost, since long-lived workers memoize each block's
        # words via the process-local ``_words_for`` cache anyway; only
        # the simulation inputs (``_block_artifacts``, one block) are
        # rebuilt, in one vectorized pass, when a worker returns to a block.
        chunksize=lambda workers: _sweep_chunksize(config, workers),
        jobs=jobs,
        backend=backend,
        resume=resume,
        progress=progress,
        shared_entries=shared_memo.sweep_entries if shared_cache else None,
    )
    # Restore grid order (cells arrive in completion order, resumed ones
    # first) so the result is indistinguishable from a serial run.
    cells = {
        shard.key: campaign.results[shard.key]
        for shard in campaign.shards
        if shard.key in campaign.results
    }
    return SweepResult(
        config=config, cells=cells, timings=campaign.seconds, quarantined=campaign.quarantined
    )
