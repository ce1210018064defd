"""Fig 10: DRAM data-retention case study — system BER vs. active rounds.

A bit-repair mechanism perfectly repairs every profiled bit; the secondary
SEC ECC reactively covers what active profiling left.  The exhibit plots
the expected data bit error rate before (left panel) and after (right
panel) the secondary ECC, as a function of active profiling rounds, for
several raw bit error rates.

Methodology (DESIGN.md §4.5): the number of at-risk bits per word is
binomial in the at-risk rate ``q = RBER / p`` (an at-risk bit errs with
probability ``p``, so the observable raw BER is ``q * p``).  Words with 0
or 1 at-risk bits contribute zero post-correction BER under SEC, so we
simulate strata of 2..max_at_risk at-risk bits and weight each stratum by
its binomial probability — this is what lets RBER = 1e-8 be measured
without 10^8 words.  BER is evaluated under the all-charged (0xFF)
operating pattern, the true-cell worst case.

Execution rides the sweep shard engine: the grid decomposes into
picklable :class:`Fig10Shard` work units — one per (per-bit probability,
code, at-risk stratum) — each re-deriving its words from the experiment
seed alone, so ``run(config, jobs=N)`` is bit-identical to the serial
loop for every worker count and
:class:`~repro.experiments.backends.ExecutionBackend`.  Contiguous
shards share a code, so chunked scheduling keeps a code's
crafted-pattern and ground-truth caches on one worker.  A shard
simulates its words in one :func:`~repro.profiling.runner.simulate_cell`
call: a word's profilers share one schedule, encoding and draw matrix,
built for that call alone (no word is simulated twice).

Like the sweep path, the case study runs through the drivers' one
campaign loop (:func:`~repro.experiments.campaign.run_campaign`), so it
streams and resumes: ``run(config, resume=PATH)`` appends each completed
shard to a ``repro-fig10-v1`` :class:`~repro.experiments.store.ShardStore`
the moment a backend delivers it, and a rerun with the same path skips
every persisted shard — a ``--scale paper`` case study killed
mid-campaign continues where it stopped, bit-identically to an
uninterrupted run.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from repro.analysis.probabilities import WordBerAnalyzer
from repro.ecc.hamming import random_sec_code
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CaseStudyConfig
from repro.experiments.reporting import log_round_ticks, percent, profiler_order
from repro.experiments.store import FIG10_STORE
from repro.memory.error_model import sample_word_profile
from repro.profiling.runner import simulate_cell
from repro.utils.rng import derive_rng, derive_seed
from repro.utils.tables import format_series

__all__ = [
    "Fig10Result",
    "Fig10Shard",
    "shard_case_study",
    "run_case_shard",
    "run",
    "render",
    "binomial_weight",
]


def binomial_weight(n: int, count: int, rate: float) -> float:
    """P[Binomial(n, rate) == count]."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be within [0, 1]")
    return comb(n, count) * rate**count * (1.0 - rate) ** (n - count)


@dataclass(frozen=True)
class Fig10Result:
    """BER trajectories and rounds-to-zero per case-study cell."""

    config: CaseStudyConfig
    ticks: tuple[int, ...]
    #: (probability, rber, profiler) -> BER at each tick, before secondary.
    before: dict[tuple[float, float, str], tuple[float, ...]]
    #: (probability, rber, profiler) -> BER at each tick, after secondary.
    after: dict[tuple[float, float, str], tuple[float, ...]]
    #: (probability, profiler) -> first round with zero post-secondary BER
    #: across *all* simulated words, or None if not reached.  RBER only
    #: scales the curves, so this is RBER-independent.
    rounds_to_zero: dict[tuple[float, str], int | None]
    #: Shard keys a continue-past-quarantine run set aside (empty
    #: everywhere else); the affected strata are averaged over the words
    #: that did complete until a targeted re-run fills them in.
    quarantined: tuple[tuple[float, int, int], ...] = ()


@dataclass(frozen=True)
class Fig10Shard:
    """One picklable unit of case-study work: a (probability, code, stratum) cell.

    Like :class:`~repro.experiments.runner.SweepShard`, a shard carries
    the full config plus its coordinates and re-derives everything else
    (code, word profiles, failure draws) from the experiment seed, so
    execution is a pure function of the shard.
    """

    config: CaseStudyConfig
    probability: float
    code_index: int
    #: At-risk-bit count of the simulated stratum (2..max_at_risk).
    count: int

    @property
    def key(self) -> tuple[float, int, int]:
        """The shard's store key: its (probability, code, stratum) coordinates."""
        return (self.probability, self.code_index, self.count)


@lru_cache(maxsize=512)
def _fig10_code(seed: int, k: int, code_index: int):
    """The case study's ``code_index``-th random SEC code (cached per process)."""
    return random_sec_code(k, derive_rng(seed, "fig10-code", code_index))


def shard_case_study(config: CaseStudyConfig) -> list[Fig10Shard]:
    """Decompose a case-study config into shards, code-major per probability.

    Consecutive shards share a code across all strata, so chunked pool
    scheduling keeps each code's process-local caches together.
    """
    return [
        Fig10Shard(config=config, probability=probability, code_index=code_index, count=count)
        for probability in config.probabilities
        for code_index in range(config.num_codes)
        for count in range(2, config.max_at_risk + 1)
    ]


def run_case_shard(
    shard: Fig10Shard,
) -> tuple[
    dict[str, list[list[float]]], dict[str, list[list[float]]], dict[str, list[int | None]]
]:
    """Execute one shard: per-profiler word trajectories and rounds-to-zero.

    Returns ``(before, after, to_zero)`` keyed by profiler name; the word
    lists are ordered by word index, matching the serial loop exactly.
    """
    config = shard.config
    ticks = log_round_ticks(config.num_rounds)
    code = _fig10_code(config.seed, config.k, shard.code_index)
    charged = np.ones(code.k, dtype=np.uint8)
    before: dict[str, list[list[float]]] = {name: [] for name in config.profilers}
    after: dict[str, list[list[float]]] = {name: [] for name in config.profilers}
    to_zero: dict[str, list[int | None]] = {name: [] for name in config.profilers}
    cell = (shard.probability, shard.code_index, shard.count)
    words = range(config.words_per_stratum)
    profiles = [
        sample_word_profile(
            code, shard.count, shard.probability, derive_rng(config.seed, "fig10-word", *cell, word)
        )
        for word in words
    ]
    seeds = [derive_seed(config.seed, "fig10-draws", *cell, word) for word in words]
    runs = simulate_cell(
        config.profilers, [code] * len(seeds), profiles, seeds, config.num_rounds, config.pattern
    )
    for word_index, profile in enumerate(profiles):
        analyzer = WordBerAnalyzer(code, profile, charged)
        for name in config.profilers:
            segments = runs[name][word_index].segments()
            # After round ``tick - 1`` the set is the last segment's that
            # starts at or before that round.
            starts = [start for start, _ in segments]
            at_ticks = [segments[bisect_left(starts, tick) - 1][1] for tick in ticks]
            before[name].append([analyzer.unrepaired_ber(identified) for identified in at_ticks])
            after[name].append(
                [analyzer.residual_ber_after_secondary(identified) for identified in at_ticks]
            )
            to_zero[name].append(_first_zero_round(analyzer, segments))
    return before, after, to_zero


def _first_zero_round(
    analyzer: WordBerAnalyzer, segments: list[tuple[int, frozenset[int]]]
) -> int | None:
    """First 1-based round with zero post-secondary BER (monotone search).

    The identified set only grows, so the residual BER is non-increasing
    and moves only where a segment of the run starts
    (:meth:`~repro.profiling.runner.WordRunResult.segments`).  Each
    segment's set is evaluated once, in round order.
    """
    for start, identified in segments:
        if analyzer.residual_ber_after_secondary(identified) == 0.0:
            return start + 1
    return None


def _timed_case_shard(shard: Fig10Shard) -> tuple[tuple[dict, dict, dict], float]:
    """Pool worker: :func:`run_case_shard` plus its wall-clock seconds.

    The timing never enters the aggregation — it only feeds progress
    lines and rides into the resume store's records so ``repro store
    PATH summary`` can estimate an ETA — so results stay bit-identical
    to the untimed worker.
    """
    started = time.perf_counter()
    result = run_case_shard(shard)
    return result, time.perf_counter() - started


def run(
    config: CaseStudyConfig = CaseStudyConfig(),
    jobs: int | None = None,
    backend=None,
    resume: str | None = None,
    progress: bool | float = False,
) -> Fig10Result:
    """Execute the case study over the full (probability, RBER) grid.

    Args:
        config: the case-study configuration.
        jobs: worker processes for shard execution (``None``/``1`` serial,
            ``0`` one per CPU); every setting is bit-identical.
        backend: execution backend instance or spec string (``serial``,
            ``process``, ``socket``, ``socket://HOST:PORT``) — the
            :class:`Fig10Shard` units ship over the socket protocol just
            like sweep shards; ``None`` infers from ``jobs``.
        resume: path to a ``repro-fig10-v1``
            :class:`~repro.experiments.store.ShardStore` JSONL file.
            Completed shards stream to it as backends deliver them,
            already-persisted shards are skipped on restart, and the
            aggregated result is bit-identical to an uninterrupted run.
        progress: print periodic grid-coverage/ETA lines to stderr via
            :class:`~repro.experiments.monitor.ProgressReporter`
            (``True`` = default cadence, a float = seconds between
            lines); purely observational.

    A backend in continue-past-quarantine mode may set shards aside;
    their keys come back on ``Fig10Result.quarantined`` (and as
    ``quarantine`` records in the ``resume`` store) and the affected
    strata average over the words that did complete.
    """
    campaign = run_campaign(
        FIG10_STORE,
        config,
        shard_case_study,
        _timed_case_shard,
        # One chunk = one code's strata, keeping its caches on one worker
        # (read lazily: the loop refuses an opaque config first).
        chunksize=lambda workers: max(1, config.max_at_risk - 1),
        jobs=jobs,
        backend=backend,
        resume=resume,
        progress=progress,
    )

    #: (probability, count, profiler) -> per-word trajectories, in the
    #: serial loop's (code, word) order.
    stratum_before: dict[tuple[float, int, str], list[list[float]]] = {}
    stratum_after: dict[tuple[float, int, str], list[list[float]]] = {}
    to_zero: dict[tuple[float, str], list[int | None]] = {}
    # Aggregate in grid order regardless of completion or resume order,
    # so the result is indistinguishable from a serial run.
    for shard in campaign.shards:
        result = campaign.results.get(shard.key)
        if result is None:
            continue  # quarantined under continue-past-quarantine
        shard_before, shard_after, shard_zero = result
        for name in config.profilers:
            stratum_before.setdefault((shard.probability, shard.count, name), []).extend(
                shard_before[name]
            )
            stratum_after.setdefault((shard.probability, shard.count, name), []).extend(
                shard_after[name]
            )
            to_zero.setdefault((shard.probability, name), []).extend(shard_zero[name])

    ticks = tuple(log_round_ticks(config.num_rounds))
    n_codeword = _fig10_code(config.seed, config.k, 0).n
    before: dict[tuple[float, float, str], tuple[float, ...]] = {}
    after: dict[tuple[float, float, str], tuple[float, ...]] = {}
    rounds_to_zero: dict[tuple[float, str], int | None] = {}
    for probability in config.probabilities:
        for name in config.profilers:
            values = to_zero.get((probability, name), [])
            rounds_to_zero[(probability, name)] = (
                None
                if not values or any(v is None for v in values)
                else max(values)  # type: ignore[type-var]
            )
        for rber in config.rbers:
            rate = rber / probability
            for name in config.profilers:
                weighted_before = np.zeros(len(ticks))
                weighted_after = np.zeros(len(ticks))
                for count in range(2, config.max_at_risk + 1):
                    trajectories = stratum_before.get((probability, count, name))
                    if trajectories is None:
                        continue  # every shard of this stratum quarantined
                    weight = binomial_weight(n_codeword, count, rate)
                    mean_before = np.mean(trajectories, axis=0)
                    mean_after = np.mean(stratum_after[(probability, count, name)], axis=0)
                    weighted_before += weight * mean_before
                    weighted_after += weight * mean_after
                before[(probability, rber, name)] = tuple(float(v) for v in weighted_before)
                after[(probability, rber, name)] = tuple(float(v) for v in weighted_after)
    return Fig10Result(
        config=config,
        ticks=ticks,
        before=before,
        after=after,
        rounds_to_zero=rounds_to_zero,
        quarantined=campaign.quarantined,
    )


def render(result: Fig10Result) -> str:
    """Text rendition: before/after panels per (probability, RBER)."""
    panels = []
    config = result.config
    for probability in config.probabilities:
        for rber in config.rbers:
            for label, table in (("before", result.before), ("after", result.after)):
                series = {
                    name: list(table[(probability, rber, name)])
                    for name in profiler_order(config.profilers)
                }
                title = (
                    f"Fig 10 ({label} secondary ECC): per-bit P={percent(probability)}, "
                    f"RBER={rber:.0e} — expected data BER"
                )
                panels.append(
                    format_series(title, series, x_values=list(result.ticks), x_label="round")
                )
    return "\n\n".join(panels)
