"""Bench: raw throughput of the core engines.

Measures the pieces the exhibit benches build on: the Monte-Carlo word
simulator for each profiler, the exact ground-truth computation, and the
batch decoder — plus the sweep execution engine against the pinned
pre-engine loop (serial) and a worker pool (parallel), recorded to
``results/sweep_scaling.txt`` through the ``sweep_scaling`` fixture.
"""

import time

import numpy as np
import pytest
from conftest import change_points, cpu_seconds
from kernel_modes import check_feed, record_feed

from repro.analysis.atrisk import compute_ground_truth, predict_indirect_from_direct
from repro.analysis.memo import clear_analysis_caches
from repro.ecc.hamming import random_sec_code
from repro.experiments.config import SweepConfig
from repro.experiments.runner import (
    SweepCell,
    SweepResult,
    clear_engine_caches,
    metrics_for_run,
    run_sweep,
)
from repro.memory.error_model import sample_word_profile
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.base import ReadMode
from repro.profiling.runner import (
    WordRunResult,
    post_correction_data_errors,
    simulate_word,
)
from repro.utils.rng import derive_rng, derive_seed


@pytest.fixture(scope="module")
def word_setup():
    rng = np.random.default_rng(2021)
    code = random_sec_code(64, rng)
    profile = sample_word_profile(code, 4, 0.5, rng)
    return code, profile


@pytest.mark.parametrize("profiler_name", sorted(PROFILER_REGISTRY))
def test_simulate_word_128_rounds(benchmark, word_setup, profiler_name):
    code, profile = word_setup
    profiler_cls = PROFILER_REGISTRY[profiler_name]

    def run():
        return simulate_word(profiler_cls(code, seed=1), profile, 128, word_seed=1)

    result = benchmark(run)
    assert result.num_rounds == 128


def test_ground_truth_computation(benchmark, word_setup):
    code, profile = word_setup
    truth = benchmark(compute_ground_truth, code, profile)
    assert truth.direct_at_risk <= set(profile.positions)


def test_batch_decode_throughput(benchmark, word_setup):
    code, _ = word_setup
    rng = np.random.default_rng(0)
    data = rng.integers(0, 2, (512, code.k), dtype=np.uint8)
    codewords = code.encode(data)
    flips = rng.integers(0, code.n, size=512)
    for row, position in enumerate(flips):
        codewords[row, position] ^= 1

    decoded = benchmark(code.decode_batch, codewords)
    assert (decoded == data).all()


# ----------------------------------------------------------------------
# Sweep execution engine: legacy vs engine-serial vs engine-parallel
# ----------------------------------------------------------------------

#: The default Fig 6 grid (paper scale parameters, reduced samples are NOT
#: applied here — this is the grid the acceptance speedup is measured on).
SWEEP_GRID = SweepConfig()


class _SeedHarpAProfiler(PROFILER_REGISTRY["HARP-A"]):
    """Seed-revision HARP-A: refreshes its prediction uncached.

    The library's HARP-A now memoizes ``predict_indirect_from_direct``;
    the seed revision recomputed it on every direct-risk discovery, so
    the baseline must too.
    """

    def observe(self, round_index, mismatches):
        before = len(self._observed)
        self._observed.update(mismatches)
        if len(self._observed) != before:
            self._predicted = predict_indirect_from_direct(self.code, self._observed)


class _SeedHarpABeepProfiler(PROFILER_REGISTRY["HARP-A+BEEP"]):
    """Seed-revision hybrid: its active phase uses the uncached HARP-A."""

    def __init__(self, code, seed, pattern="random", switch_round=16):
        super().__init__(code, seed, pattern, switch_round)
        self._harp = self._phase = _SeedHarpAProfiler(code, seed, pattern)


#: The seed revision's adaptive profilers: it crafted their patterns per
#: round, and precomputed every other profiler's schedule.
_SEED_ADAPTIVE = frozenset({"BEEP", "HARP-A+BEEP"})

#: Profiler registry as the seed revision behaved (no memoized prediction).
_SEED_PROFILERS = dict(
    PROFILER_REGISTRY,
    **{"HARP-A": _SeedHarpAProfiler, "HARP-A+BEEP": _SeedHarpABeepProfiler},
)


def _seed_simulate_word(profiler, profile, num_rounds, word_seed) -> WordRunResult:
    """The seed revision's per-word simulation loop, pinned verbatim.

    Re-derives the per-round pattern stack per call, reduces the failure
    mask round by round, re-decodes repeated failure patterns, and
    rebuilds the cumulative trace sets every round — the per-run waste
    the current runner eliminates.
    """
    code = profiler.code
    draws = derive_rng(word_seed, "failure-draws").random((num_rounds, profile.count))
    probabilities = np.asarray(profile.probabilities, dtype=float)
    positions = np.asarray(profile.positions, dtype=np.intp)

    identified_trace, observed_trace = [], []
    if profiler.name in _SEED_ADAPTIVE:
        written_rounds = None
    else:
        written_rounds = np.stack(
            [profiler.pattern_for_round(r) for r in range(num_rounds)]
        )
        if profile.count:
            codewords = code.encode(written_rounds)
            failed_matrix = codewords[..., positions].astype(bool) & (draws < probabilities)
        else:
            failed_matrix = np.zeros((num_rounds, 0), dtype=bool)

    for round_index in range(num_rounds):
        if written_rounds is None:
            written = profiler.pattern_for_round(round_index)
            if profile.count:
                codeword = code.encode(written)
                failed_mask = codeword[..., positions].astype(bool) & (
                    draws[round_index] < probabilities
                )
            else:
                failed_mask = np.zeros(0, dtype=bool)
        else:
            failed_mask = failed_matrix[round_index]
        failed = tuple(int(p) for p in positions[failed_mask]) if failed_mask.any() else ()

        if profiler.read_mode_for(round_index) == ReadMode.BYPASS:
            mismatches = frozenset(p for p in failed if p < code.k)
        else:
            mismatches = post_correction_data_errors(code, failed)
        profiler.observe(round_index, mismatches)
        identified_trace.append(profiler.identified)
        observed_trace.append(profiler.identified_observed)

    return WordRunResult(change_points(identified_trace, observed_trace), num_rounds)


def _legacy_run_sweep(config) -> SweepResult:
    """The pre-engine serial sweep loop, pinned for comparison.

    This reproduces the seed revision's behaviour verbatim: words are
    re-sampled and ground truth re-enumerated inside the probability
    loop, and every per-round pattern is re-derived per profiler run
    (:func:`_seed_simulate_word`, no precomputed artifacts).  Kept here so
    the bench trajectory keeps measuring exactly the waste the engine
    eliminates.
    """
    cells = {}
    for error_count in config.error_counts:
        for probability in config.probabilities:
            words = []
            for code_index in range(config.num_codes):
                code_rng = derive_rng(config.seed, "code", config.k, code_index)
                code = random_sec_code(config.k, code_rng)
                for word_index in range(config.words_per_code):
                    word_rng = derive_rng(
                        config.seed, "word", error_count, code_index, word_index
                    )
                    profile = sample_word_profile(code, error_count, probability, word_rng)
                    ground_truth = compute_ground_truth(code, profile)
                    word_seed = derive_seed(
                        config.seed, "draws", error_count, code_index, word_index
                    )
                    words.append((code, profile, ground_truth, word_seed))
            for profiler_name in config.profilers:
                profiler_cls = _SEED_PROFILERS[profiler_name]
                metrics = []
                for code, profile, ground_truth, word_seed in words:
                    profiler = profiler_cls(code, seed=word_seed, pattern=config.pattern)
                    run = _seed_simulate_word(profiler, profile, config.num_rounds, word_seed)
                    metrics.append(metrics_for_run(run, ground_truth, config.num_rounds))
                cells[(error_count, probability, profiler_name)] = SweepCell(
                    error_count=error_count,
                    probability=probability,
                    profiler=profiler_name,
                    words=metrics,
                )
    return SweepResult(config=config, cells=cells)


def _cold_caches() -> None:
    clear_engine_caches()
    clear_analysis_caches()


def _timed(label: str, sweep_scaling: dict, fn, *args, **kwargs):
    """Run ``fn`` cold, recording wall-clock and CPU seconds.

    CPU time is recorded alongside wall-clock because serial runs on a
    shared/containerized host see wall-clock noise from neighbours; the
    speedup ratio is asserted on the stable CPU measurement.  It counts
    the pool workers of a parallel run (:func:`conftest.cpu_seconds`).
    """
    _cold_caches()
    wall_started = time.perf_counter()
    cpu_started = cpu_seconds()
    result = fn(*args, **kwargs)
    sweep_scaling[f"{label}-cpu"] = cpu_seconds() - cpu_started
    sweep_scaling[label] = time.perf_counter() - wall_started
    return result


def test_run_sweep_legacy_serial(benchmark, sweep_scaling):
    result = benchmark.pedantic(
        lambda: _timed("legacy-serial", sweep_scaling, _legacy_run_sweep, SWEEP_GRID),
        rounds=1,
        iterations=1,
    )
    assert len(result.cells) == 80


def test_run_sweep_engine_serial(benchmark, sweep_scaling):
    result = benchmark.pedantic(
        lambda: _timed("engine-serial", sweep_scaling, run_sweep, SWEEP_GRID),
        rounds=1,
        iterations=1,
    )
    assert len(result.cells) == 80


def test_run_sweep_engine_parallel(benchmark, sweep_scaling):
    """Worker-pool run; on a single-CPU host this only tracks pool overhead.

    The pool does the work in child processes; its CPU entry adds theirs.
    """
    result = benchmark.pedantic(
        lambda: _timed("engine-parallel", sweep_scaling, run_sweep, SWEEP_GRID, jobs=0),
        rounds=1,
        iterations=1,
    )
    assert len(result.cells) == 80


def test_engine_matches_legacy_and_meets_speedup(sweep_scaling):
    """The engine must be cell-identical to the legacy loop and >=2x faster.

    Runs after the timing benches (module order); verifies on their
    recorded CPU times rather than re-running the grid.
    """
    if "legacy-serial-cpu" not in sweep_scaling or "engine-serial-cpu" not in sweep_scaling:
        pytest.skip("timing benches did not run in this session")
    speedup = sweep_scaling["legacy-serial-cpu"] / sweep_scaling["engine-serial-cpu"]
    assert speedup >= 2.0, f"engine speedup {speedup:.2f}x < 2x over legacy sweep"

    # Spot-check cell identity on a reduced grid (full-grid identity is
    # covered by the unit suite; this guards the pinned legacy copy).
    small = SweepConfig(
        num_codes=2, words_per_code=3, num_rounds=32,
        error_counts=(2, 4), probabilities=(0.5, 1.0),
    )
    _cold_caches()
    legacy = _legacy_run_sweep(small)
    engine = run_sweep(small)
    assert legacy.cells.keys() == engine.cells.keys()
    for key in legacy.cells:
        assert legacy.cells[key].words == engine.cells[key].words, key


# ----------------------------------------------------------------------
# Metrics-reduction micro-bench (batched numpy set-ops vs per-word loop)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def metrics_cell():
    """A BENCH-shaped cell of traces: 48 words x 128 rounds per profiler."""
    from repro.analysis.memo import cached_ground_truth

    rng = np.random.default_rng(2021)
    code = random_sec_code(64, rng)
    cells = {}
    for name in ("Naive", "HARP-U", "HARP-A"):
        runs, truths = [], []
        for trial in range(48):
            profile = sample_word_profile(code, 4, 0.5, rng)
            truths.append(cached_ground_truth(code, profile.positions))
            profiler = PROFILER_REGISTRY[name](code, seed=trial)
            runs.append(simulate_word(profiler, profile, 128, word_seed=trial))
        cells[name] = (runs, truths)
    return cells


def test_metrics_reduction_batched_speedup(metrics_cell, sweep_scaling):
    """The batched reduction must be bit-identical and >=1.2x the loop.

    ``metrics_for_run`` is the pinned per-word reference;
    ``metrics_for_words`` amortizes the numpy set-ops over a whole
    cell's words.  CPU time over many repetitions keeps the ratio
    stable on shared hosts.
    """
    from repro.experiments.runner import metrics_for_words

    for runs, truths in metrics_cell.values():
        for run, truth, batched in zip(
            runs, truths, metrics_for_words(runs, truths, 128)
        ):
            assert batched == metrics_for_run(run, truth, 128)

    repetitions = 20
    started = time.process_time()
    for _ in range(repetitions):
        for runs, truths in metrics_cell.values():
            for run, truth in zip(runs, truths):
                metrics_for_run(run, truth, 128)
    loop_seconds = time.process_time() - started
    started = time.process_time()
    for _ in range(repetitions):
        for runs, truths in metrics_cell.values():
            metrics_for_words(runs, truths, 128)
    batched_seconds = time.process_time() - started
    sweep_scaling["metrics-loop-cpu"] = loop_seconds
    sweep_scaling["metrics-batched-cpu"] = batched_seconds
    speedup = loop_seconds / batched_seconds
    assert speedup >= 1.2, f"batched metrics reduction {speedup:.2f}x < 1.2x over loop"


def test_simulate_words_batched_speedup(sweep_scaling):
    """The cell-batched kernel must be bit-identical and beat the loop.

    A compact non-adaptive cell set (one code, three profilers, 48
    words x 128 rounds); the authoritative Fig 6-grid floor lives in
    ``bench_batched_words.py`` — this entry just lands the kernel in the
    ``sweep_scaling`` trajectory next to its engine siblings.
    """
    from repro.profiling.runner import WordArtifacts, simulate_words_batched

    rng = np.random.default_rng(2021)
    code = random_sec_code(64, rng)
    words = [
        (sample_word_profile(code, 4, 0.5, rng), trial) for trial in range(48)
    ]
    # Precompute each word's inputs once, like the sweep engine does: the
    # kernels should be compared on simulation, not RNG re-derivation.
    artifacts = []
    for profile, seed in words:
        probe = PROFILER_REGISTRY["Naive"](code, seed=seed)
        schedule = np.stack([probe.pattern_for_round(r) for r in range(128)])
        draws = derive_rng(seed, "failure-draws").random((128, profile.count))
        artifacts.append(WordArtifacts(code.encode(schedule), draws))

    names = ("Naive", "HARP-U", "HARP-A")

    def fresh(name, fed=None):
        profilers = [PROFILER_REGISTRY[name](code, seed=seed) for _, seed in words]
        if fed is not None:
            fed.extend((profiler, record_feed(profiler)) for profiler in profilers)
        return profilers

    def scalar_pass(fed=None):
        return [
            simulate_word(profiler, profile, 128, word_seed=seed, artifacts=artifact)
            for name in names
            for profiler, (profile, seed), artifact in zip(fresh(name, fed), words, artifacts)
        ]

    def batched_pass(fed=None):
        runs = []
        for name in names:
            runs.extend(
                simulate_words_batched(
                    fresh(name, fed),
                    [profile for profile, _ in words],
                    128,
                    [seed for _, seed in words],
                    artifacts=artifacts,
                )
            )
        return runs

    clear_analysis_caches()
    scalar_fed, batched_fed = [], []
    reference = scalar_pass(scalar_fed)
    candidate = batched_pass(batched_fed)
    assert len(reference) == len(candidate) == len(scalar_fed) == len(batched_fed)
    for ref, got, (profile, seed), artifact, (s_profiler, s_feed), (b_profiler, b_feed) in zip(
        reference, candidate, words * len(names), artifacts * len(names), scalar_fed, batched_fed
    ):
        assert ref.identified_per_round == got.identified_per_round
        assert ref.observed_per_round == got.observed_per_round
        # Both kernels fed their profilers what the word's failure patterns imply.
        assert check_feed(s_profiler, s_feed, profile, seed, 128, artifacts=artifact) == (
            check_feed(b_profiler, b_feed, profile, seed, 128, artifacts=artifact)
        )

    best_scalar = best_batched = None
    for _ in range(3):
        clear_analysis_caches()
        scalar_pass()  # warm the decode memos outside the timed region
        started = time.process_time()
        scalar_pass()
        elapsed = time.process_time() - started
        best_scalar = elapsed if best_scalar is None else min(best_scalar, elapsed)
        clear_analysis_caches()
        batched_pass()
        started = time.process_time()
        batched_pass()
        elapsed = time.process_time() - started
        best_batched = elapsed if best_batched is None else min(best_batched, elapsed)
    sweep_scaling["words-scalar-cpu"] = best_scalar
    sweep_scaling["words-batched-cpu"] = best_batched
    assert best_batched < best_scalar, (
        f"batched kernel {best_batched:.3f}s not faster than scalar {best_scalar:.3f}s"
    )


# ----------------------------------------------------------------------
# PAPER-preset wall-clock (one grid slice, extrapolated to the full grid)
# ----------------------------------------------------------------------


def test_run_sweep_paper_slice(sweep_scaling):
    """Wall-clock of a one-probability slice of the PAPER grid.

    Runs every (error count, profiler) cell at the full 2500 words/cell
    of the PAPER preset for a single probability — a quarter of the
    grid, covering the exponential ground-truth cost growth across
    error counts 2..5 that a single-error-count slice would understate.
    The conftest extrapolates the full-grid estimate by the probability
    count only (the probability just rescales failure draws, it does
    not change per-cell cost).  Excluded from CI (see the workflow's
    -k filter); run locally via
    ``pytest benchmarks/bench_engine.py -k paper_slice``.
    """
    from dataclasses import replace

    from repro.experiments.config import PAPER

    slice_config = replace(PAPER, probabilities=(0.5,))
    result = _timed("paper-slice", sweep_scaling, run_sweep, slice_config)
    assert len(result.cells) == len(PAPER.error_counts) * len(PAPER.profilers)
    sweep_scaling["paper-grid-estimate"] = sweep_scaling["paper-slice"] * len(
        PAPER.probabilities
    )
