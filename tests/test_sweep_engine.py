"""Tests of the parallel, cache-aware sweep execution engine.

Covers the engine's three guarantees:

* **Determinism** — ``run_sweep(config, jobs=N)`` is bit-identical to the
  serial path for every cell (shards are pure functions of their content);
* **Hoisting** — ground truth is enumerated exactly once per
  (error count, word) across all probability levels (verified through the
  analysis-layer cache counters);
* **Memoization** — the process-local caches return results identical to
  the uncached functions, count hits/misses, and evict LRU-first.

Plus the satellite fixes: uniform profile-position validation in both
simulation engines and the vectorized batch probability matrix.
"""

import numpy as np
import pytest
from batch_engine import BatchInjectionEngine
from kernel_modes import check_feed, force_gf2_tier, record_feed
from randcases import random_cells

from repro.analysis.atrisk import compute_ground_truth, predict_indirect_from_direct
from repro.analysis.memo import (
    Memo,
    cached_ground_truth,
    cached_predict_indirect,
    clear_analysis_caches,
    ground_truth_cache,
    indirect_prediction_cache,
)
from repro.ecc.hamming import random_sec_code
from repro.experiments.config import SweepConfig
from repro.experiments.reporting import timing_table
from repro.experiments.runner import (
    SweepShard,
    clear_engine_caches,
    run_shard,
    run_sweep,
    shard_grid,
)
from repro.memory.cells import alternating_cells
from repro.memory.error_model import WordErrorProfile, sample_word_profile
from repro.memory.patterns import make_pattern
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.base import Profiler
from repro.profiling.runner import WordArtifacts, cell_artifacts, simulate_cell, simulate_word
from repro.utils.bits import bits_to_int, int_to_bits

CONFIG = SweepConfig(
    num_codes=2,
    words_per_code=2,
    num_rounds=16,
    error_counts=(2, 3),
    probabilities=(0.5, 1.0),
    profilers=("Naive", "HARP-U", "HARP-A"),
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_engine_caches()
    clear_analysis_caches()
    yield
    clear_engine_caches()
    clear_analysis_caches()


class TestParallelBitIdentity:
    def test_parallel_matches_serial(self):
        serial = run_sweep(CONFIG)
        parallel = run_sweep(CONFIG, jobs=2)
        assert serial.cells.keys() == parallel.cells.keys()
        for key in serial.cells:
            assert serial.cells[key].words == parallel.cells[key].words, key

    def test_parallel_result_keeps_grid_order(self):
        """Cells arrive in completion order but the result must present
        them in grid order, exactly like a serial run."""
        from repro.experiments.runner import shard_grid

        result = run_sweep(CONFIG, jobs=2)
        assert list(result.cells) == [shard.key for shard in shard_grid(CONFIG)]

    def test_jobs_zero_means_per_cpu(self):
        result = run_sweep(CONFIG, jobs=0)
        reference = run_sweep(CONFIG)
        for key in reference.cells:
            assert result.cells[key].words == reference.cells[key].words

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(CONFIG, jobs=-1)

    def test_shard_execution_is_order_independent(self):
        """A shard recomputed in isolation equals its cell from a full run."""
        full = run_sweep(CONFIG)
        shard = SweepShard(
            config=CONFIG, error_count=3, probability=1.0, profiler="HARP-A"
        )
        clear_engine_caches()
        clear_analysis_caches()
        cell, _elapsed = run_shard(shard)
        assert cell.words == full.cells[shard.key].words


class TestShardGrid:
    def test_covers_full_grid_error_count_major(self):
        shards = shard_grid(CONFIG)
        expected = [
            (e, p, name)
            for e in CONFIG.error_counts
            for p in CONFIG.probabilities
            for name in CONFIG.profilers
        ]
        assert [s.key for s in shards] == expected

    def test_shards_are_picklable(self):
        import pickle

        shards = shard_grid(CONFIG)
        assert pickle.loads(pickle.dumps(shards[0])) == shards[0]


class TestGroundTruthHoisting:
    def test_enumerated_exactly_once_per_error_count_and_word(self):
        """The exponential enumeration must not repeat per probability."""
        run_sweep(CONFIG)
        expected = len(CONFIG.error_counts) * CONFIG.num_codes * CONFIG.words_per_code
        assert ground_truth_cache.stats.misses == expected
        # Sampling is hoisted out of the probability loop entirely, so the
        # cache is not even *consulted* more than once per word.
        assert ground_truth_cache.stats.hits == 0

    def test_repeat_sweep_reuses_engine_cache(self):
        run_sweep(CONFIG)
        misses = ground_truth_cache.stats.misses
        run_sweep(CONFIG)
        assert ground_truth_cache.stats.misses == misses

    def test_words_shared_across_probabilities(self):
        """Every probability level sees identical sampled words."""
        sweep = run_sweep(CONFIG)
        for error_count in CONFIG.error_counts:
            reference = [
                w.direct_total
                for w in sweep.cell(error_count, CONFIG.probabilities[0], "Naive").words
            ]
            for probability in CONFIG.probabilities[1:]:
                totals = [
                    w.direct_total
                    for w in sweep.cell(error_count, probability, "Naive").words
                ]
                assert totals == reference


class TestTimings:
    def test_per_cell_timings_recorded(self):
        sweep = run_sweep(CONFIG)
        assert sweep.timings.keys() == sweep.cells.keys()
        assert all(seconds >= 0.0 for seconds in sweep.timings.values())

    def test_timing_table_renders(self):
        sweep = run_sweep(CONFIG)
        text = timing_table(sweep)
        assert "Sweep timings" in text
        assert "HARP-U" in text

    def test_timing_table_handles_missing_timings(self):
        sweep = run_sweep(CONFIG)
        sweep.timings = {}
        assert "not recorded" in timing_table(sweep)


class TestAnalysisMemo:
    def test_cached_ground_truth_matches_uncached(self):
        code = random_sec_code(16, np.random.default_rng(5))
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(6))
        cached = cached_ground_truth(code, profile.positions)
        direct = compute_ground_truth(code, profile.positions)
        assert cached.at_risk == direct.at_risk
        assert cached.realizable_outcomes == direct.realizable_outcomes
        assert cached.direct_at_risk == direct.direct_at_risk
        assert cached.post_correction_at_risk == direct.post_correction_at_risk

    def test_ground_truth_cache_hits(self):
        code = random_sec_code(16, np.random.default_rng(5))
        positions = (1, 5, 9)
        first = cached_ground_truth(code, positions)
        second = cached_ground_truth(code, positions)
        assert first is second
        assert ground_truth_cache.stats.hits == 1
        assert ground_truth_cache.stats.misses == 1

    def test_ground_truth_key_includes_code(self):
        rng = np.random.default_rng(7)
        code_a = random_sec_code(16, rng)
        code_b = random_sec_code(16, rng)
        positions = (0, 3)
        cached_ground_truth(code_a, positions)
        cached_ground_truth(code_b, positions)
        assert ground_truth_cache.stats.misses == 2

    def test_cached_predict_indirect_matches_uncached(self):
        code = random_sec_code(16, np.random.default_rng(8))
        direct = frozenset({1, 4, 7})
        assert cached_predict_indirect(code, direct) == predict_indirect_from_direct(
            code, direct
        )
        # Set spelling must not matter for the key.
        cached_predict_indirect(code, {7, 4, 1})
        assert indirect_prediction_cache.stats.hits == 1

    def test_cached_predict_indirect_rejects_non_data_bits(self):
        code = random_sec_code(16, np.random.default_rng(9))
        with pytest.raises(IndexError):
            cached_predict_indirect(code, {code.k})

    def test_memo_lru_eviction(self):
        memo = Memo(max_entries=2)
        memo.get("a", lambda: 1)
        memo.get("b", lambda: 2)
        memo.get("a", lambda: 1)  # refresh "a"; "b" is now LRU
        memo.get("c", lambda: 3)  # evicts "b"
        assert memo.get("a", lambda: -1) == 1
        assert memo.get("b", lambda: -2) == -2  # recomputed after eviction

    def test_memo_clear_resets_stats(self):
        memo = Memo()
        memo.get("a", lambda: 1)
        memo.get("a", lambda: 1)
        memo.clear()
        assert len(memo) == 0
        assert memo.stats.hits == 0 and memo.stats.misses == 0


def _reference_simulate(profiler, profile, num_rounds, word_seed, orientation=None):
    """Straight-line reference of the per-word loop (no fast paths).

    Pins the observable trace semantics in the array domain: failures
    from the word-seed stream, the pattern from the profiler round by
    round (``pattern_for_round``), encoded and charged per round, and
    the cumulative sets re-read after every observe call.  Returns the
    per-round identified and observed sets, failure patterns, and
    ``(round, mismatches)`` observations.
    """
    from repro.profiling.base import ReadMode
    from repro.profiling.runner import post_correction_data_errors
    from repro.utils.rng import derive_rng

    code = profiler.code
    draws = derive_rng(word_seed, "failure-draws").random((num_rounds, profile.count))
    probabilities = np.asarray(profile.probabilities, dtype=float)
    positions = np.asarray(profile.positions, dtype=np.intp)
    identified, observed, failures, observations = [], [], [], []
    for round_index in range(num_rounds):
        codeword = code.encode(profiler.pattern_for_round(round_index))
        charged = codeword if orientation is None else orientation.charged_mask(codeword)
        failed_mask = charged[positions].astype(bool) & (draws[round_index] < probabilities)
        failed = tuple(int(p) for p in positions[failed_mask])
        failures.append(failed)
        if profiler.read_mode_for(round_index) == ReadMode.BYPASS:
            mismatches = frozenset(p for p in failed if p < code.k)
        else:
            mismatches = post_correction_data_errors(code, failed)
        observations.append((round_index, mismatches))
        profiler.observe(round_index, mismatches)
        identified.append(profiler.identified)
        observed.append(profiler.identified_observed)
    return identified, observed, failures, observations


def _trace_cases():
    """Seeded words for the trace sweep: ``(label, code, profile, orientation, rounds)``.

    Random SEC codes at four widths; per code, an at-risk set mixing data
    and parity positions at p = 1.0, an all-parity set, and a random set.
    Orientations and round counts cycle, so every kind of set meets all
    three orientations and both sides of the hybrid's switch round (16).
    """
    cases = []
    for k in (8, 16, 32, 64):
        rng = np.random.default_rng(4000 + k)
        code = random_sec_code(k, rng)
        data = rng.permutation(code.k).tolist()
        parity = rng.permutation(np.arange(code.k, code.n)).tolist()
        at_risk = {
            "mixed": (sorted(data[:2] + parity[:2]), [1.0] * 4),
            "all-parity": (sorted(parity[:3]), [1.0, 0.75, 1.0]),
            "random": (
                sorted(rng.choice(code.n, size=5, replace=False).tolist()),
                rng.choice([0.25, 0.5, 1.0], size=5).tolist(),
            ),
        }
        for index, (kind, (positions, probabilities)) in enumerate(at_risk.items()):
            orientation = (None, alternating_cells(code.n), random_cells(code.n, rng))[
                (index + k) % 3
            ]
            rounds = (12, 40)[(index + k // 8) % 2]
            profile = WordErrorProfile(tuple(positions), tuple(float(p) for p in probabilities))
            cases.append((f"k{k}-{kind}", code, profile, orientation, rounds))
    return cases


TRACE_CASES = _trace_cases()


class TestTraceSemantics:
    """simulate_word's integer path must match the array-domain reference."""

    @pytest.mark.parametrize("tier", ["packed", "unpacked"])
    @pytest.mark.parametrize("profiler_name", sorted(PROFILER_REGISTRY))
    def test_matches_reference_loop(self, profiler_name, tier, monkeypatch):
        """Same traces, same observations, and the datawords the fast loop
        wrote, charged through the word's artifacts, fail exactly where
        the reference's encoded patterns do."""
        force_gf2_tier(monkeypatch, tier)
        profiler_cls = PROFILER_REGISTRY[profiler_name]
        crafted_rounds = 0
        for label, code, profile, orientation, rounds in TRACE_CASES:
            profiler = profiler_cls(code, seed=77)
            feed = record_feed(profiler)
            fast = simulate_word(profiler, profile, rounds, 77, orientation=orientation)
            crafted_rounds += sum(dataword is not None for dataword in feed.datawords)
            identified, observed, failures, observations = _reference_simulate(
                profiler_cls(code, seed=77), profile, rounds, 77, orientation
            )
            assert feed.observed == observations, label
            assert check_feed(profiler, feed, profile, 77, rounds, orientation) == failures, label
            assert fast.identified_per_round == identified, label
            assert fast.observed_per_round == observed, label
        # The sweep must reach the crafted (integer-domain) rounds of
        # every adaptive profiler: one that overrides crafted_for_round.
        adaptive = profiler_cls.crafted_for_round is not Profiler.crafted_for_round
        assert bool(crafted_rounds) == adaptive

    def test_cases_cover_parity_positions_and_both_switch_sides(self):
        assert any(
            all(p >= code.k for p in profile.positions) for _, code, profile, _, _ in TRACE_CASES
        )
        assert {rounds > 16 for *_, rounds in TRACE_CASES} == {True, False}
        assert any(1.0 in profile.probabilities for _, _, profile, _, _ in TRACE_CASES)
        def alternating(orientation):
            reference = alternating_cells(orientation.n).true_cell_mask
            return np.array_equal(orientation.true_cell_mask, reference)

        kinds = {None if o is None else alternating(o) for *_, o, _ in TRACE_CASES}
        assert kinds == {None, True, False}

    def test_refuses_an_adaptive_profiler_that_overrides_pattern_for_round(self):
        class ArrayOnlyProfiler(PROFILER_REGISTRY["BEEP"]):
            def pattern_for_round(self, round_index):
                return np.ones(self.code.k, dtype=np.uint8)

        code = random_sec_code(16, np.random.default_rng(3))
        with pytest.raises(ValueError, match="pattern_for_round"):
            simulate_word(ArrayOnlyProfiler(code, seed=1), WordErrorProfile((2,), (1.0,)), 4, 1)


class TestIntegerChargeMask:
    """A crafted round's charge mask, computed without an encode."""

    @pytest.mark.parametrize("k", [8, 16, 32, 64])
    def test_matches_packed_encode_path(self, k):
        from repro.profiling.runner import _charge_mask, _charge_selectors

        rng = np.random.default_rng(500 + k)
        code = random_sec_code(k, rng)
        for orientation in (None, alternating_cells(code.n), random_cells(code.n, rng)):
            # Always one parity position: the last.
            positions = rng.choice(code.n - 1, size=5, replace=False).tolist() + [code.n - 1]
            selectors = _charge_selectors(code, positions)
            anti_mask = 0
            if orientation is not None:
                true_cells = orientation.true_cell_mask
                anti_mask = sum(1 << j for j, p in enumerate(positions) if not true_cells[p])
            for _ in range(50):
                assignment = int.from_bytes(rng.bytes(8), "little") & ((1 << k) - 1)
                codeword = code.encode(int_to_bits(assignment, k))
                charged = codeword if orientation is None else orientation.charged_mask(codeword)
                expected = bits_to_int(charged[positions])
                assert _charge_mask(selectors, anti_mask, assignment) == expected


class TestWordArtifacts:
    """Precomputed inputs must never change simulation results."""

    @pytest.mark.parametrize("profiler_name", sorted(PROFILER_REGISTRY))
    def test_artifacts_are_bit_identical(self, profiler_name):
        from repro.experiments.runner import _block_artifacts, _words_for

        words = _words_for(CONFIG, 3)
        block = _block_artifacts(CONFIG, 3)
        profiler_cls = PROFILER_REGISTRY[profiler_name]
        for ctx, artifacts in zip(words[:2], block):
            profile = WordErrorProfile(ctx.positions, tuple(0.5 for _ in ctx.positions))
            plain_profiler = profiler_cls(ctx.code, seed=ctx.word_seed)
            plain_feed = record_feed(plain_profiler)
            plain = simulate_word(plain_profiler, profile, 16, ctx.word_seed)
            cached_profiler = profiler_cls(ctx.code, seed=ctx.word_seed)
            cached_feed = record_feed(cached_profiler)
            cached = simulate_word(
                cached_profiler, profile, 16, ctx.word_seed, artifacts=artifacts
            )
            assert plain.identified_per_round == cached.identified_per_round
            assert plain.observed_per_round == cached.observed_per_round
            assert plain_feed == cached_feed
            # Both runs were fed what the block's artifacts imply.
            assert check_feed(
                plain_profiler, plain_feed, profile, ctx.word_seed, 16, artifacts=artifacts
            ) == check_feed(
                cached_profiler, cached_feed, profile, ctx.word_seed, 16, artifacts=artifacts
            )

    def test_block_artifacts_are_read_only_and_feed_both_kernels(self):
        from repro.experiments.runner import _block_artifacts, _words_for

        words = _words_for(CONFIG, 2)
        block = _block_artifacts(CONFIG, 2)
        assert len(block) == len(words)
        for artifacts in block:
            for array in (artifacts.codewords, artifacts.draws):
                assert not array.flags.writeable
        cell = (
            ("Naive", "BEEP"),  # the batched kernel and the scalar adaptive loop
            [ctx.code for ctx in words],
            [WordErrorProfile(ctx.positions, tuple(0.5 for _ in ctx.positions)) for ctx in words],
            [ctx.word_seed for ctx in words],
            CONFIG.num_rounds,
        )
        assert simulate_cell(*cell, artifacts=block) == simulate_cell(*cell)

    def test_block_slices_match_their_own_builds(self):
        """``run_shard`` hands each group a slice of the block; a slice must
        be what building that group alone gives."""
        from repro.experiments.runner import _block_artifacts, _words_for

        words = _words_for(CONFIG, 3)
        block = _block_artifacts(CONFIG, 3)
        for group in (slice(0, 1), slice(1, 3), slice(2, None)):
            rebuilt = cell_artifacts(
                [ctx.code for ctx in words[group]],
                [make_pattern(CONFIG.pattern, ctx.word_seed) for ctx in words[group]],
                [len(ctx.positions) for ctx in words[group]],
                [ctx.word_seed for ctx in words[group]],
                CONFIG.num_rounds,
            )
            assert len(rebuilt) == len(block[group])
            for fresh, cached in zip(rebuilt, block[group]):
                np.testing.assert_array_equal(fresh.codewords, cached.codewords)
                np.testing.assert_array_equal(fresh.draws, cached.draws)

    def test_one_block_is_cached_per_process(self):
        from repro.experiments.runner import _block_artifacts

        first = _block_artifacts(CONFIG, 2)
        assert _block_artifacts(CONFIG, 2) is first
        _block_artifacts(CONFIG, 3)
        assert _block_artifacts.cache_info().currsize == 1
        assert _block_artifacts(CONFIG, 2) is not first

    def test_mismatched_draw_shape_rejected(self):
        code = random_sec_code(16, np.random.default_rng(3))
        profile = WordErrorProfile((2, 5), (0.5, 0.5))
        schedule = np.zeros((4, code.k), dtype=np.uint8)
        bad = WordArtifacts(code.encode(schedule), draws=np.zeros((4, 1)))
        with pytest.raises(ValueError):
            simulate_word(
                PROFILER_REGISTRY["Naive"](code, seed=1), profile, 4, 1, artifacts=bad
            )


class TestUniformPositionValidation:
    """Both engines reject out-of-range positions with one message."""

    @pytest.fixture()
    def code(self):
        return random_sec_code(16, np.random.default_rng(11))

    def test_simulate_word_rejects_negative_positions(self, code):
        profile = WordErrorProfile((-1, 3), (0.5, 0.5))
        with pytest.raises(IndexError, match=r"out of codeword range \[0, "):
            simulate_word(PROFILER_REGISTRY["Naive"](code, seed=1), profile, 4, 1)

    def test_simulate_word_rejects_overlarge_positions(self, code):
        profile = WordErrorProfile((3, code.n), (0.5, 0.5))
        with pytest.raises(IndexError, match=r"out of codeword range \[0, "):
            simulate_word(PROFILER_REGISTRY["Naive"](code, seed=1), profile, 4, 1)

    def test_batch_engine_rejects_negative_positions(self, code):
        profile = WordErrorProfile((-2, 1), (1.0, 1.0))
        with pytest.raises(IndexError, match=r"out of codeword range \[0, "):
            BatchInjectionEngine(code, [profile])

    def test_batch_engine_rejects_overlarge_positions(self, code):
        profile = WordErrorProfile((1, code.n + 3), (1.0, 1.0))
        with pytest.raises(IndexError, match=r"out of codeword range \[0, "):
            BatchInjectionEngine(code, [profile])


class TestVectorizedProbabilityMatrix:
    def test_matches_profiles(self):
        code = random_sec_code(16, np.random.default_rng(12))
        profiles = [
            WordErrorProfile((0, 5, code.n - 1), (0.25, 0.5, 0.75)),
            WordErrorProfile((), ()),
            WordErrorProfile((2,), (1.0,)),
        ]
        engine = BatchInjectionEngine(code, profiles)
        expected = np.zeros((3, code.n))
        expected[0, 0], expected[0, 5], expected[0, code.n - 1] = 0.25, 0.5, 0.75
        expected[2, 2] = 1.0
        assert np.array_equal(engine._probability, expected)

    def test_all_empty_profiles(self):
        code = random_sec_code(16, np.random.default_rng(13))
        engine = BatchInjectionEngine(code, [WordErrorProfile((), ())] * 2)
        assert not engine._probability.any()


class TestVectorizedMetricsReduction:
    """Batched ``metrics_for_words`` is bit-identical to the per-word loop.

    The reference below is the single-word per-round reduction, pinned
    verbatim; every profiler's cell of traces must reduce to the exact
    same records through the batched numpy set-op path (the speedup is
    pinned in ``benchmarks/bench_engine.py``).
    """

    @staticmethod
    def _reference(run, ground_truth, num_rounds):
        from repro.analysis.atrisk import max_simultaneous_post_errors
        from repro.experiments.runner import WordMetrics

        direct = ground_truth.direct_at_risk
        indirect = ground_truth.indirect_at_risk
        post = ground_truth.post_correction_at_risk
        direct_identified, indirect_missed = [], []
        post_identified, capability = [], []
        first_direct = num_rounds
        previous = None
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

    def _cell(self, profiler_name, num_words=6, num_rounds=24):
        from repro.experiments.runner import metrics_for_words

        rng = np.random.default_rng(29)
        code = random_sec_code(16, rng)
        runs, truths = [], []
        for trial in range(num_words):
            profile = sample_word_profile(code, 3, 0.5, rng)
            truths.append(cached_ground_truth(code, profile.positions))
            profiler = PROFILER_REGISTRY[profiler_name](code, seed=trial)
            runs.append(simulate_word(profiler, profile, num_rounds, word_seed=trial))
        return runs, truths, metrics_for_words(runs, truths, num_rounds)

    @pytest.mark.parametrize("profiler_name", sorted(PROFILER_REGISTRY))
    def test_matches_reference_loop(self, profiler_name):
        runs, truths, batched = self._cell(profiler_name)
        assert len(batched) == len(runs)
        for run, truth, metrics in zip(runs, truths, batched):
            assert metrics == self._reference(run, truth, 24)

    @pytest.mark.parametrize("profiler_name", sorted(PROFILER_REGISTRY))
    def test_matches_metrics_for_run(self, profiler_name):
        from repro.experiments.runner import metrics_for_run

        runs, truths, batched = self._cell(profiler_name)
        for run, truth, metrics in zip(runs, truths, batched):
            assert metrics == metrics_for_run(run, truth, 24)

    def test_python_ints_in_output(self):
        """JSON serialization requires plain ints, not numpy scalars."""
        import json

        _, _, batched = self._cell("HARP-U", num_words=2, num_rounds=8)
        for metrics in batched:
            json.dumps(
                [
                    list(metrics.direct_identified),
                    list(metrics.indirect_missed),
                    list(metrics.post_identified),
                    list(metrics.capability),
                    metrics.first_direct_round,
                ]
            )

    def test_shard_batching_is_invisible(self, monkeypatch):
        """run_shard reduces words in fixed-size groups (memory bound);
        a tiny forced batch size must not change any cell."""
        import repro.experiments.runner as runner_module
        from repro.experiments.runner import run_shard, shard_grid

        shard = shard_grid(CONFIG)[0]
        reference, _ = run_shard(shard)
        monkeypatch.setattr(runner_module, "_METRICS_BATCH", 3)
        batched, _ = run_shard(shard)
        assert batched.words == reference.words

    def test_empty_inputs(self):
        from repro.experiments.runner import metrics_for_words
        from repro.profiling.runner import WordRunResult

        assert metrics_for_words([], [], 4) == []
        rng = np.random.default_rng(37)
        code = random_sec_code(16, rng)
        profile = sample_word_profile(code, 2, 1.0, rng)
        truth = cached_ground_truth(code, profile.positions)
        empty = WordRunResult(changes=[], num_rounds=0)
        silent = WordRunResult(changes=[], num_rounds=8)
        real = simulate_word(PROFILER_REGISTRY["Naive"](code, seed=1), profile, 8, word_seed=1)
        batched = metrics_for_words([empty, real, silent], [truth] * 3, 8)
        assert batched[0].direct_identified == ()
        assert batched[0].first_direct_round == 8
        assert batched[1] == self._reference(real, truth, 8)
        # Fig 7's censoring: a word that never identifies one of its
        # direct-risk bits counts as needing every simulated round.
        assert truth.direct_at_risk
        assert batched[2].direct_identified == (0,) * 8
        assert batched[2].first_direct_round == 8
