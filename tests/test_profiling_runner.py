"""Unit and invariant tests for the profiling simulation runner."""

import numpy as np
import pytest
from kernel_modes import check_feed, record_feed

from repro.analysis.atrisk import compute_ground_truth
from repro.ecc.hamming import random_sec_code
from repro.memory.error_model import WordErrorProfile, sample_word_profile
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.harp import HarpUProfiler
from repro.profiling.naive import NaiveProfiler
from repro.profiling.runner import WordRunResult, post_correction_data_errors, simulate_word


@pytest.fixture(scope="module")
def code():
    return random_sec_code(64, np.random.default_rng(91))


class TestPostCorrectionDataErrors:
    def test_empty(self, code):
        assert post_correction_data_errors(code, ()) == frozenset()

    def test_single_corrected(self, code):
        assert post_correction_data_errors(code, (7,)) == frozenset()

    def test_matches_analysis(self, code):
        from repro.ecc.syndrome import analyze_error_pattern

        rng = np.random.default_rng(0)
        for _ in range(30):
            pattern = tuple(sorted(int(p) for p in rng.choice(code.n, 3, replace=False)))
            fast = post_correction_data_errors(code, pattern)
            slow = analyze_error_pattern(code, frozenset(pattern)).data_errors
            assert fast == slow


class TestWordRunResultViews:
    """A run is its change points; its segments and per-round view derive from them."""

    A, B, C = frozenset({1}), frozenset({1, 5}), frozenset({1, 5, 9})
    EMPTY = frozenset()

    @pytest.mark.parametrize(
        "changes, rounds, identified, segments",
        [
            ([], 0, [], []),
            ([], 3, [EMPTY] * 3, [(0, EMPTY)]),
            ([(0, B)], 3, [B] * 3, [(0, B)]),
            (
                # The pairs at rounds 4 and 6 repeat their predecessors'
                # sets: spurious changes, which start no segment.
                [(1, A), (2, B), (4, B), (5, C), (6, C)],
                8,
                [EMPTY, A, B, B, B, C, C, C],
                [(0, EMPTY), (1, A), (2, B), (5, C)],
            ),
        ],
        ids=["zero-rounds", "no-change", "round-0", "many"],
    )
    def test_views_expand_change_points(self, changes, rounds, identified, segments):
        run = WordRunResult(changes=changes, num_rounds=rounds)
        assert run.num_rounds == rounds
        assert run.segments() == segments
        assert run.identified_per_round == identified
        assert run.final_identified() == (identified[-1] if changes else frozenset())

    @pytest.mark.parametrize("name", sorted(PROFILER_REGISTRY))
    def test_simulated_views_have_one_entry_per_round(self, code, name):
        profile = sample_word_profile(code, 4, 1.0, np.random.default_rng(4))
        for rounds in (0, 1, 20):
            run = simulate_word(PROFILER_REGISTRY[name](code, seed=3), profile, rounds, 3)
            assert run.num_rounds == rounds
            assert len(run.identified_per_round) == rounds
            rounds_of_changes = [change[0] for change in run.changes]
            assert rounds_of_changes == sorted(set(rounds_of_changes))
            assert all(0 <= r < rounds for r in rounds_of_changes)
            starts = [start for start, _ in run.segments()]
            assert starts == sorted(set(starts))
            assert starts[:1] == ([0] if rounds else [])


def _fed_run(profiler, profile, rounds, word_seed, **kwargs):
    """``simulate_word``'s run, its feed, and the failure patterns it implies."""
    feed = record_feed(profiler)
    run = simulate_word(profiler, profile, rounds, word_seed=word_seed, **kwargs)
    return run, feed, check_feed(profiler, feed, profile, word_seed, rounds, **kwargs)


class TestSimulateWord:
    def test_deterministic(self, code):
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(1))
        a, a_feed, a_failures = _fed_run(NaiveProfiler(code, 7), profile, 32, 99)
        b, b_feed, b_failures = _fed_run(NaiveProfiler(code, 7), profile, 32, 99)
        assert a.identified_per_round == b.identified_per_round
        assert a_feed == b_feed
        assert a_failures == b_failures

    def test_shared_draws_across_profilers(self, code):
        """Profilers with the same patterns see identical failures (§7.1.2).

        The two read through different paths (ECC on, ECC bypassed), so
        their mismatches differ; each must be the consequence of the
        same failure pattern, round by round.
        """
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(2))
        naive, naive_feed, naive_failures = _fed_run(NaiveProfiler(code, 7), profile, 32, 99)
        harp, harp_feed, harp_failures = _fed_run(HarpUProfiler(code, 7), profile, 32, 99)
        assert naive_feed.datawords == harp_feed.datawords
        assert naive_failures == harp_failures
        assert any(naive_failures)

    def test_identification_is_monotone(self, code):
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(3))
        for name, cls in PROFILER_REGISTRY.items():
            result = simulate_word(cls(code, 7), profile, 32, word_seed=5)
            for earlier, later in zip(result.identified_per_round, result.identified_per_round[1:]):
                assert earlier <= later, name

    def test_probability_one_all_charged_fail(self, code):
        """At p=1 every charged at-risk cell fails every round."""
        profile = WordErrorProfile((3, 9), (1.0, 1.0))
        _, _, failures = _fed_run(NaiveProfiler(code, 7, pattern="charged"), profile, 4, 1)
        assert failures == [(3, 9)] * 4

    def test_checkered_pattern_charges_alternate_cells(self, code):
        """A cell fails only while it stores 1: the checkered pattern charges
        odd data cells on even rounds and even ones on odd rounds."""
        profile = WordErrorProfile((2, 9), (1.0, 1.0))
        _, _, failures = _fed_run(NaiveProfiler(code, 7, pattern="checkered"), profile, 4, 1)
        assert failures == [(9,), (2,), (9,), (2,)]

    def test_zero_probability_never_fails(self, code):
        profile = WordErrorProfile((3, 9), (0.0, 0.0))
        result, _, failures = _fed_run(NaiveProfiler(code, 7), profile, 16, 1)
        assert failures == [()] * 16
        assert result.final_identified() == frozenset()

    def test_empty_profile(self, code):
        profile = WordErrorProfile((), ())
        result = simulate_word(NaiveProfiler(code, 7), profile, 8, word_seed=1)
        assert result.final_identified() == frozenset()

    def test_out_of_range_profile(self, code):
        with pytest.raises(IndexError):
            simulate_word(
                NaiveProfiler(code, 7), WordErrorProfile((code.n,), (0.5,)), 4, word_seed=1
            )


class TestPaperInvariants:
    """Core claims of the paper, checked on randomized instances."""

    @pytest.mark.parametrize("seed", range(6))
    def test_harp_bypass_identifies_only_true_direct_bits(self, code, seed):
        """Bypass observations are sound: only genuine at-risk data bits."""
        rng = np.random.default_rng(seed)
        profile = sample_word_profile(code, 5, 0.75, rng)
        truth = compute_ground_truth(code, profile)
        result = simulate_word(HarpUProfiler(code, seed), profile, 64, word_seed=seed)
        assert result.final_identified() <= truth.direct_at_risk

    @pytest.mark.parametrize("seed", range(6))
    def test_harp_full_direct_coverage_at_p1_charged(self, code, seed):
        """At p=1 with the charged pattern, HARP covers all direct-risk
        bits in one round (paper Fig 6, 100% panel)."""
        rng = np.random.default_rng(seed)
        profile = sample_word_profile(code, 5, 1.0, rng)
        truth = compute_ground_truth(code, profile)
        result = simulate_word(
            HarpUProfiler(code, seed, pattern="charged"), profile, 1, word_seed=seed
        )
        assert result.final_identified() == truth.direct_at_risk

    @pytest.mark.parametrize("seed", range(6))
    def test_harp_full_direct_coverage_at_p1_random(self, code, seed):
        """The random pattern and its inverse charge every data cell between
        them, so at p=1 HARP covers all direct-risk bits in two rounds."""
        rng = np.random.default_rng(seed)
        profile = sample_word_profile(code, 5, 1.0, rng)
        truth = compute_ground_truth(code, profile)
        result = simulate_word(HarpUProfiler(code, seed), profile, 2, word_seed=seed)
        assert result.final_identified() == truth.direct_at_risk

    @pytest.mark.parametrize("seed", range(6))
    def test_naive_identifications_within_post_risk_set(self, code, seed):
        """Naive marks only bits that genuinely can err post-correction."""
        rng = np.random.default_rng(seed)
        profile = sample_word_profile(code, 4, 0.5, rng)
        truth = compute_ground_truth(code, profile)
        result = simulate_word(NaiveProfiler(code, seed), profile, 64, word_seed=seed)
        assert result.final_identified() <= truth.post_correction_at_risk

    @pytest.mark.parametrize("name", ["Naive", "BEEP", "HARP-U", "HARP-A", "HARP-A+BEEP"])
    def test_all_identifications_sound(self, code, name):
        """No profiler ever marks a bit outside the ground-truth post-risk
        or direct-risk universe (no false positives)."""
        rng = np.random.default_rng(17)
        profile = sample_word_profile(code, 5, 0.5, rng)
        truth = compute_ground_truth(code, profile)
        universe = truth.post_correction_at_risk | truth.direct_at_risk
        # HARP-A's prediction may include bits whose triggering patterns
        # involve data bits only; those are still within the ground truth
        # universe by construction.
        result = simulate_word(PROFILER_REGISTRY[name](code, 17), profile, 64, word_seed=17)
        assert result.final_identified() <= universe, name
