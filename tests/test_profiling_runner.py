"""Unit and invariant tests for the profiling simulation runner."""

import numpy as np
import pytest

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
    """A run is its change points; the per-round views expand them."""

    A, B, C = frozenset({1}), frozenset({1, 5}), frozenset({1, 5, 9})

    @pytest.mark.parametrize(
        "changes, rounds, identified, observed",
        [
            ([], 0, [], []),
            ([], 3, [frozenset()] * 3, [frozenset()] * 3),
            ([(0, B, A)], 3, [B] * 3, [A] * 3),
            (
                # The last triple repeats its predecessor: a spurious change.
                [(1, A, A), (2, B, A), (4, B, B), (5, C, B), (6, C, B)],
                8,
                [frozenset(), A, B, B, B, C, C, C],
                [frozenset(), A, A, A, B, B, B, B],
            ),
        ],
        ids=["zero-rounds", "no-change", "round-0", "many"],
    )
    def test_views_expand_change_points(self, changes, rounds, identified, observed):
        run = WordRunResult(changes=changes, failures_per_round=[()] * rounds)
        assert run.num_rounds == rounds
        assert run.identified_per_round == identified
        assert run.observed_per_round == observed
        assert run.final_identified() == (identified[-1] if changes else frozenset())

    @pytest.mark.parametrize("name", sorted(PROFILER_REGISTRY))
    def test_simulated_views_have_one_entry_per_round(self, code, name):
        profile = sample_word_profile(code, 4, 1.0, np.random.default_rng(4))
        for rounds in (0, 1, 20):
            run = simulate_word(PROFILER_REGISTRY[name](code, seed=3), profile, rounds, 3)
            assert run.num_rounds == rounds
            assert len(run.identified_per_round) == len(run.observed_per_round) == rounds
            rounds_of_changes = [change[0] for change in run.changes]
            assert rounds_of_changes == sorted(set(rounds_of_changes))
            assert all(0 <= r < rounds for r in rounds_of_changes)


class TestSimulateWord:
    def test_deterministic(self, code):
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(1))
        a = simulate_word(NaiveProfiler(code, 7), profile, 32, word_seed=99)
        b = simulate_word(NaiveProfiler(code, 7), profile, 32, word_seed=99)
        assert a.identified_per_round == b.identified_per_round
        assert a.failures_per_round == b.failures_per_round

    def test_shared_draws_across_profilers(self, code):
        """Profilers with the same patterns see identical failures."""
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(2))
        naive = simulate_word(NaiveProfiler(code, 7), profile, 32, word_seed=99)
        harp = simulate_word(HarpUProfiler(code, 7), profile, 32, word_seed=99)
        assert naive.failures_per_round == harp.failures_per_round

    def test_identification_is_monotone(self, code):
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(3))
        for name, cls in PROFILER_REGISTRY.items():
            result = simulate_word(cls(code, 7), profile, 32, word_seed=5)
            for earlier, later in zip(result.identified_per_round, result.identified_per_round[1:]):
                assert earlier <= later, name

    def test_probability_one_all_charged_fail(self, code):
        """At p=1 every charged at-risk cell fails every round."""
        profile = WordErrorProfile((3, 9), (1.0, 1.0))
        result = simulate_word(NaiveProfiler(code, 7, pattern="charged"), profile, 4, word_seed=1)
        for failed in result.failures_per_round:
            assert failed == (3, 9)

    def test_zero_probability_never_fails(self, code):
        profile = WordErrorProfile((3, 9), (0.0, 0.0))
        result = simulate_word(NaiveProfiler(code, 7), profile, 16, word_seed=1)
        assert all(failed == () for failed in result.failures_per_round)
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
