"""Per-word coverage trajectories, as Figs 6, 8 and 9 consume them.

:func:`~repro.experiments.runner.metrics_for_words` reduces each
profiler's trace of a word to the per-round counts the exhibits pool.
For every profiler those trajectories must agree with the word's ground
truth: the totals are the sizes of its at-risk sets, identification only
grows, and the missed indirect-risk bits and the required secondary-ECC
capability only shrink.
"""

import numpy as np
import pytest

from repro.analysis.atrisk import compute_ground_truth, max_simultaneous_post_errors
from repro.ecc.hamming import random_sec_code
from repro.experiments.runner import metrics_for_words
from repro.memory.error_model import sample_word_profile
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.runner import simulate_word

NUM_ROUNDS = 16


@pytest.fixture(scope="module")
def words():
    code = random_sec_code(64, np.random.default_rng(101))
    rng = np.random.default_rng(1)
    profiles = [sample_word_profile(code, 4, probability, rng) for probability in (1.0, 0.5, 0.5)]
    truths = [compute_ground_truth(code, profile) for profile in profiles]
    return code, profiles, truths


@pytest.fixture(scope="module", params=sorted(PROFILER_REGISTRY))
def cell(request, words):
    """(ground truth, metrics) of each word under one profiler."""
    code, profiles, truths = words
    runs = [
        simulate_word(
            PROFILER_REGISTRY[request.param](code, seed=3), profile, NUM_ROUNDS, word_seed=index
        )
        for index, profile in enumerate(profiles)
    ]
    return list(zip(truths, metrics_for_words(runs, truths, NUM_ROUNDS)))


def _non_decreasing(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def _non_increasing(values) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


class TestCoverageTrajectory:
    def test_totals_constant(self, cell):
        for truth, metrics in cell:
            assert metrics.direct_total == len(truth.direct_at_risk)
            assert metrics.indirect_total == len(truth.indirect_at_risk)
            assert metrics.post_total == len(truth.post_correction_at_risk)
            for series in (
                metrics.direct_identified,
                metrics.indirect_missed,
                metrics.post_identified,
                metrics.capability,
            ):
                assert len(series) == NUM_ROUNDS

    def test_identified_monotone(self, cell):
        for _, metrics in cell:
            assert _non_decreasing(metrics.direct_identified)
            assert _non_decreasing(metrics.post_identified)
            assert 0 <= metrics.direct_identified[-1] <= metrics.direct_total
            assert 0 <= metrics.post_identified[-1] <= metrics.post_total

    def test_missed_indirect_monotone_decreasing(self, cell):
        for _, metrics in cell:
            assert _non_increasing(metrics.indirect_missed)
            assert 0 <= metrics.indirect_missed[-1]
            assert metrics.indirect_missed[0] <= metrics.indirect_total

    def test_capability_never_grows(self, cell):
        """Repairing more bits can only lower the worst case, which starts
        no higher than with nothing repaired and ends at 0 once every
        post-correction risk bit is identified."""
        for truth, metrics in cell:
            unrepaired = max_simultaneous_post_errors(truth, truth.post_correction_at_risk)
            assert _non_increasing(metrics.capability)
            assert metrics.capability[0] <= unrepaired
            if metrics.post_identified[-1] == metrics.post_total:
                assert metrics.capability[-1] == 0

    def test_first_direct_round_matches_trajectory(self, cell):
        for _, metrics in cell:
            hits = [r + 1 for r, count in enumerate(metrics.direct_identified) if count]
            assert metrics.first_direct_round == (hits[0] if hits else NUM_ROUNDS)
