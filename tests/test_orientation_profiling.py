"""End-to-end tests of anti-cell orientation through analysis + profiling.

The paper assumes all true cells; real DRAM mixes true and anti cells, so
the library supports arbitrary orientations.  The invariant under test:
data-dependence flips with orientation — with anti cells the all-zeros
pattern is the vulnerable state — but the profiling story (HARP covers the
direct-risk set; ground truth bounds everything) is orientation-invariant.
"""

import numpy as np
import pytest
from kernel_modes import check_feed, record_feed

from repro.analysis.atrisk import compute_ground_truth
from repro.ecc.hamming import random_sec_code
from repro.memory.cells import CellOrientation, all_true_cells, alternating_cells
from repro.memory.error_model import WordErrorProfile, sample_word_profile
from repro.profiling.harp import HarpUProfiler
from repro.profiling.naive import NaiveProfiler
from repro.profiling.runner import simulate_word


@pytest.fixture(scope="module")
def code():
    return random_sec_code(64, np.random.default_rng(111))


def all_anti(n):
    return CellOrientation(np.zeros(n, dtype=np.uint8))


class TestGroundTruthWithOrientation:
    def test_default_matches_all_true(self, code):
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(0))
        default = compute_ground_truth(code, profile)
        explicit = compute_ground_truth(code, profile, all_true_cells(code.n))
        assert default.realizable_outcomes == explicit.realizable_outcomes

    def test_anti_data_cells_still_fully_realizable(self, code):
        """Anti data cells need stored 0 — data bits are free, so data-only
        patterns stay realizable under any orientation."""
        profile = WordErrorProfile((3, 9, 20), (0.5, 0.5, 0.5))
        truth = compute_ground_truth(code, profile, all_anti(code.n))
        assert len(truth.realizable_outcomes) == 7  # all nonempty subsets

    def test_mixed_orientation_constrains_parity_patterns(self, code):
        """A pattern needing c=1 and c=0 on parity cells simultaneously is
        a different linear system than all-true; both must be decided
        without error (smoke: no exception, outcome count bounded)."""
        parity = (code.k, code.k + 1, code.k + 2)
        profile = WordErrorProfile(parity, (0.5, 0.5, 0.5))
        for orientation in (all_true_cells(code.n), all_anti(code.n), alternating_cells(code.n)):
            truth = compute_ground_truth(code, profile, orientation)
            assert len(truth.realizable_outcomes) <= 7


class TestProfilingWithOrientation:
    def test_anti_cells_fail_under_zero_pattern(self, code):
        """With anti cells and p=1, the zero pattern charges every cell."""
        assert self._failures(code, "zero") == [(3, 9)] * 4

    def test_anti_cells_never_fail_under_ones_pattern(self, code):
        assert self._failures(code, "charged") == [()] * 4

    @staticmethod
    def _failures(code, pattern):
        """Each round's failures of a p=1 word of anti cells, as the kernel fed them."""
        profile = WordErrorProfile((3, 9), (1.0, 1.0))
        profiler = NaiveProfiler(code, 1, pattern=pattern)
        feed = record_feed(profiler)
        orientation = all_anti(code.n)
        simulate_word(profiler, profile, 4, word_seed=1, orientation=orientation)
        return check_feed(profiler, feed, profile, 1, 4, orientation=orientation)

    def test_harp_covers_direct_bits_under_any_orientation(self, code):
        """The random-with-inversion schedule charges every cell within two
        rounds regardless of orientation, so HARP still covers everything."""
        rng = np.random.default_rng(5)
        profile = sample_word_profile(code, 5, 1.0, rng)
        for orientation in (all_true_cells(code.n), all_anti(code.n), alternating_cells(code.n)):
            truth = compute_ground_truth(code, profile, orientation)
            profiler = HarpUProfiler(code, 9)
            result = simulate_word(
                profiler, profile, 8, word_seed=9, orientation=orientation
            )
            assert result.final_identified() == truth.direct_at_risk

    def test_identifications_sound_under_mixed_orientation(self, code):
        rng = np.random.default_rng(6)
        profile = sample_word_profile(code, 4, 0.5, rng)
        orientation = alternating_cells(code.n)
        truth = compute_ground_truth(code, profile, orientation)
        result = simulate_word(
            NaiveProfiler(code, 2), profile, 64, word_seed=2, orientation=orientation
        )
        assert result.final_identified() <= truth.post_correction_at_risk
