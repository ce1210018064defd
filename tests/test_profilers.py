"""Unit tests for the profiler implementations."""

import numpy as np
import pytest

from repro.analysis.atrisk import compute_ground_truth
from repro.ecc.hamming import random_sec_code
from repro.memory.error_model import WordErrorProfile
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.base import ReadMode
from repro.profiling.beep import BeepProfiler
from repro.profiling.combined import HarpABeepProfiler
from repro.profiling.harp import HarpAProfiler, HarpUProfiler
from repro.profiling.naive import NaiveProfiler
from repro.profiling.oracle import OracleProfiler
from repro.utils.bits import int_to_bits


@pytest.fixture(scope="module")
def code():
    return random_sec_code(64, np.random.default_rng(81))


class TestReadModes:
    def test_naive_uses_normal_path(self, code):
        assert NaiveProfiler(code, 0).read_mode_for(0) == ReadMode.NORMAL

    def test_beep_uses_normal_path(self, code):
        assert BeepProfiler(code, 0).read_mode_for(5) == ReadMode.NORMAL

    def test_harp_uses_bypass(self, code):
        assert HarpUProfiler(code, 0).read_mode_for(0) == ReadMode.BYPASS
        assert HarpAProfiler(code, 0).read_mode_for(7) == ReadMode.BYPASS

    def test_combined_switches_paths(self, code):
        profiler = HarpABeepProfiler(code, 0, switch_round=4)
        assert profiler.read_mode_for(3) == ReadMode.BYPASS
        assert profiler.read_mode_for(4) == ReadMode.NORMAL


class TestObservationAccumulation:
    def test_identified_accumulates_monotonically(self, code):
        profiler = NaiveProfiler(code, 0)
        profiler.observe(0, frozenset({3}))
        profiler.observe(1, frozenset({9}))
        profiler.observe(2, frozenset())
        assert profiler.identified == {3, 9}

    def test_harp_u_predicts_nothing(self, code):
        profiler = HarpUProfiler(code, 0)
        profiler.observe(0, frozenset({3, 9}))
        assert profiler.identified_predicted == frozenset()
        assert profiler.identified == {3, 9}

    def test_harp_a_prediction_channel(self, code):
        from repro.analysis.atrisk import predict_indirect_from_direct

        profiler = HarpAProfiler(code, 0)
        profiler.observe(0, frozenset({3, 9}))
        expected = predict_indirect_from_direct(code, {3, 9})
        assert profiler.identified_predicted == expected
        assert profiler.identified == frozenset({3, 9}) | expected

    def test_harp_a_prediction_refreshes_on_new_direct_bits(self, code):
        profiler = HarpAProfiler(code, 0)
        profiler.observe(0, frozenset({3}))
        first = profiler.identified_predicted
        profiler.observe(1, frozenset({9, 20}))
        second = profiler.identified_predicted
        assert first == frozenset()  # one bit predicts nothing
        assert second != frozenset() or len(second) == 0  # refreshed (may be empty)
        assert profiler.identified_observed == {3, 9, 20}


class TestBeepCrafting:
    def test_random_pattern_before_first_anchor(self, code):
        profiler = BeepProfiler(code, seed=5)
        baseline = NaiveProfiler(code, seed=5)
        assert (
            profiler.pattern_for_round(0) == baseline.pattern_for_round(0)
        ).all()

    def test_crafted_pattern_charges_hypothesis_cells(self, code):
        profiler = BeepProfiler(code, seed=5)
        profiler.observe(0, frozenset({12}))
        pattern = profiler.pattern_for_round(1)
        codeword = code.encode(pattern)
        # The anchor cell must be charged by every crafted pattern.
        assert codeword[12] == 1

    def test_crafted_patterns_cycle_hypotheses(self, code):
        profiler = BeepProfiler(code, seed=5)
        profiler.observe(0, frozenset({12}))
        patterns = {profiler.pattern_for_round(r).tobytes() for r in range(1, 9)}
        assert len(patterns) > 1  # explores different hypotheses

    def test_pattern_for_round_unpacks_crafted_for_round(self, code):
        """Two identically fed instances: the array is the bitmask's bits."""
        arrays, ints = BeepProfiler(code, seed=5), BeepProfiler(code, seed=5)
        standard = NaiveProfiler(code, seed=5)
        for round_index in range(24):
            if round_index == 4:
                arrays.observe(3, frozenset({12, 40}))
                ints.observe(3, frozenset({12, 40}))
            crafted = ints.crafted_for_round(round_index)
            assert (crafted is None) == (round_index < 4)
            expected = (
                standard.pattern_for_round(round_index)
                if crafted is None
                else int_to_bits(crafted, code.k)
            )
            assert np.array_equal(arrays.pattern_for_round(round_index), expected)

    def test_hypotheses_deduplicated_per_target(self, code):
        profiler = BeepProfiler(code, seed=5)
        profiler.observe(0, frozenset({12}))
        count = len(profiler._hypotheses)
        profiler.observe(1, frozenset({12}))
        assert len(profiler._hypotheses) == count


class TestCombined:
    def test_seeds_beep_with_harp_findings(self, code):
        profiler = HarpABeepProfiler(code, 0, switch_round=2)
        profiler.observe(0, frozenset({4}))
        profiler.observe(1, frozenset({13}))
        profiler.pattern_for_round(2)  # triggers the hand-off
        assert {4, 13} <= profiler._beep.identified_observed

    def test_invalid_switch_round(self, code):
        with pytest.raises(ValueError):
            HarpABeepProfiler(code, 0, switch_round=0)

    def test_identified_merges_phases(self, code):
        profiler = HarpABeepProfiler(code, 0, switch_round=1)
        profiler.observe(0, frozenset({4}))
        profiler.pattern_for_round(1)
        profiler.observe(1, frozenset({30}))
        assert {4, 30} <= profiler.identified


class TestRegistry:
    def test_all_profilers_constructible(self, code):
        for name, cls in PROFILER_REGISTRY.items():
            profiler = cls(code, seed=1)
            assert profiler.name == name
            assert profiler.pattern_for_round(0).shape == (code.k,)


class TestObserveSignalsChanges:
    """``observe`` returns ``True`` on every round its identified set moved.

    The kernels record a change point only when it does, so a missed
    ``True`` drops a change from the trace.  Each case drives one
    profiler through the harness's call order (``crafted_for_round``,
    then ``observe``) with a seeded mismatch sequence that repeats
    positions, leaves rounds empty, and crosses the hybrid's switch
    round with no new mismatch on the hand-off round itself.
    """

    ROUNDS = 28
    SWITCH = 16  # HarpABeepProfiler's default switch_round

    @pytest.fixture(scope="class")
    def small_code(self):
        return random_sec_code(16, np.random.default_rng(83))

    def _profiler(self, name, code, rng):
        if name == "Oracle":
            positions = tuple(sorted(rng.choice(code.n, size=4, replace=False).tolist()))
            truth = compute_ground_truth(code, WordErrorProfile(positions, (1.0,) * 4))
            return OracleProfiler(code, seed=5, ground_truth=truth)
        return PROFILER_REGISTRY[name](code, seed=5)

    def _mismatches(self, rng, pool, round_index):
        if round_index == self.SWITCH or rng.random() < 0.4:
            return frozenset()
        size = int(rng.integers(1, 4))
        return frozenset(rng.choice(pool, size=size, replace=False).tolist())

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("name", [*sorted(PROFILER_REGISTRY), "Oracle"])
    def test_every_change_is_signalled(self, small_code, name, seed):
        rng = np.random.default_rng(seed)
        profiler = self._profiler(name, small_code, rng)
        pool = rng.choice(small_code.k, size=6, replace=False)
        state = profiler.identified
        for round_index in range(self.ROUNDS):
            profiler.crafted_for_round(round_index)
            changed = profiler.observe(round_index, self._mismatches(rng, pool, round_index))
            after = profiler.identified
            assert changed or after == state, (name, seed, round_index)
            state = after

    def test_hand_off_moves_only_the_observation_channel(self, small_code):
        """Seeding BEEP grows ``identified_observed`` but not ``identified``.

        HARP-A's predictions become BEEP observations, and ``identified``
        already held them, so the hand-off round's ``observe`` owes no
        ``True``.
        """
        profiler = HarpABeepProfiler(small_code, 5, switch_round=self.SWITCH)
        for round_index in range(self.SWITCH):
            profiler.crafted_for_round(round_index)
            profiler.observe(round_index, frozenset({0, 1, 2}) if round_index == 3 else frozenset())
        predicted = profiler.identified_predicted
        assert predicted - {0, 1, 2}, "the case needs HARP-A predictions to hand off"
        observed, identified = profiler.identified_observed, profiler.identified
        profiler.crafted_for_round(self.SWITCH)
        assert profiler.identified_observed == observed | predicted != observed
        assert profiler.identified == identified
        assert not profiler.observe(self.SWITCH, frozenset())
        assert not profiler.observe(self.SWITCH + 1, frozenset())
