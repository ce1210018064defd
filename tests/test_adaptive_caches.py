"""Tests of the adaptive-profiler cache layers.

Covers the acceptance guarantee: the code-level caches (crafted-pattern
epochs, aliasing-pair tables) must never change a trace — hot and cold
runs are bit-identical for BEEP and the hybrid — and the memoized
artifacts must actually be shared across words that use the same code.
"""

import numpy as np
import pytest
from kernel_modes import check_feed, record_feed

from repro.analysis.atrisk import solve_charge_assignment
from repro.analysis.memo import (
    CraftedEpoch,
    beep_expansion_cache,
    cached_aliasing_pairs,
    clear_analysis_caches,
    code_caches,
    crafted_pattern_cache,
)
from repro.ecc.bch import bch_dec_code
from repro.ecc.code_analysis import aliasing_pairs_for_target
from repro.ecc.hamming import (
    canonical_sec_code,
    minimal_aliasing_code,
    paper_example_code,
    random_sec_code,
)
from repro.experiments.runner import clear_engine_caches
from repro.memory.error_model import sample_word_profile
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.runner import simulate_word
from repro.utils.bits import int_to_bits

ADAPTIVE = ("BEEP", "HARP-A+BEEP")


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_engine_caches()
    clear_analysis_caches()
    yield
    clear_engine_caches()
    clear_analysis_caches()


def _trace(profiler_name, code, profile, rounds=64, seed=17):
    """The run, what the kernel fed its profiler, and the failures that implies."""
    profiler = PROFILER_REGISTRY[profiler_name](code, seed=seed)
    feed = record_feed(profiler)
    run = simulate_word(profiler, profile, rounds, seed)
    return run, feed, check_feed(profiler, feed, profile, seed, rounds)


class TestHotColdBitIdentity:
    @pytest.mark.parametrize("profiler_name", ADAPTIVE)
    def test_trace_identical_with_warm_caches(self, profiler_name):
        code = random_sec_code(32, np.random.default_rng(3))
        profile = sample_word_profile(code, 5, 0.75, np.random.default_rng(4))
        cold, cold_feed, cold_failures = _trace(profiler_name, code, profile)
        assert crafted_pattern_cache.stats.misses > 0
        hot, hot_feed, hot_failures = _trace(profiler_name, code, profile)
        assert cold.identified_per_round == hot.identified_per_round
        assert cold_feed == hot_feed
        assert cold_failures == hot_failures

    @pytest.mark.parametrize("profiler_name", ADAPTIVE)
    def test_trace_survives_cache_flush_between_runs(self, profiler_name):
        """Clearing every cache between runs must not change results."""
        code = random_sec_code(32, np.random.default_rng(5))
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(6))
        first, first_feed, first_failures = _trace(profiler_name, code, profile)
        clear_engine_caches()
        clear_analysis_caches()
        second, second_feed, second_failures = _trace(profiler_name, code, profile)
        assert first.identified_per_round == second.identified_per_round
        assert first_feed == second_feed
        assert first_failures == second_failures


class TestCraftedPatternMemo:
    def test_assignment_matches_straight_solver(self):
        code = random_sec_code(16, np.random.default_rng(8))
        anchors = (1, 3, 6)
        epoch = code_caches(code).crafted_epoch(anchors)
        for pair in aliasing_pairs_for_target(code, 2):
            cached = epoch.assignment(pair)
            direct = solve_charge_assignment(code, set(anchors) | set(pair))
            if direct is None:
                assert cached is None
            else:
                assert np.array_equal(int_to_bits(cached, code.k), direct)

    def test_epoch_shared_across_lookups(self):
        code = random_sec_code(16, np.random.default_rng(9))
        epoch_a = code_caches(code).crafted_epoch((2, 5))
        epoch_b = code_caches(code).crafted_epoch((2, 5))
        assert epoch_a is epoch_b
        assert crafted_pattern_cache.stats.hits == 1

    def test_epoch_fast_path_matches_generic(self):
        """All-data systems short-circuit; the result must be canonical."""
        code = random_sec_code(24, np.random.default_rng(10))
        anchors = (0, 4, 7)
        data_pair = (2, 9)
        parity_pair = (1, code.k + 1)
        epoch = CraftedEpoch(code, anchors)
        for pair in (data_pair, parity_pair):
            expected = solve_charge_assignment(code, set(anchors) | set(pair))
            got = epoch.assignment(pair)
            if expected is None:
                assert got is None
            else:
                assert np.array_equal(int_to_bits(got, code.k), expected)

    def test_epoch_base_is_shared_across_pairs(self):
        """One eliminated base serves every hypothesis pair of an epoch."""
        code = random_sec_code(16, np.random.default_rng(13))
        epoch = code_caches(code).crafted_epoch((1, 4))
        epoch.assignment((2, code.k))
        base = epoch._base
        assert base is not None
        epoch.assignment((3, code.k + 1))
        assert epoch._base is base


def _dutta_touba_pairs(code) -> dict[int, tuple[tuple[int, int], ...]]:
    """Oracle: XOR every pair of H's columns, keep the pairs equal to column t.

    The double loop Dutta and Touba use to find the 2-bit errors a
    SEC-DAEC code miscorrects, read off the dense parity-check matrix
    rather than the integer column table the code under test uses.
    """
    h = code.parity_check_matrix
    n = h.shape[1]
    columns = [h[:, t].tobytes() for t in range(n)]
    pairs: dict[int, list[tuple[int, int]]] = {t: [] for t in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            syndrome = (h[:, i] ^ h[:, j]).tobytes()
            for target, column in enumerate(columns):
                if syndrome == column:
                    pairs[target].append((i, j))
    return {target: tuple(found) for target, found in pairs.items()}


#: Every Hamming and BCH construction the repo builds, n from 7 to 38.
ORACLE_CODES = {
    **{f"canonical-k{k}": lambda k=k: canonical_sec_code(k) for k in (4, 8, 11, 16, 26, 32)},
    **{
        f"random-k{k}": lambda k=k: random_sec_code(k, np.random.default_rng(k))
        for k in (4, 8, 11, 16, 26, 32)
    },
    **{
        f"minimal-aliasing-k{k}": lambda k=k: minimal_aliasing_code(
            k, np.random.default_rng(100 + k)
        )
        for k in (4, 8, 16)
    },
    "paper-example": paper_example_code,
    **{f"bch-k{k}": lambda k=k: bch_dec_code(k) for k in (4, 8, 16, 21)},
}


class TestAliasingPairMemo:
    @pytest.mark.parametrize("name", list(ORACLE_CODES))
    def test_complete_against_the_column_pair_oracle(self, name):
        code = ORACLE_CODES[name]()
        assert 7 <= code.n <= 38
        expected = _dutta_touba_pairs(code)
        for target in range(code.n):
            assert aliasing_pairs_for_target(code, target) == expected[target], target
            assert cached_aliasing_pairs(code, target) == expected[target], target

    def test_matches_pure_function(self):
        code = random_sec_code(16, np.random.default_rng(14))
        for target in range(code.n):
            assert cached_aliasing_pairs(code, target) == aliasing_pairs_for_target(
                code, target
            )

    def test_shared_across_words_of_one_code(self):
        """Two BEEP instances on one code expand each target only once."""
        code = random_sec_code(32, np.random.default_rng(15))
        first = PROFILER_REGISTRY["BEEP"](code, seed=1)
        first.observe(0, frozenset({2, 6}))
        misses = beep_expansion_cache.stats.misses
        assert misses == 2
        second = PROFILER_REGISTRY["BEEP"](code, seed=2)
        second.observe(0, frozenset({2, 6}))
        assert beep_expansion_cache.stats.misses == misses
        assert beep_expansion_cache.stats.hits >= 2
        assert first._hypotheses == second._hypotheses

    def test_rejects_out_of_range_target(self):
        code = random_sec_code(16, np.random.default_rng(16))
        with pytest.raises(IndexError):
            aliasing_pairs_for_target(code, code.n)

    def test_pairs_explain_the_target_syndrome(self):
        code = random_sec_code(16, np.random.default_rng(17))
        for target in (0, code.k, code.n - 1):
            for a, b in aliasing_pairs_for_target(code, target):
                assert a < b
                assert code.column_int(a) ^ code.column_int(b) == code.column_int(target)
