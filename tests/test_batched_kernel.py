"""Bit-identity and contract tests of the cell-batched simulation kernel.

The batched kernel (`simulate_words_batched`) must be indistinguishable
from running the scalar reference (`simulate_word`) once per word: same
identified trace, and each profiler fed what the word's failure patterns
imply (every round's mismatches on the scalar path; on the batched one,
the first round of each distinct pattern for normal reads and each round
that grows the union of failed data bits for bypass reads), under both
GF(2) products, including degenerate words with no at-risk bits and
bypass words wider than an int64 key.  These tests pin
that equivalence property-style over randomized rectangular cells, plus
the dispatch rules (the `batched` profiler flag, adaptive and
custom-schedule rejection), the probe-then-insert memo protocol the
kernel batches normal-read decodes through, and that bypass reads never
reach the decode memo.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_modes import check_feed, force_gf2_tier, force_scalar_kernel, kernel_mode, record_feed
from randcases import random_cell

from repro.analysis.atrisk import compute_ground_truth
from repro.analysis.memo import (
    CacheStats,
    Memo,
    clear_analysis_caches,
    code_caches,
    mismatch_consequence_cache,
)
from repro.ecc.hamming import canonical_sec_code
from repro.experiments.config import SweepConfig
from repro.experiments.runner import clear_engine_caches, run_sweep
from repro.memory.error_model import WordErrorProfile
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.base import Profiler
from repro.profiling.beep import BeepProfiler
from repro.profiling.harp import HarpAProfiler, HarpUProfiler
from repro.profiling.naive import NaiveProfiler
from repro.profiling.oracle import OracleProfiler
from repro.profiling.runner import (
    post_correction_data_errors,
    simulate_cell,
    simulate_word,
    simulate_words_batched,
)

BATCHED_CLASSES = (NaiveProfiler, HarpUProfiler, HarpAProfiler)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_analysis_caches()
    yield
    clear_analysis_caches()


def _assert_kernels_agree(make, profiles, seeds, num_rounds):
    """Run every word through both kernels with fresh ``make(word_index)``
    profilers: the traces must match, and both feeds must be what the
    same recomputed failure patterns imply."""
    clear_analysis_caches()
    scalar, scalar_fed = [], []
    for index, (profile, seed) in enumerate(zip(profiles, seeds)):
        profiler = make(index)
        scalar_fed.append((profiler, record_feed(profiler)))
        scalar.append(simulate_word(profiler, profile, num_rounds, word_seed=seed))
    clear_analysis_caches()
    profilers = [make(index) for index in range(len(profiles))]
    batched_fed = [(profiler, record_feed(profiler)) for profiler in profilers]
    batched = simulate_words_batched(profilers, profiles, num_rounds, seeds)
    assert len(scalar) == len(batched)
    for reference, candidate, profile, seed, (s_profiler, s_feed), (b_profiler, b_feed) in zip(
        scalar, batched, profiles, seeds, scalar_fed, batched_fed
    ):
        assert reference.identified_per_round == candidate.identified_per_round
        assert reference.num_rounds == candidate.num_rounds == num_rounds
        assert b_feed.events is not None or not num_rounds
        assert check_feed(s_profiler, s_feed, profile, seed, num_rounds) == check_feed(
            b_profiler, b_feed, profile, seed, num_rounds
        )


class TestBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        cls=st.sampled_from(BATCHED_CLASSES),
        master_seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_words=st.integers(min_value=1, max_value=8),
        num_rounds=st.integers(min_value=1, max_value=24),
    )
    def test_matches_scalar_on_random_cells(
        self, cls, master_seed, num_words, num_rounds
    ):
        rng = np.random.default_rng(master_seed)
        codes, profiles, seeds = random_cell(rng, num_words)
        _assert_kernels_agree(
            lambda i: cls(codes[i], seed=seeds[i]), profiles, seeds, num_rounds
        )

    @pytest.mark.parametrize("tier", ["packed", "unpacked"])
    def test_matches_scalar_on_both_gf2_tiers(self, tier, monkeypatch):
        force_gf2_tier(monkeypatch, tier)
        rng = np.random.default_rng(11)
        codes, profiles, seeds = random_cell(rng, 10)
        for cls in BATCHED_CLASSES:
            _assert_kernels_agree(lambda i: cls(codes[i], seed=seeds[i]), profiles, seeds, 32)

    @pytest.mark.parametrize("pattern", ["random", "charged", "checkered"])
    def test_matches_scalar_on_a_16_bit_code_over_24_rounds(self, pattern):
        code = canonical_sec_code(16)
        rng = np.random.default_rng(23)
        _, profiles, seeds = random_cell(rng, 6)
        profiles = [
            WordErrorProfile(
                tuple(p for p in profile.positions if p < code.n),
                profile.probabilities[: sum(1 for p in profile.positions if p < code.n)],
            )
            for profile in profiles
        ]
        for cls in BATCHED_CLASSES:
            _assert_kernels_agree(
                lambda i: cls(code, seed=seeds[i], pattern=pattern), profiles, seeds, 24
            )

    @pytest.mark.parametrize("pattern", ["charged", "random"])
    def test_matches_scalar_past_int64_pattern_keys(self, pattern):
        """Normal-read words with too many at-risk bits for an int64
        (word, pattern) key take the per-round nonzero path; the charged
        pattern at p=1.0 repeats one failure pattern every round.
        HARP-U's bypass events need no key at any width.  (HARP-A is
        left out: its prediction enumerates subsets of ~60 observed
        bits.)"""
        code = canonical_sec_code(64)
        rng = np.random.default_rng(37)
        positions = [
            tuple(sorted(rng.choice(code.n, size=62, replace=False).tolist()))
            for _ in range(3)
        ]
        profiles = [
            WordErrorProfile(positions[0], (1.0,) * 62),
            WordErrorProfile(positions[1], tuple(rng.uniform(0.02, 0.2, size=62).tolist())),
            WordErrorProfile(positions[2], (0.5,) * 62),
        ]
        seeds = [int(s) for s in rng.integers(0, 2**31, size=len(profiles))]
        for cls in (NaiveProfiler, HarpUProfiler):
            _assert_kernels_agree(
                lambda i: cls(code, seed=seeds[i], pattern=pattern), profiles, seeds, 12
            )

    @pytest.mark.parametrize("pattern", ["charged", "random"])
    def test_bypass_word_wider_than_an_int64_key(self, pattern):
        """A bypass word has no at-risk width limit: 70 of a 64-bit
        SEC code's 71 positions at risk, at p=1.0 and below."""
        code = canonical_sec_code(64)
        rng = np.random.default_rng(43)
        positions = tuple(sorted(rng.choice(code.n, size=70, replace=False).tolist()))
        profiles = [
            WordErrorProfile(positions, (1.0,) * 70),
            WordErrorProfile(positions, tuple(rng.uniform(0.02, 0.2, size=70).tolist())),
        ]
        seeds = [int(s) for s in rng.integers(0, 2**31, size=len(profiles))]
        _assert_kernels_agree(
            lambda i: HarpUProfiler(code, seed=seeds[i], pattern=pattern), profiles, seeds, 12
        )

    def test_oracle_with_ground_truth_matches_scalar(self):
        code = canonical_sec_code(16)
        rng = np.random.default_rng(31)
        profiles = [
            WordErrorProfile((1, 4, 9), (0.5, 0.9, 1.0)),
            WordErrorProfile((), ()),  # zero-at-risk word rides along
            WordErrorProfile((0, code.n - 1), (0.25, 0.75)),
        ]
        seeds = [int(s) for s in rng.integers(0, 2**31, size=len(profiles))]
        truths = [compute_ground_truth(code, profile) for profile in profiles]
        _assert_kernels_agree(
            lambda i: OracleProfiler(code, seed=seeds[i], ground_truth=truths[i]),
            profiles,
            seeds,
            16,
        )

    def test_zero_rounds_and_empty_batch(self):
        code = canonical_sec_code(16)
        profile = WordErrorProfile((2, 5), (0.5, 1.0))
        runs = simulate_words_batched(
            [NaiveProfiler(code, seed=1)], [profile], 0, [1]
        )
        assert runs[0].identified_per_round == []
        assert runs[0].num_rounds == 0
        assert simulate_words_batched([], [], 8, []) == []


class TestDispatchRules:
    def test_adaptive_profiler_is_rejected(self):
        code = canonical_sec_code(16)
        with pytest.raises(ValueError, match="adaptive"):
            simulate_words_batched(
                [BeepProfiler(code, seed=1)],
                [WordErrorProfile((2,), (1.0,))],
                4,
                [1],
            )

    def test_profiler_without_batched_contract_is_rejected(self):
        class LegacyProfiler(Profiler):
            name = "legacy"
            batched = False

            def observe(self, round_index, mismatches):
                self._observed.update(mismatches)

        code = canonical_sec_code(16)
        with pytest.raises(ValueError, match="batched"):
            simulate_words_batched(
                [LegacyProfiler(code, seed=1)],
                [WordErrorProfile((2,), (1.0,))],
                4,
                [1],
            )

    def test_batched_profiler_with_its_own_schedule_is_refused(self):
        class CustomScheduleProfiler(NaiveProfiler):
            def pattern_for_round(self, round_index):
                return np.ones(self.code.k, dtype=np.uint8)

        assert CustomScheduleProfiler.batched
        code = canonical_sec_code(16)
        with pytest.raises(ValueError, match="pattern_for_round"):
            simulate_words_batched(
                [CustomScheduleProfiler(code, seed=1)],
                [WordErrorProfile((2,), (1.0,))],
                4,
                [1],
            )

    def test_engine_results_identical_across_kernels(self, monkeypatch):
        config = SweepConfig(
            num_codes=2,
            words_per_code=3,
            num_rounds=32,
            error_counts=(2, 3),
            probabilities=(0.5, 1.0),
            profilers=("Naive", "HARP-U", "HARP-A"),
        )
        with monkeypatch.context() as patched:
            force_scalar_kernel(patched)
            clear_engine_caches()
            clear_analysis_caches()
            scalar = run_sweep(config)
        clear_engine_caches()
        clear_analysis_caches()
        batched = run_sweep(config)
        assert scalar.cells == batched.cells
        assert scalar.quarantined == batched.quarantined

    def test_adaptive_cells_keep_working_with_kernel_enabled(self):
        # BEEP cells must silently fall back to the scalar path.
        config = SweepConfig(
            num_codes=1,
            words_per_code=2,
            num_rounds=16,
            error_counts=(2,),
            probabilities=(1.0,),
            profilers=("Naive", "BEEP"),
        )
        clear_engine_caches()
        result = run_sweep(config)
        assert set(name for (_, _, name) in result.cells) == {"Naive", "BEEP"}


class TestMemoBatchProtocol:
    def test_peek_returns_none_without_counting_a_miss(self):
        memo = Memo(max_entries=4)
        assert memo.peek_many(["absent", "absent"]) == [None, None]
        assert memo.stats.misses == 0
        assert memo.stats.hits == 0

    def test_insert_counts_exactly_one_miss(self):
        memo = Memo(max_entries=4)
        memo.insert("k", "v")
        assert memo.stats.misses == 1
        assert memo.peek_many(["k"]) == ["v"]
        assert memo.stats.hits == 1

    def test_peek_many_accounts_hits_and_leaves_misses_alone(self):
        memo = Memo(max_entries=8)
        memo.insert("a", 1)
        memo.insert("b", 2)
        values = memo.peek_many(["a", "missing", "b", "a"])
        assert values == [1, None, 2, 1]
        assert memo.stats.hits == 3
        assert memo.stats.misses == 2  # only the two inserts

    def test_probe_then_insert_matches_get_semantics(self):
        memo = Memo(max_entries=8)
        computed = []

        def compute():
            computed.append(1)
            return "value"

        # Batched producer: probe, compute off-memo, insert.
        if memo.peek_many(["key"]) == [None]:
            memo.insert("key", compute())
        # A later get must hit without recomputing.
        assert memo.get("key", compute) == "value"
        assert computed == [1]
        assert memo.stats.misses == 1
        assert memo.stats.hits == 1

    def test_decode_consequences_share_between_scalar_and_batched(self):
        code = canonical_sec_code(16)
        handle = code_caches(code)
        pattern = (1, 3)
        value = handle.decode_consequences(
            pattern, lambda: post_correction_data_errors(code, pattern)
        )
        assert handle.peek_decode_consequences_many([pattern, (0, 2)]) == [value, None]

    @pytest.mark.parametrize("kernel", ["auto", "scalar"])
    def test_bypass_cells_leave_the_decode_memo_empty(self, kernel, monkeypatch):
        kernel_mode(monkeypatch, kernel)
        cell = random_cell(np.random.default_rng(5), 8)
        runs = simulate_cell(["HARP-U", "HARP-A"], cell.codes, cell.profiles, cell.seeds, 32)
        assert any(run.changes for run in runs["HARP-U"])
        assert len(mismatch_consequence_cache) == 0
        assert mismatch_consequence_cache.stats == CacheStats()

    def test_normal_read_decodes_shared_between_kernels(self, monkeypatch):
        """The batched kernel finds every decode of a scalar Naive cell
        in the memo (the scalar one also decodes the empty pattern)."""
        cell = random_cell(np.random.default_rng(5), 8)
        with monkeypatch.context() as patched:
            force_scalar_kernel(patched)
            scalar = simulate_cell(["Naive"], cell.codes, cell.profiles, cell.seeds, 32)
        stats = mismatch_consequence_cache.stats
        decoded, hits = stats.misses, stats.hits
        assert decoded == len(mismatch_consequence_cache) > 0
        assert simulate_cell(["Naive"], cell.codes, cell.profiles, cell.seeds, 32) == scalar
        assert stats.misses == decoded
        assert stats.hits > hits


class TestObserveManyContract:
    def test_post_state_matches_per_round_replay(self):
        code = canonical_sec_code(16)
        events = [(0, frozenset({1})), (3, frozenset({1, 4})), (7, frozenset({2}))]
        for cls in BATCHED_CLASSES:
            replayed = cls(code, seed=9)
            for round_index, mismatches in events:
                replayed.observe(round_index, mismatches)
            batched = cls(code, seed=9)
            changes = batched.observe_many(list(events))
            assert batched.identified == replayed.identified
            assert batched.identified_observed == replayed.identified_observed
            assert batched.identified_predicted == replayed.identified_predicted
            assert changes[-1][1] == batched.identified
            assert [round_index for round_index, _ in changes] == [0, 3, 7]

    def test_duplicate_events_produce_no_changes(self):
        code = canonical_sec_code(16)
        profiler = HarpUProfiler(code, seed=2)
        assert profiler.observe_many([(0, frozenset({5}))])
        assert profiler.observe_many([(4, frozenset({5}))]) == []

    def test_oracle_reveals_once_at_round_zero(self):
        code = canonical_sec_code(16)
        profile = WordErrorProfile((1, 6), (1.0, 1.0))
        truth = compute_ground_truth(code, profile)
        profiler = OracleProfiler(code, seed=3, ground_truth=truth)
        changes = profiler.observe_many([(2, frozenset({1}))])
        assert len(changes) == 1 and changes[0][0] == 0
        assert profiler.observe_many([(5, frozenset({6}))]) == []

    def test_registry_profilers_declare_consistent_flags(self):
        for name, cls in PROFILER_REGISTRY.items():
            if cls.batched:
                # A batched class writes its standard schedule: it is not adaptive.
                assert cls.crafted_for_round is Profiler.crafted_for_round, name
