"""Unit tests for memory data patterns."""

import numpy as np
import pytest

from repro.memory.patterns import (
    PATTERN_NAMES,
    ChargedPattern,
    CheckeredPattern,
    DataPattern,
    RandomPattern,
    make_pattern,
    random_rounds,
)
from repro.utils.rng import random_bits


class TestStaticPatterns:
    def test_charged_is_all_ones(self):
        data = ChargedPattern().data_for_round(3, 8)
        assert data.tolist() == [1] * 8

    def test_checkered_alternates(self):
        base = CheckeredPattern().data_for_round(0, 6)
        assert base.tolist() == [0, 1, 0, 1, 0, 1]

    def test_checkered_inverts_on_odd_rounds(self):
        pattern = CheckeredPattern()
        even = pattern.data_for_round(0, 6)
        odd = pattern.data_for_round(1, 6)
        assert ((even ^ odd) == 1).all()


class TestRandomPattern:
    def test_deterministic_per_round(self):
        a = RandomPattern(5).data_for_round(4, 32)
        b = RandomPattern(5).data_for_round(4, 32)
        assert (a == b).all()

    def test_inverts_every_other_round(self):
        """Paper §7.1.2: the random pattern and its inverse are both tested."""
        pattern = RandomPattern(5)
        for block in range(4):
            even = pattern.data_for_round(2 * block, 32)
            odd = pattern.data_for_round(2 * block + 1, 32)
            assert ((even ^ odd) == 1).all()

    def test_base_changes_across_blocks(self):
        pattern = RandomPattern(5)
        first = pattern.data_for_round(0, 64)
        second = pattern.data_for_round(2, 64)
        assert not (first == second).all()

    def test_different_seeds_differ(self):
        a = RandomPattern(1).data_for_round(0, 64)
        b = RandomPattern(2).data_for_round(0, 64)
        assert not (a == b).all()

    def test_every_bit_charged_within_two_rounds(self):
        """Inversion guarantees each cell holds charge once per block."""
        pattern = RandomPattern(9)
        union = pattern.data_for_round(0, 64) | pattern.data_for_round(1, 64)
        assert union.all()


class TestFactory:
    def test_factory_names(self):
        for name in ("random", "charged", "checkered"):
            assert make_pattern(name, seed=1).data_for_round(0, 4).shape == (4,)

    def test_zero_is_not_a_pattern(self):
        """An all-zero dataword charges no cell, so no pattern stores it."""
        assert "zero" not in PATTERN_NAMES
        with pytest.raises(ValueError):
            make_pattern("zero", seed=1)

    def test_factory_unknown(self):
        with pytest.raises(ValueError):
            make_pattern("worst-case-magic")



#: Multiples of 8 and not, from one bit to a 256-bit dataword.
WIDTHS = (1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 57, 64, 100, 128, 129, 255, 256)
#: No rounds, one, and longer odd and even schedules.
ROUND_COUNTS = (0, 1, 2, 3, 7, 16, 33, 64)


class TestVectorizedStream:
    """``random_rounds`` reproduces numpy's Generator stream, bit for bit.

    If a numpy upgrade breaks these, ``random_rounds`` must fall back to the
    Generator path; the golden digests must never be re-pinned for it.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_rounds_materialization(self, seed):
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(0, 2**64, size=3, dtype=np.uint64)]
        for k in WIDTHS:
            num_rounds = int(rng.choice(ROUND_COUNTS))
            built = random_rounds(seeds, num_rounds, k)
            assert built.shape == (len(seeds), num_rounds, k)
            assert built.dtype == np.uint8
            for row, pattern_seed in zip(built, seeds):
                pattern = RandomPattern(pattern_seed)
                reference = DataPattern.rounds(pattern, num_rounds, k)
                assert np.array_equal(row, reference), (pattern_seed, num_rounds, k)
                assert np.array_equal(pattern.rounds(num_rounds, k), reference)

    @pytest.mark.parametrize("num_rounds", ROUND_COUNTS)
    def test_every_round_count(self, num_rounds):
        pattern = RandomPattern(3)
        reference = DataPattern.rounds(pattern, num_rounds, 16)
        assert reference.shape == (num_rounds, 16)
        assert np.array_equal(pattern.rounds(num_rounds, 16), reference)

    def test_random_bits_match_the_generator(self):
        edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        drawn = np.random.default_rng(2021).integers(0, 2**64, size=64, dtype=np.uint64)
        seeds = edges + [int(s) for s in drawn]
        for k in WIDTHS:
            reference = np.stack(
                [np.random.default_rng(s).integers(0, 2, size=k, dtype=np.uint8) for s in seeds]
            )
            assert np.array_equal(random_bits(seeds, k), reference), k

    def test_random_bits_of_no_seeds_or_bits(self):
        assert random_bits([], 8).shape == (0, 8)
        assert random_bits([1, 2], 0).shape == (2, 0)
