"""Unit and statistical tests for the retention error model."""

import numpy as np
import pytest

from repro.ecc.hamming import random_sec_code
from repro.memory.error_model import (
    RetentionErrorModel,
    WordErrorProfile,
    normal_probability_profile,
    sample_word_profile,
)


@pytest.fixture(scope="module")
def code():
    return random_sec_code(64, np.random.default_rng(31))


class TestWordErrorProfile:
    def test_validation_sorted_unique(self):
        with pytest.raises(ValueError):
            WordErrorProfile((3, 1), (0.5, 0.5))
        with pytest.raises(ValueError):
            WordErrorProfile((1, 1), (0.5, 0.5))

    def test_validation_probability_range(self):
        with pytest.raises(ValueError):
            WordErrorProfile((1,), (1.5,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            WordErrorProfile((1,), (0.5, 0.5))


class TestSampling:
    def test_sample_word_profile_count(self, code):
        profile = sample_word_profile(code, 5, 0.5, np.random.default_rng(0))
        assert profile.count == 5
        assert all(0 <= p < code.n for p in profile.positions)

    def test_sample_word_profile_too_many(self, code):
        with pytest.raises(ValueError):
            sample_word_profile(code, code.n + 1, 0.5, np.random.default_rng(0))

    def test_normal_profile_clipped(self, code):
        profile = normal_probability_profile(code, 10, 0.5, 1.0, np.random.default_rng(2))
        assert all(0.0 <= p <= 1.0 for p in profile.probabilities)


class TestRetentionErrorModel:
    def test_only_charged_cells_fail(self, code):
        """With all-zero data on true cells, nothing can fail."""
        model = RetentionErrorModel()
        profile = sample_word_profile(code, 6, 1.0, np.random.default_rng(3))
        codeword = code.encode(np.zeros(code.k, dtype=np.uint8))
        failures = model.sample_failures(codeword, profile, np.random.default_rng(0))
        assert not failures.any()

    def test_vulnerable_exactly_where_stored_one(self, code):
        """A cell holds charge, and so can fail, exactly when it stores 1;
        a batch of codewords keeps its leading axis."""
        model = RetentionErrorModel()
        profile = sample_word_profile(code, 12, 0.5, np.random.default_rng(9))
        data = np.random.default_rng(10).integers(0, 2, size=(5, code.k), dtype=np.uint8)
        codewords = np.stack([code.encode(row) for row in data])
        mask = model.vulnerable_mask(codewords, profile)
        assert mask.shape == (5, profile.count)
        assert np.array_equal(mask, codewords[:, list(profile.positions)] == 1)
        assert np.array_equal(model.vulnerable_mask(codewords[2], profile), mask[2])

    def test_probability_one_fails_all_charged(self, code):
        model = RetentionErrorModel()
        profile = sample_word_profile(code, 6, 1.0, np.random.default_rng(4))
        codeword = code.encode(np.ones(code.k, dtype=np.uint8))
        vulnerable = model.vulnerable_mask(codeword, profile)
        failures = model.sample_failures(codeword, profile, np.random.default_rng(0))
        assert (failures == vulnerable).all()

    def test_failure_rate_matches_probability(self, code):
        model = RetentionErrorModel()
        profile = WordErrorProfile((0, 1), (0.25, 0.25))
        codeword = code.encode(np.ones(code.k, dtype=np.uint8))
        rng = np.random.default_rng(5)
        batch = np.tile(codeword, (4000, 1))
        failures = model.sample_failures(batch, profile, rng)
        rate = failures.mean()
        assert 0.2 < rate < 0.3

    def test_corrupt_flips_exactly_failures(self, code):
        model = RetentionErrorModel()
        profile = sample_word_profile(code, 4, 1.0, np.random.default_rng(6))
        codeword = code.encode(np.ones(code.k, dtype=np.uint8))
        corrupted, failures = model.corrupt(codeword, profile, np.random.default_rng(0))
        flipped = np.flatnonzero(corrupted != codeword)
        expected = [p for p, failed in zip(profile.positions, failures) if failed]
        assert sorted(flipped.tolist()) == sorted(expected)

    def test_empty_profile(self, code):
        model = RetentionErrorModel()
        profile = WordErrorProfile((), ())
        codeword = code.encode(np.ones(code.k, dtype=np.uint8))
        corrupted, failures = model.corrupt(codeword, profile, np.random.default_rng(0))
        assert (corrupted == codeword).all()
        assert failures.size == 0
