"""Tests for exact post-correction probability computation.

The analytic enumeration is validated against brute-force Monte-Carlo
simulation of the actual encoder/decoder — the strongest end-to-end check
of the library's decode semantics.
"""

import numpy as np
import pytest

from repro.analysis.atrisk import MAX_AT_RISK_FOR_ENUMERATION
from repro.analysis.probabilities import (
    WordBerAnalyzer,
    charged_at_risk_bits,
    expected_residual_ber_after_secondary,
    expected_unrepaired_ber,
    per_bit_post_error_probabilities,
)
from repro.ecc.hamming import random_sec_code
from repro.memory.error_model import RetentionErrorModel, WordErrorProfile, sample_word_profile


@pytest.fixture(scope="module")
def code():
    return random_sec_code(64, np.random.default_rng(61))


def monte_carlo_probabilities(code, profile, data, trials, seed):
    """Reference estimator: simulate the full encode/corrupt/decode path."""
    model = RetentionErrorModel()
    rng = np.random.default_rng(seed)
    codeword = code.encode(data)
    counts: dict[int, int] = {}
    for _ in range(trials):
        corrupted, _ = model.corrupt(codeword, profile, rng)
        decoded = code.decode(corrupted)
        for position in np.flatnonzero(decoded.data != data):
            counts[int(position)] = counts.get(int(position), 0) + 1
    return {position: count / trials for position, count in counts.items()}


class TestChargedAtRiskBits:
    def test_all_charged_under_ones(self, code):
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(0))
        data = np.ones(code.k, dtype=np.uint8)
        charged = charged_at_risk_bits(code, profile, data)
        data_positions = [p for p in profile.positions if p < code.k]
        charged_positions = [p for p, _ in charged]
        for position in data_positions:
            assert position in charged_positions

    def test_none_charged_under_zeros(self, code):
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(1))
        data = np.zeros(code.k, dtype=np.uint8)
        assert charged_at_risk_bits(code, profile, data) == []


class TestPerBitProbabilities:
    def test_single_bit_never_escapes(self, code):
        profile = WordErrorProfile((5,), (1.0,))
        data = np.ones(code.k, dtype=np.uint8)
        assert per_bit_post_error_probabilities(code, profile, data) == {}

    def test_pair_at_probability_one(self, code):
        """Two always-failing bits: deterministic uncorrectable pattern."""
        profile = WordErrorProfile((5, 9), (1.0, 1.0))
        data = np.ones(code.k, dtype=np.uint8)
        probabilities = per_bit_post_error_probabilities(code, profile, data)
        assert probabilities.get(5) == 1.0
        assert probabilities.get(9) == 1.0

    def test_probabilities_within_unit_interval(self, code):
        profile = sample_word_profile(code, 6, 0.5, np.random.default_rng(2))
        data = np.ones(code.k, dtype=np.uint8)
        for probability in per_bit_post_error_probabilities(code, profile, data).values():
            assert 0.0 <= probability <= 1.0

    def test_enumeration_is_bounded(self, code):
        """More charged at-risk bits than the bound are refused up front
        instead of enumerating every failure subset."""
        count = MAX_AT_RISK_FOR_ENUMERATION + 1
        profile = WordErrorProfile(tuple(range(count)), (0.5,) * count)
        data = np.ones(code.k, dtype=np.uint8)  # charges every data bit
        with pytest.raises(ValueError, match="enumeration bound"):
            per_bit_post_error_probabilities(code, profile, data)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_monte_carlo(self, code, seed):
        """Analytic enumeration must agree with simulating the decoder."""
        rng = np.random.default_rng(seed)
        profile = sample_word_profile(code, 4, 0.5, rng)
        data = np.ones(code.k, dtype=np.uint8)
        exact = per_bit_post_error_probabilities(code, profile, data)
        estimated = monte_carlo_probabilities(code, profile, data, trials=4000, seed=seed)
        for position in set(exact) | set(estimated):
            assert abs(exact.get(position, 0.0) - estimated.get(position, 0.0)) < 0.05


class TestBer:
    def test_full_repair_gives_zero_ber(self, code):
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(3))
        data = np.ones(code.k, dtype=np.uint8)
        at_risk = frozenset(per_bit_post_error_probabilities(code, profile, data))
        assert expected_unrepaired_ber(code, profile, data, at_risk) == 0.0

    def test_no_repair_ber_is_sum_over_bits(self, code):
        profile = sample_word_profile(code, 3, 0.5, np.random.default_rng(4))
        data = np.ones(code.k, dtype=np.uint8)
        probabilities = per_bit_post_error_probabilities(code, profile, data)
        expected = sum(probabilities.values()) / code.k
        assert abs(expected_unrepaired_ber(code, profile, data, frozenset()) - expected) < 1e-12

    def test_secondary_sec_zeroes_single_error_words(self, code):
        """A word whose worst case is one concurrent error is fully covered
        by a SEC secondary code."""
        profile = WordErrorProfile((5, 9), (0.5, 0.5))
        data = np.ones(code.k, dtype=np.uint8)
        # Repair both direct-risk bits: at most one indirect error remains.
        residual = expected_residual_ber_after_secondary(code, profile, data, {5, 9})
        assert residual == 0.0

    def test_residual_never_exceeds_unrepaired(self, code):
        profile = sample_word_profile(code, 5, 0.75, np.random.default_rng(5))
        data = np.ones(code.k, dtype=np.uint8)
        for repaired in (frozenset(), frozenset({0, 1, 2})):
            before = expected_unrepaired_ber(code, profile, data, repaired)
            after = expected_residual_ber_after_secondary(code, profile, data, repaired)
            assert after <= before + 1e-12


class TestWordBerAnalyzer:
    def test_matches_direct_functions(self, code):
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(6))
        data = np.ones(code.k, dtype=np.uint8)
        analyzer = WordBerAnalyzer(code, profile, data)
        for repaired in (frozenset(), frozenset({1, 2, 3}), frozenset(range(10))):
            assert (
                abs(
                    analyzer.unrepaired_ber(repaired)
                    - expected_unrepaired_ber(code, profile, data, repaired)
                )
                < 1e-12
            )
            assert (
                abs(
                    analyzer.residual_ber_after_secondary(repaired)
                    - expected_residual_ber_after_secondary(code, profile, data, repaired)
                )
                < 1e-12
            )

    def test_monotone_in_repair(self, code):
        profile = sample_word_profile(code, 5, 0.5, np.random.default_rng(7))
        analyzer = WordBerAnalyzer(code, profile, np.ones(code.k, dtype=np.uint8))
        all_bits = sorted({p for _, errors in analyzer._outcomes for p in errors})
        previous = analyzer.unrepaired_ber(frozenset())
        repaired: set[int] = set()
        for bit in all_bits:
            repaired.add(bit)
            current = analyzer.unrepaired_ber(repaired)
            assert current <= previous + 1e-12
            previous = current
