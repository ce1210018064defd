"""Definitional validation of charge-realizability.

For small codes, enumerate *every* dataword and check directly whether
some pattern charges the requested cells.  This validates the GF(2)
feasibility theory (and therefore the ground-truth computation and the
Z3 substitution) against the raw definition — no linear algebra involved
on the reference side.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.atrisk import compute_ground_truth, is_charge_realizable
from repro.ecc.hamming import random_sec_code
from repro.ecc.syndrome import analyze_error_pattern


def brute_force_realizable(code, charged_ones):
    """Reference oracle: try all 2^k datawords."""
    for message in range(1 << code.k):
        data = np.array([(message >> i) & 1 for i in range(code.k)], dtype=np.uint8)
        codeword = code.encode(data)
        if all(codeword[b] == 1 for b in charged_ones):
            return True
    return False


@pytest.fixture(scope="module")
def small_code():
    return random_sec_code(8, np.random.default_rng(171))


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_realizability_matches_definition(self, data):
        code = random_sec_code(8, np.random.default_rng(data.draw(st.integers(0, 2**16))))
        num_ones = data.draw(st.integers(min_value=0, max_value=6))
        ones = frozenset(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=code.n - 1),
                    min_size=num_ones,
                    max_size=num_ones,
                    unique=True,
                )
            )
        )
        assert is_charge_realizable(code, ones) == brute_force_realizable(code, ones)

    def test_ground_truth_patterns_match_brute_force(self, small_code):
        """Every realizable pattern in the ground truth is realizable by
        the definition, and no realizable pattern is missing."""
        code = small_code
        rng = np.random.default_rng(5)
        at_risk = tuple(sorted(int(p) for p in rng.choice(code.n, 5, replace=False)))
        truth = compute_ground_truth(code, at_risk)
        reported = {outcome.pre_correction for outcome in truth.realizable_outcomes}
        expected = set()
        for size in range(1, len(at_risk) + 1):
            for subset in combinations(at_risk, size):
                if brute_force_realizable(code, frozenset(subset)):
                    expected.add(frozenset(subset))
        assert reported == expected

    def test_post_risk_set_matches_exhaustive_decode(self, small_code):
        """The post-correction at-risk set equals what exhaustively
        decoding every realizable pattern yields."""
        code = small_code
        rng = np.random.default_rng(6)
        at_risk = tuple(sorted(int(p) for p in rng.choice(code.n, 4, replace=False)))
        truth = compute_ground_truth(code, at_risk)
        expected = set()
        for size in range(1, len(at_risk) + 1):
            for subset in combinations(at_risk, size):
                pattern = frozenset(subset)
                if brute_force_realizable(code, pattern):
                    expected |= analyze_error_pattern(code, pattern).data_errors
        assert truth.post_correction_at_risk == frozenset(expected)
