"""Unit tests for structural code analysis."""

from itertools import combinations

import numpy as np
import pytest

from repro.ecc import gf2
from repro.ecc.bch import bch_dec_code
from repro.ecc.code_analysis import miscorrection_profile, syndrome_coverage
from repro.ecc.hamming import paper_example_code, random_sec_code
from repro.ecc.linear_code import SystematicCode
from repro.utils.bits import int_to_bits


def minimum_distance(code: SystematicCode, max_weight: int | None = None) -> int:
    """Minimum distance via nullspace search over codeword weights (a test oracle).

    Exhaustive over message space for small ``k`` (<= 16); for larger codes
    pass ``max_weight`` to bound the search over low-weight column
    combinations instead.
    """
    if code.k <= 16:
        best = code.n + 1
        generator = code.generator_matrix_t
        for message in range(1, 1 << code.k):
            bits = int_to_bits(message, code.k)
            weight = int(gf2.matmul(bits.reshape(1, -1), generator).sum())
            best = min(best, weight)
        return best
    limit = max_weight if max_weight is not None else 4
    h = code.parity_check_matrix
    for weight in range(1, limit + 1):
        for pattern in combinations(range(code.n), weight):
            syndrome = np.zeros(code.p, dtype=np.uint8)
            for position in pattern:
                syndrome ^= h[:, position]
            if not syndrome.any():
                return weight
    raise ValueError(f"minimum distance exceeds search bound {limit}")


class TestMinimumDistance:
    def test_hamming_7_4(self):
        assert minimum_distance(paper_example_code()) == 3

    def test_parity_code(self):
        single_parity = SystematicCode(np.ones((1, 4), dtype=np.uint8), correction_capability=0)
        assert minimum_distance(single_parity) == 2

    def test_bch_15_7(self):
        assert minimum_distance(bch_dec_code(7, m=4)) == 5

    def test_large_code_uses_column_search(self):
        code = random_sec_code(64, np.random.default_rng(1))
        assert minimum_distance(code, max_weight=4) >= 3

    def test_large_code_bound_exceeded(self):
        code = random_sec_code(64, np.random.default_rng(1))
        with pytest.raises(ValueError):
            minimum_distance(code, max_weight=2)  # d >= 3 for any SEC code


class TestMiscorrectionProfile:
    def test_single_errors_never_miscorrect(self):
        code = paper_example_code()
        profile = miscorrection_profile(code, 1)
        assert profile.miscorrecting_patterns == 0

    def test_double_errors_on_perfect_hamming_always_miscorrect(self):
        """(7,4) is a perfect code: every double error aliases somewhere."""
        code = paper_example_code()
        profile = miscorrection_profile(code, 2)
        assert profile.total_patterns == 21
        assert profile.miscorrecting_patterns == 21
        assert profile.miscorrection_rate == 1.0

    def test_shortened_code_miscorrects_less(self):
        """A (71,64) code has unmatched syndromes, so some double errors
        are detected instead of miscorrected."""
        code = random_sec_code(64, np.random.default_rng(2))
        profile = miscorrection_profile(code, 2)
        assert 0 < profile.miscorrecting_patterns < profile.total_patterns

    def test_target_counts_align_with_totals(self):
        code = paper_example_code()
        profile = miscorrection_profile(code, 2)
        assert sum(profile.target_counts) == profile.miscorrecting_patterns

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            miscorrection_profile(paper_example_code(), 0)


class TestSyndromeCoverage:
    def test_perfect_code_covers_all(self):
        assert syndrome_coverage(paper_example_code()) == (7, 7)

    def test_71_64_covers_71_of_127(self):
        code = random_sec_code(64, np.random.default_rng(3))
        assert syndrome_coverage(code) == (71, 127)
