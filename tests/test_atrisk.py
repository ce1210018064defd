"""Unit and property tests for ground-truth at-risk computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.atrisk import (
    compute_ground_truth,
    is_charge_realizable,
    max_simultaneous_post_errors,
    predict_indirect_from_direct,
    solve_charge_assignment,
)
from repro.ecc.hamming import paper_example_code, random_sec_code
from repro.ecc.syndrome import analyze_error_pattern


@pytest.fixture(scope="module")
def code():
    return random_sec_code(64, np.random.default_rng(51))


class TestRealizability:
    def test_data_bits_always_realizable(self, code):
        assert is_charge_realizable(code, {0, 5, 63})

    def test_empty_set_realizable(self, code):
        assert is_charge_realizable(code, set())

    def test_conflict_not_realizable(self, code):
        assert not is_charge_realizable(code, {3}, {3})

    def test_solution_charges_requested_cells(self, code):
        targets = {2, code.k + 1, code.k + 4}
        solution = solve_charge_assignment(code, targets)
        assert solution is not None
        codeword = code.encode(solution)
        for position in targets:
            assert codeword[position] == 1

    def test_out_of_range(self, code):
        with pytest.raises(IndexError):
            is_charge_realizable(code, {code.n})

    def test_all_parity_charged_is_decidable(self, code):
        """Charging every parity cell is a full-rank linear system."""
        targets = set(range(code.k, code.n))
        assert is_charge_realizable(code, targets) == (
            solve_charge_assignment(code, targets) is not None
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
    def test_solution_when_realizable(self, seed, count):
        rng = np.random.default_rng(seed)
        local = random_sec_code(16, rng)
        positions = set(int(p) for p in rng.choice(local.n, size=count, replace=False))
        feasible = is_charge_realizable(local, positions)
        solution = solve_charge_assignment(local, positions)
        assert feasible == (solution is not None)


class TestGroundTruth:
    def test_direct_set_is_data_intersection(self, code):
        truth = compute_ground_truth(code, (1, 2, code.k + 3))
        assert truth.direct_at_risk == {1, 2}

    def test_single_at_risk_bit_has_no_post_errors(self, code):
        """SEC always corrects a lone error: nothing is at post-risk."""
        truth = compute_ground_truth(code, (9,))
        assert truth.post_correction_at_risk == frozenset()
        assert truth.indirect_at_risk == frozenset()

    def test_pair_exposes_both_bits(self, code):
        """Two at-risk data bits co-failing defeat SEC: both are at risk."""
        truth = compute_ground_truth(code, (9, 17))
        assert {9, 17} <= truth.post_correction_at_risk

    def test_post_is_union_of_direct_observable_and_indirect(self, code):
        truth = compute_ground_truth(code, (3, 12, 40, code.k + 2))
        observable_direct = frozenset().union(
            *(outcome.direct_errors for outcome in truth.realizable_outcomes)
        )
        assert truth.post_correction_at_risk == observable_direct | truth.indirect_at_risk

    def test_amplification_bounded_by_table2(self, code):
        """|post at-risk| <= 2^n - 1 (paper Table 2)."""
        positions = (3, 12, 40, 55)
        truth = compute_ground_truth(code, positions)
        assert len(truth.post_correction_at_risk) <= 2 ** len(positions) - 1

    def test_enumeration_bound_enforced(self, code):
        with pytest.raises(ValueError):
            compute_ground_truth(code, tuple(range(17)))

    def test_outcomes_only_realizable_patterns(self):
        """Patterns requiring contradictory parity charges are excluded."""
        code = paper_example_code()
        # Find a parity pair unrealizable together, if any exists: for the
        # (7,4) code charge constraints on two parity cells are two XOR
        # rows; all are jointly satisfiable, so every pattern is realizable
        # and the count must be 2^n - 1.
        truth = compute_ground_truth(code, (4, 5))
        assert len(truth.realizable_outcomes) == 3


class TestMaxSimultaneous:
    def test_zero_when_everything_identified(self, code):
        truth = compute_ground_truth(code, (3, 12, 40))
        assert max_simultaneous_post_errors(truth, frozenset()) == 0

    def test_full_missed_set_counts_worst_pattern(self, code):
        truth = compute_ground_truth(code, (3, 12, 40))
        worst = max_simultaneous_post_errors(truth, truth.post_correction_at_risk)
        # Three co-failing data bits remain three or four errors (with
        # a possible miscorrection) — never fewer than 3 missed.
        assert worst >= 3

    def test_harp_invariant_after_direct_coverage(self, code):
        """Paper §6: with all direct-risk bits identified, at most one
        (indirect) post-correction error can occur at a time."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            positions = tuple(sorted(int(p) for p in rng.choice(code.n, 5, replace=False)))
            truth = compute_ground_truth(code, positions)
            missed = truth.post_correction_at_risk - truth.direct_at_risk
            assert max_simultaneous_post_errors(truth, missed) <= 1


class TestPredictIndirect:
    def test_prediction_matches_pairwise_analysis(self, code):
        direct = frozenset({3, 12, 40})
        predicted = predict_indirect_from_direct(code, direct)
        expected = set()
        from itertools import combinations

        for size in (2, 3):
            for subset in combinations(sorted(direct), size):
                expected |= analyze_error_pattern(code, frozenset(subset)).indirect_errors
        assert predicted == expected

    def test_prediction_subset_of_ground_truth_indirect(self, code):
        positions = (3, 12, 40, 55)
        truth = compute_ground_truth(code, positions)
        predicted = predict_indirect_from_direct(code, truth.direct_at_risk)
        assert predicted <= truth.indirect_at_risk

    def test_parity_position_rejected(self, code):
        with pytest.raises(IndexError):
            predict_indirect_from_direct(code, {code.k})

    def test_fewer_than_two_bits_predict_nothing(self, code):
        assert predict_indirect_from_direct(code, {5}) == frozenset()
        assert predict_indirect_from_direct(code, set()) == frozenset()
