"""Cross-validation: SAT encoding vs GF(2) elimination (the Z3 substitution).

The paper decides charge-realizability with Z3; this repository decides it
with Gaussian elimination and keeps a CNF encoding as an independent oracle.
These property tests assert the two decision procedures agree on random
instances, which is the correctness argument for the substitution
(DESIGN.md §3).
"""

import numpy as np
from gf2_encoding import sat_charge_assignment, sat_is_charge_realizable
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.atrisk import is_charge_realizable, solve_charge_assignment
from repro.ecc.hamming import random_sec_code


def make_instance(seed, k, num_ones, num_zeros):
    rng = np.random.default_rng(seed)
    code = random_sec_code(k, rng)
    positions = rng.choice(code.n, size=min(num_ones + num_zeros, code.n), replace=False)
    ones = frozenset(int(p) for p in positions[:num_ones])
    zeros = frozenset(int(p) for p in positions[num_ones:])
    return code, ones, zeros


instance = st.builds(
    make_instance,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.sampled_from([8, 16, 26]),
    num_ones=st.integers(min_value=0, max_value=5),
    num_zeros=st.integers(min_value=0, max_value=3),
)


class TestAgreement:
    @settings(max_examples=60, deadline=None)
    @given(instance)
    def test_decisions_agree(self, case):
        code, ones, zeros = case
        linear = is_charge_realizable(code, ones, zeros)
        sat = sat_is_charge_realizable(code, ones, zeros)
        assert linear == sat

    @settings(max_examples=40, deadline=None)
    @given(instance)
    def test_both_solutions_satisfy_constraints(self, case):
        code, ones, zeros = case
        for solver in (solve_charge_assignment, sat_charge_assignment):
            solution = solver(code, ones, zeros)
            if solution is None:
                continue
            codeword = code.encode(solution)
            for position in ones:
                assert codeword[position] == 1
            for position in zeros:
                assert codeword[position] == 0


class TestKnownCases:
    def test_data_only_constraints_always_feasible(self):
        code, _, _ = make_instance(0, 16, 0, 0)
        assert sat_is_charge_realizable(code, {0, 1, 2})
        assert is_charge_realizable(code, {0, 1, 2})

    def test_conflicting_position_infeasible(self):
        code, _, _ = make_instance(0, 16, 0, 0)
        assert not sat_is_charge_realizable(code, {3}, {3})
        assert not is_charge_realizable(code, {3}, {3})

    def test_parity_constraint_binds_data(self):
        code, _, _ = make_instance(1, 8, 0, 0)
        parity_position = code.k  # first parity bit
        solution = sat_charge_assignment(code, {parity_position})
        assert solution is not None
        assert code.encode(solution)[parity_position] == 1
