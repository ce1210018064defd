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
from randcases import conflicting_charges

from repro.analysis.atrisk import is_charge_realizable, solve_charge_assignment
from repro.ecc.hamming import random_sec_code


def make_instance(seed, k, num_ones):
    rng = np.random.default_rng(seed)
    code = random_sec_code(k, rng)
    positions = rng.choice(code.n, size=min(num_ones, code.n), replace=False)
    return code, frozenset(int(p) for p in positions)


instance = st.builds(
    make_instance,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.sampled_from([8, 16, 26]),
    num_ones=st.integers(min_value=0, max_value=8),
)


class TestAgreement:
    @settings(max_examples=60, deadline=None)
    @given(instance)
    def test_decisions_agree(self, case):
        code, ones = case
        assert is_charge_realizable(code, ones) == sat_is_charge_realizable(code, ones)

    @settings(max_examples=40, deadline=None)
    @given(instance)
    def test_both_solutions_satisfy_constraints(self, case):
        code, ones = case
        for solver in (solve_charge_assignment, sat_charge_assignment):
            solution = solver(code, ones)
            if solution is None:
                continue
            codeword = code.encode(solution)
            for position in ones:
                assert codeword[position] == 1


class TestKnownCases:
    def test_data_only_constraints_always_feasible(self):
        code, _ = make_instance(0, 16, 0)
        assert sat_is_charge_realizable(code, {0, 1, 2})
        assert is_charge_realizable(code, {0, 1, 2})

    def test_conflicting_position_infeasible(self):
        code, _ = make_instance(0, 16, 0)
        charged = set(conflicting_charges(code))
        assert not sat_is_charge_realizable(code, charged)
        assert not is_charge_realizable(code, charged)

    def test_parity_constraint_binds_data(self):
        code, _ = make_instance(1, 8, 0)
        parity_position = code.k  # first parity bit
        solution = sat_charge_assignment(code, {parity_position})
        assert solution is not None
        assert code.encode(solution)[parity_position] == 1
