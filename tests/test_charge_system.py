"""Property tests of the incremental GF(2) charge-constraint solver.

The contract (``atrisk`` module docstring): :class:`ChargeSystem` returns
the *canonical* minimally-charged dataword, so eliminating a base system
once and extending it incrementally is bit-identical to solving the full
system from scratch — for every split and insertion order of the
constraints.  These tests pin that property over random SEC codes, which
is what makes the memo layer's shared eliminated bases safe.  The
reference is :func:`repro.ecc.gf2.solve`, an independent reduced
row-echelon elimination, over the explicit constraint matrix: a data
position is its unit row and a parity position its row of ``P``.
"""

import numpy as np
import pytest
from randcases import charge_cases, conflicting_charges

from repro.analysis.atrisk import (
    ChargeSystem,
    is_charge_realizable,
    solve_charge_assignment,
)
from repro.ecc import gf2
from repro.ecc.hamming import random_sec_code
from repro.utils.bits import int_to_bits


def _feasible(system: ChargeSystem) -> bool:
    """Whether ``system``'s constraints admit any dataword."""
    return not system._infeasible


def _reference_solution(code, ones) -> int | None:
    """:func:`gf2.solve` over the explicit constraint matrix, as a bitmask."""
    rows = [1 << p if p < code.k else code.parity_row_ints[p - code.k] for p in ones]
    matrix = np.array([int_to_bits(row, code.k) for row in rows], dtype=np.uint8)
    solution = gf2.solve(matrix, np.ones(len(rows), dtype=np.uint8))
    if solution is None:
        return None
    return sum(1 << i for i in np.flatnonzero(solution).tolist())


def _overdetermined_case(seed: int):
    """More charged cells than data bits: about half infeasible."""
    rng = np.random.default_rng(seed)
    code = random_sec_code(int(rng.integers(4, 12)), rng)
    positions = rng.permutation(code.n)[: code.k + int(rng.integers(1, code.n - code.k + 1))]
    return code, tuple(int(p) for p in positions)


class TestIncrementalEquivalence:
    """ChargeSystem(A).with_charged(B) == gf2.solve over the rows of A | B."""

    @pytest.mark.parametrize("case", charge_cases(range(1000, 1040)), ids=str)
    def test_incremental_matches_batch(self, case):
        code, anchors, pair = case
        batch = _reference_solution(code, sorted(anchors | set(pair)))
        incremental = ChargeSystem(code, tuple(sorted(anchors))).with_charged(pair)
        assert incremental.solution_int() == batch
        assert _feasible(incremental) == (batch is not None)

    @pytest.mark.parametrize("case", charge_cases(range(2000, 2020)), ids=str)
    def test_insertion_order_is_irrelevant(self, case):
        code, anchors, pair = case
        positions = list(anchors | set(pair))
        reference = ChargeSystem(code, tuple(sorted(positions))).solution_int()
        case.rng.shuffle(positions)
        assert ChargeSystem(code, tuple(positions)).solution_int() == reference

    @pytest.mark.parametrize("case", charge_cases(range(3000, 3020)), ids=str)
    def test_chained_forks_match_batch(self, case):
        """A fork of a fork: the pair, then two more cells drawn from the case."""
        code, anchors, pair = case
        extra = tuple(int(x) for x in case.rng.choice(code.n, size=2, replace=False))
        charged = anchors | set(pair) | set(extra)
        batch = _reference_solution(code, sorted(charged))
        system = ChargeSystem(code, tuple(sorted(anchors))).with_charged(pair).with_charged(extra)
        assert system.solution_int() == batch
        assert is_charge_realizable(code, charged) == (batch is not None)

    @pytest.mark.parametrize("seed", range(5000, 5020))
    def test_overdetermined_systems_match_batch(self, seed):
        code, ones = _overdetermined_case(seed)
        batch = _reference_solution(code, ones)
        system = ChargeSystem(code, ones)
        assert system.solution_int() == batch
        assert is_charge_realizable(code, set(ones)) == (batch is not None)

    def test_overdetermined_cases_include_infeasible_ones(self):
        """The over-determined stream exercises refutation, not just solving."""
        verdicts = [
            _reference_solution(*_overdetermined_case(seed)) is None
            for seed in range(5000, 5020)
        ]
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("case", charge_cases(range(4000, 4020)), ids=str)
    def test_solution_array_matches_solver(self, case):
        code, anchors, pair = case
        charged = anchors | set(pair)
        array = ChargeSystem(code, tuple(charged)).solution()
        reference = solve_charge_assignment(code, charged)
        if reference is None:
            assert array is None
        else:
            assert np.array_equal(array, reference)
            # The solution must actually charge every constrained cell.
            codeword = code.encode(array)
            assert all(codeword[p] == 1 for p in charged)


class TestChargeSystemSemantics:
    @pytest.fixture()
    def code(self):
        return random_sec_code(16, np.random.default_rng(7))

    def test_with_charged_does_not_mutate_base(self, code):
        base = ChargeSystem(code, (0, 2))
        pivots_before = list(base._basis)
        fork = base.with_charged((code.k, code.k + 1))
        assert base._basis == pivots_before
        assert _feasible(base)
        assert fork is not base

    def test_conflicting_constraints_are_infeasible(self, code):
        system = ChargeSystem(code, conflicting_charges(code))
        assert not _feasible(system)
        assert system.solution_int() is None
        assert system.solution() is None

    def test_duplicate_constraints_are_harmless(self, code):
        once = ChargeSystem(code, (1, 4)).solution_int()
        twice = ChargeSystem(code, (1, 4, 1, 4)).solution_int()
        assert once == twice

    def test_out_of_range_positions_rejected(self, code):
        with pytest.raises(IndexError):
            ChargeSystem(code, (code.n,))
        with pytest.raises(IndexError):
            ChargeSystem(code, (-1,))
        with pytest.raises(IndexError):
            ChargeSystem(code).with_charged((code.n + 5,))

    def test_empty_system_solution_is_zero(self, code):
        system = ChargeSystem(code)
        assert _feasible(system)
        assert system.solution_int() == 0

    def test_realizability_agrees_with_feasibility(self, code):
        rng = np.random.default_rng(11)
        for _ in range(25):
            charged = frozenset(
                int(x) for x in rng.choice(code.n, size=int(rng.integers(1, 5)), replace=False)
            )
            assert _feasible(ChargeSystem(code, tuple(charged))) == is_charge_realizable(
                code, charged
            )
