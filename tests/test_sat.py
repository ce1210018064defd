"""Unit and property tests for the mini DPLL SAT solver."""

from itertools import product

import pytest
from cnf import Cnf
from dpll import is_satisfiable, solve
from hypothesis import given, settings
from hypothesis import strategies as st


def brute_force_satisfiable(cnf: Cnf) -> bool:
    """Reference oracle: try all assignments (small formulas only)."""
    for bits in product([False, True], repeat=cnf.num_variables):
        assignment = {i + 1: bits[i] for i in range(cnf.num_variables)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        ):
            return True
    return False


def random_cnf(num_vars: int, clause_specs: list[list[int]]) -> Cnf:
    cnf = Cnf(num_variables=num_vars)
    for spec in clause_specs:
        cnf.add_clause(spec)
    return cnf


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert is_satisfiable(Cnf())

    def test_empty_clause_is_unsat(self):
        cnf = Cnf()
        cnf.add_clause([])
        assert not is_satisfiable(cnf)

    def test_unit_contradiction(self):
        cnf = Cnf()
        cnf.add_unit(1)
        cnf.add_unit(-1)
        assert not is_satisfiable(cnf)

    def test_simple_model(self):
        cnf = Cnf()
        cnf.add_clause([1, 2])
        cnf.add_unit(-1)
        model = solve(cnf)
        assert model is not None
        assert model[1] is False
        assert model[2] is True

    def test_model_covers_unconstrained_variables(self):
        cnf = Cnf()
        cnf.new_variables(3)
        cnf.add_unit(2)
        model = solve(cnf)
        assert set(model) == {1, 2, 3}

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Cnf().add_clause([0])

    def test_model_satisfies_formula(self):
        cnf = Cnf()
        cnf.add_clause([1, -2, 3])
        cnf.add_clause([-1, 2])
        cnf.add_clause([-3, -1])
        model = solve(cnf)
        assert model is not None
        for clause in cnf.clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)


class TestXor:
    def test_xor_parity_one(self):
        cnf = Cnf()
        variables = cnf.new_variables(3)
        cnf.add_xor(variables, 1)
        model = solve(cnf)
        assert model is not None
        assert sum(model[v] for v in variables) % 2 == 1

    def test_xor_parity_zero(self):
        cnf = Cnf()
        variables = cnf.new_variables(4)
        cnf.add_xor(variables, 0)
        model = solve(cnf)
        assert sum(model[v] for v in variables) % 2 == 0

    def test_empty_xor_parity_one_unsat(self):
        cnf = Cnf()
        cnf.add_xor([], 1)
        assert not is_satisfiable(cnf)

    def test_conflicting_xors(self):
        cnf = Cnf()
        a, b = cnf.new_variables(2)
        cnf.add_xor([a, b], 0)
        cnf.add_xor([a, b], 1)
        assert not is_satisfiable(cnf)

    def test_invalid_parity(self):
        with pytest.raises(ValueError):
            Cnf().add_xor([1], 2)


class TestAgainstBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(
                        st.integers(min_value=1, max_value=n).flatmap(
                            lambda v: st.sampled_from([v, -v])
                        ),
                        min_size=1,
                        max_size=3,
                    ),
                    max_size=8,
                ),
            )
        )
    )
    def test_agrees_with_oracle(self, spec):
        num_vars, clause_specs = spec
        cnf = random_cnf(num_vars, clause_specs)
        assert is_satisfiable(cnf) == brute_force_satisfiable(cnf)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(
                        st.integers(min_value=1, max_value=n).flatmap(
                            lambda v: st.sampled_from([v, -v])
                        ),
                        min_size=1,
                        max_size=3,
                    ),
                    max_size=8,
                ),
            )
        )
    )
    def test_returned_models_are_valid(self, spec):
        num_vars, clause_specs = spec
        cnf = random_cnf(num_vars, clause_specs)
        model = solve(cnf)
        if model is not None:
            for clause in cnf.clauses:
                assert any(model[abs(lit)] == (lit > 0) for lit in clause)
