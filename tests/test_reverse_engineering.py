"""Tests for the BEER-lite on-die ECC reverse-engineering module."""

from functools import partial

import numpy as np
import pytest

from repro.ecc import gf2
from repro.ecc.hamming import paper_example_code, random_sec_code
from repro.ecc.linear_code import SystematicCode
from repro.ecc.reverse_engineering import (
    EccReverseEngineer,
    Observation,
    reverse_engineer,
    simulate_injection,
)
from repro.ecc.syndrome import analyze_error_pattern


class TestObservationIngestion:
    def test_data_triple_constraint(self):
        code = random_sec_code(16, np.random.default_rng(0))
        engineer = EccReverseEngineer(code.k, code.p)
        injector = simulate_injection(code)
        # Find a data pair that miscorrects onto data.
        added = 0
        for i in range(code.k):
            for j in range(i + 1, code.k):
                pattern = frozenset({i, j})
                observed = injector(pattern)
                if engineer.add_observation(Observation(pattern, observed)):
                    added += 1
        assert added > 0

    def test_non_informative_observations_skipped(self):
        engineer = EccReverseEngineer(8, 4)
        # Single-position injection: never informative.
        assert not engineer.add_observation(Observation(frozenset({1}), frozenset()))
        # Detected-uncorrectable double (both bits visible, nothing extra).
        assert not engineer.add_observation(
            Observation(frozenset({1, 2}), frozenset({1, 2}))
        )

    def test_probe_bounds_checked(self):
        engineer = EccReverseEngineer(8, 4)
        with pytest.raises(IndexError):
            engineer.add_parity_probe(8, 0, frozenset())
        with pytest.raises(IndexError):
            engineer.add_parity_probe(0, 4, frozenset())

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            EccReverseEngineer(0, 4)

    def test_solve_returns_none_before_full_rank(self):
        engineer = EccReverseEngineer(8, 4)
        assert engineer.solve() is None


class TestEndToEndRecovery:
    @pytest.mark.parametrize("seed", range(4))
    def test_recovers_random_71_64_codes_exactly(self, seed):
        """The headline property: black-box injections alone pin down the
        full parity-check matrix of the paper's code geometry."""
        code = random_sec_code(64, np.random.default_rng(seed))
        recovered = reverse_engineer(
            simulate_injection(code), code.k, code.p, np.random.default_rng(seed + 50)
        )
        assert recovered == code

    def test_recovers_paper_example_code(self):
        code = paper_example_code()
        recovered = reverse_engineer(
            simulate_injection(code), code.k, code.p, np.random.default_rng(1)
        )
        assert recovered == code

    def test_recovered_code_predicts_miscorrections(self):
        """The recovered code is functionally equivalent: it predicts the
        same post-correction outcome for every double error."""
        code = random_sec_code(16, np.random.default_rng(9))
        recovered = reverse_engineer(
            simulate_injection(code), code.k, code.p, np.random.default_rng(10)
        )
        assert recovered is not None
        from itertools import combinations

        for pattern in combinations(range(code.n), 2):
            original = analyze_error_pattern(code, frozenset(pattern)).data_errors
            predicted = analyze_error_pattern(recovered, frozenset(pattern)).data_errors
            assert original == predicted

    def test_budget_exhaustion_returns_none_or_partial(self):
        code = random_sec_code(64, np.random.default_rng(3))
        result = reverse_engineer(
            simulate_injection(code), code.k, code.p, np.random.default_rng(4), max_injections=5
        )
        assert result is None  # 5 injections cannot pin 64 columns


def _per_plane_solve(engineer):
    """Reference: ``rank`` then one :func:`gf2.solve` per parity plane."""
    matrix = np.stack(engineer._rows)
    if gf2.rank(matrix) < engineer.k:
        return None
    parity = np.zeros((engineer.p, engineer.k), dtype=np.uint8)
    for plane in range(engineer.p):
        rhs = np.array([(mask >> plane) & 1 for mask in engineer._rhs], dtype=np.uint8)
        solution = gf2.solve(matrix, rhs)
        if solution is None:
            return None
        parity[plane] = solution
    try:
        return SystematicCode(parity, correction_capability=1, name="reverse-engineered")
    except ValueError:
        return None


def _columns(code):
    """Each data column of ``code`` as a p-bit mask (bit t = plane t)."""
    return (code.parity_submatrix.T.astype(np.int64) << np.arange(code.p)).sum(axis=1)


def _noisy_random_system(seed):
    """A random code's random constraints; the third-to-last one is noisy."""
    rng = np.random.default_rng(seed)
    k = int(rng.choice([8, 16, 32, 64]))
    code = random_sec_code(k, rng)
    columns = _columns(code)
    constraints = []
    steps = k + 12
    for step in range(steps):
        terms = [int(t) for t in np.flatnonzero(rng.random(k) < 0.5)]
        rhs = 0
        for term in terms:
            rhs ^= int(columns[term])
        if step == steps - 3:
            rhs ^= 1  # one noisy constraint: the system turns inconsistent
        constraints.append((terms, rhs))
    return code, constraints


def _contradicted_system():
    """A code pinned one column at a time, then a constraint contradicting
    its top plane.  With that plane cleared the columns would still form
    a valid SEC code, so only the consistency check can refuse it."""
    columns = (0b10111, 0b11011, 0b11101, 0b11110)
    code = SystematicCode(np.array([[(c >> t) & 1 for c in columns] for t in range(5)]))
    constraints = [([term], column) for term, column in enumerate(columns)]
    constraints.append(([0, 1], columns[0] ^ columns[1] ^ 0b10000))
    return code, constraints


class TestSolvePath:
    @pytest.mark.parametrize(
        "system",
        [*(partial(_noisy_random_system, seed) for seed in range(6)), _contradicted_system],
        ids=[*map(str, range(6)), "contradicted"],
    )
    def test_matches_per_plane_reference_loop(self, system):
        """One multi-plane elimination equals the per-plane loop at every
        stage: underdetermined, pinned, and made inconsistent by a noisy
        or contradictory constraint."""
        code, constraints = system()
        engineer = EccReverseEngineer(code.k, code.p)
        outcomes = []
        for step, (terms, rhs) in enumerate(constraints):
            engineer._add_constraint(terms, rhs)
            solved = engineer.solve()
            assert solved == _per_plane_solve(engineer), step
            outcomes.append(None if solved is None else solved == code)
        assert set(outcomes) == {None, True}
        assert outcomes[-1] is None
