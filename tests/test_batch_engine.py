"""Cross-validation of the two independent simulation engines.

The per-word runner (integer-syndrome shortcuts) and the EINSim-style
batch engine (dense matrix decode) implement the same physics through
different code paths.  Their statistics must agree with each other and
with the exact enumeration — the strongest internal-consistency check in
the suite.
"""

import numpy as np
import pytest
from batch_engine import BatchInjectionEngine

from repro.analysis.probabilities import per_bit_post_error_probabilities
from repro.ecc.hamming import random_sec_code
from repro.memory.cells import CellOrientation
from repro.memory.error_model import WordErrorProfile, sample_word_profile


@pytest.fixture(scope="module")
def code():
    return random_sec_code(64, np.random.default_rng(161))


class TestBatchEngineBasics:
    def test_shapes(self, code):
        profiles = [sample_word_profile(code, 3, 0.5, np.random.default_rng(i)) for i in range(4)]
        engine = BatchInjectionEngine(code, profiles)
        observation = engine.run_round(np.ones(code.k, dtype=np.uint8), np.random.default_rng(0))
        assert observation.raw_failures.shape == (4, code.n)
        assert observation.post_data_errors.shape == (4, code.k)

    def test_no_at_risk_bits_no_errors(self, code):
        engine = BatchInjectionEngine(code, [WordErrorProfile((), ())] * 3)
        observation = engine.run_round(np.ones(code.k, dtype=np.uint8), np.random.default_rng(0))
        assert not observation.raw_failures.any()
        assert not observation.post_data_errors.any()

    def test_discharged_cells_never_fail(self, code):
        engine = BatchInjectionEngine(code, [WordErrorProfile((3,), (1.0,))])
        data = np.ones(code.k, dtype=np.uint8)
        data[3] = 0
        observation = engine.run_round(data, np.random.default_rng(0))
        assert not observation.raw_failures[:, 3].any()

    def test_single_failures_are_corrected(self, code):
        engine = BatchInjectionEngine(code, [WordErrorProfile((3,), (1.0,))])
        observation = engine.run_round(np.ones(code.k, dtype=np.uint8), np.random.default_rng(0))
        assert observation.raw_failures[0, 3]
        assert not observation.post_data_errors.any()

    def test_anti_cell_orientation(self, code):
        orientation = CellOrientation(np.zeros(code.n, dtype=np.uint8))
        engine = BatchInjectionEngine(code, [WordErrorProfile((3,), (1.0,))], orientation)
        charged_round = engine.run_round(np.zeros(code.k, dtype=np.uint8), np.random.default_rng(0))
        assert charged_round.raw_failures[0, 3]
        discharged_round = engine.run_round(np.ones(code.k, dtype=np.uint8), np.random.default_rng(0))
        assert not discharged_round.raw_failures.any()

    def test_data_shape_validated(self, code):
        engine = BatchInjectionEngine(code, [WordErrorProfile((), ())])
        with pytest.raises(ValueError):
            engine.run_round(np.ones(code.k + 1, dtype=np.uint8), np.random.default_rng(0))


class TestCrossValidation:
    def test_matches_exact_enumeration(self, code):
        """Batch-estimated post-correction error rates converge to the
        exact per-bit probabilities."""
        profile = sample_word_profile(code, 4, 0.5, np.random.default_rng(7))
        engine = BatchInjectionEngine(code, [profile] * 64)  # 64 iid copies
        data = np.ones(code.k, dtype=np.uint8)
        rates = engine.estimate_post_error_rates(data, num_rounds=120, rng=np.random.default_rng(1))
        pooled = rates.mean(axis=0)  # pool the iid copies
        exact = per_bit_post_error_probabilities(code, profile, data)
        for position in range(code.k):
            assert abs(pooled[position] - exact.get(position, 0.0)) < 0.05

    def test_raw_failure_rate_matches_bernoulli(self, code):
        """Marginal pre-correction failure rates equal p for charged bits."""
        profile = WordErrorProfile((5, 9), (0.25, 0.75))
        engine = BatchInjectionEngine(code, [profile] * 256)
        data = np.ones(code.k, dtype=np.uint8)
        total = np.zeros(code.n)
        rounds = 40
        rng = np.random.default_rng(3)
        for _ in range(rounds):
            total += engine.run_round(data, rng).raw_failures.mean(axis=0)
        assert abs(total[5] / rounds - 0.25) < 0.04
        assert abs(total[9] / rounds - 0.75) < 0.04
