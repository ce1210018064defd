"""Fig 7's bootstrapping round and Fig 9's required capability per word.

Both come out of :func:`~repro.experiments.runner.metrics_for_words`.
These tests feed it hand-built identification traces against one
word's ground truth, so each answer is known, and check the batched
reduction against the single-word :func:`metrics_for_run` on each.
"""

import numpy as np
import pytest

from repro.analysis.atrisk import compute_ground_truth, max_simultaneous_post_errors
from repro.ecc.hamming import random_sec_code
from repro.experiments.runner import metrics_for_run, metrics_for_words
from repro.profiling.runner import WordRunResult


@pytest.fixture(scope="module")
def truth():
    code = random_sec_code(64, np.random.default_rng(71))
    return compute_ground_truth(code, (3, 9, 27, 45))


def _run(trace) -> WordRunResult:
    """A word whose profiler had identified ``trace[r]`` after round r+1."""
    changes = []
    previous = frozenset()
    for round_index, identified in enumerate(map(frozenset, trace)):
        if identified != previous:
            changes.append((round_index, identified, identified))
            previous = identified
    return WordRunResult(changes=changes, failures_per_round=[()] * len(trace))


def _metrics(truth, *traces):
    """Each trace's metrics, checked against the single-word reduction."""
    rounds = len(traces[0])
    runs = [_run(trace) for trace in traces]
    batched = metrics_for_words(runs, [truth] * len(runs), rounds)
    assert batched == [metrics_for_run(run, truth, rounds) for run in runs]
    return batched


class TestBootstrap:
    def test_first_identification(self, truth):
        (metrics,) = _metrics(truth, [(), (), (3, 9), (3, 9, 27)])
        assert metrics.direct_identified == (0, 0, 2, 3)
        assert metrics.first_direct_round == 3

    def test_never_identified_is_censored(self, truth):
        (metrics,) = _metrics(truth, [()] * 3)
        assert metrics.first_direct_round == 3
        (metrics,) = _metrics(truth, [()] * 128)
        assert metrics.first_direct_round == 128

    def test_immediate_identification(self, truth):
        (metrics,) = _metrics(truth, [(45,), (45,)])
        assert metrics.first_direct_round == 1

    def test_censored_rounds_batch(self, truth):
        found_late, never, found_first = _metrics(
            truth, [(), (3,)], [(), ()], [(3, 9), (3, 9)]
        )
        assert [found_late.first_direct_round, never.first_direct_round] == [2, 2]
        assert found_first.first_direct_round == 1

    def test_only_direct_bits_end_bootstrapping(self, truth):
        """Identifying an indirect-risk bit is not a direct identification."""
        indirect = min(truth.indirect_at_risk)
        (metrics,) = _metrics(truth, [(indirect,), (indirect,)])
        assert metrics.direct_identified == (0, 0)
        assert metrics.first_direct_round == 2
        assert metrics.indirect_missed == (metrics.indirect_total - 1,) * 2


class TestRequiredCapability:
    def test_zero_when_all_identified(self, truth):
        (metrics,) = _metrics(truth, [truth.post_correction_at_risk])
        assert metrics.capability == (0,)
        assert metrics.post_identified == (metrics.post_total,)

    def test_full_risk_when_nothing_identified(self, truth):
        (metrics,) = _metrics(truth, [()])
        unrepaired = max_simultaneous_post_errors(truth, truth.post_correction_at_risk)
        assert metrics.capability == (unrepaired,)
        assert unrepaired >= 4

    def test_direct_coverage_bounds_capability_at_one(self, truth):
        """The HARP guarantee, as the Fig 9 metric reports it."""
        (metrics,) = _metrics(truth, [truth.direct_at_risk])
        assert metrics.capability[0] <= 1

    def test_trajectory(self, truth):
        (metrics,) = _metrics(
            truth, [(), truth.direct_at_risk, truth.post_correction_at_risk]
        )
        assert metrics.capability[0] >= metrics.capability[1] >= metrics.capability[2]
        assert metrics.capability[2] == 0
        direct_post = len(truth.direct_at_risk & truth.post_correction_at_risk)
        assert metrics.post_identified == (0, direct_post, metrics.post_total)
