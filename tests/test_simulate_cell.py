"""Differential tests of ``simulate_cell``, the one word-simulation entry point.

One call mixing every registry profiler over a randomized cell must
return, per profiler and word, exactly the traces of a fresh profiler run
alone through the scalar reference (``simulate_word`` without
precomputed artifacts), and feed each profiler what the same recomputed
failure patterns imply — under both simulation kernels.  The remaining
tests pin the call contract: supplied artifacts give the same runs as
freshly built ones, and a one-shot call — a Fig 10, ext-heterogeneous or
fleet shard — leaves the engine's caches empty.
"""

import pytest
from kernel_modes import check_feed, kernel_mode, record_feed, record_registry
from randcases import random_cell

from repro.analysis.memo import clear_analysis_caches
from repro.ecc.hamming import canonical_sec_code
from repro.experiments import ext_heterogeneous, fig10, fleet, runner
from repro.experiments.config import CaseStudyConfig, FleetConfig
from repro.memory.error_model import WordErrorProfile
from repro.memory.patterns import make_pattern
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.runner import WordArtifacts, simulate_cell, simulate_word
from repro.utils.rng import derive_rng

NAMES = tuple(PROFILER_REGISTRY)
ROUNDS = 24


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_analysis_caches()
    runner.clear_engine_caches()
    yield
    clear_analysis_caches()


@pytest.mark.parametrize("kernel", ["auto", "scalar"])
@pytest.mark.parametrize("seed", [0, 7, 2021])
def test_matches_fresh_scalar_runs(seed, kernel, monkeypatch):
    kernel_mode(monkeypatch, kernel)
    case = random_cell(seed, num_words=9)
    codes, profiles, seeds = case
    # Built before the registry starts recording, so ``built`` holds
    # exactly the profilers simulate_cell makes.
    references = {
        name: [
            PROFILER_REGISTRY[name](code, seed=word_seed)
            for code, word_seed in zip(codes, seeds)
        ]
        for name in NAMES
    }
    built = record_registry(monkeypatch)
    runs = simulate_cell(NAMES, codes, profiles, seeds, ROUNDS)
    assert list(runs) == list(NAMES)
    for name in NAMES:
        assert len(runs[name]) == len(built[name]) == len(codes)
        for profile, word_seed, run, reference_profiler, (profiler, feed) in zip(
            profiles, seeds, runs[name], references[name], built[name]
        ):
            reference_feed = record_feed(reference_profiler)
            reference = simulate_word(reference_profiler, profile, ROUNDS, word_seed)
            assert run.identified_per_round == reference.identified_per_round, (name, case)
            assert check_feed(profiler, feed, profile, word_seed, ROUNDS) == check_feed(
                reference_profiler, reference_feed, profile, word_seed, ROUNDS
            ), (name, case)


@pytest.mark.parametrize("pattern", ["random", "charged", "checkered"])
def test_patterns_match_fresh_scalar_runs(pattern):
    codes, profiles, seeds = random_cell(3, num_words=4)
    runs = simulate_cell(NAMES, codes, profiles, seeds, ROUNDS, pattern)
    for name in NAMES:
        for code, profile, word_seed, run in zip(codes, profiles, seeds, runs[name]):
            reference = simulate_word(
                PROFILER_REGISTRY[name](code, seed=word_seed, pattern=pattern),
                profile,
                ROUNDS,
                word_seed,
            )
            assert run.identified_per_round == reference.identified_per_round, name


def test_empty_cell():
    assert simulate_cell(NAMES, [], [], [], ROUNDS) == {name: [] for name in NAMES}


def test_rejects_misaligned_words():
    code = canonical_sec_code(16)
    with pytest.raises(ValueError, match="length mismatch"):
        simulate_cell(("Naive",), [code, code], [WordErrorProfile((1,), (0.5,))], [1, 2], 4)


@pytest.mark.parametrize("kernel", ["auto", "scalar"])
def test_supplied_artifacts_match_fresh_ones(kernel, monkeypatch):
    kernel_mode(monkeypatch, kernel)
    codes, profiles, seeds = random_cell(5, num_words=6)
    fresh = simulate_cell(NAMES, codes, profiles, seeds, ROUNDS)
    artifacts = []
    for code, profile, seed in zip(codes, profiles, seeds):
        schedule = make_pattern("random", seed).rounds(ROUNDS, code.k)
        draws = derive_rng(seed, "failure-draws").random((ROUNDS, profile.count))
        artifacts.append(WordArtifacts(code.encode(schedule), draws))
    assert simulate_cell(NAMES, codes, profiles, seeds, ROUNDS, artifacts=artifacts) == fresh
    with pytest.raises(ValueError, match="length mismatch"):
        simulate_cell(NAMES, codes, profiles, seeds, ROUNDS, artifacts=artifacts[1:])



def test_one_shot_drivers_leave_engine_caches_empty():
    config = CaseStudyConfig(
        num_codes=1, words_per_stratum=2, num_rounds=16, probabilities=(0.5,), max_at_risk=3
    )
    for shard in fig10.shard_case_study(config):
        fig10.run_case_shard(shard)
    ext_heterogeneous.run(num_codes=1, words_per_code=2, num_rounds=8)
    population = FleetConfig(
        num_chips=6, k=16, num_codes=2, num_rounds=8, rows=8, words_per_row=2, chips_per_shard=2
    )
    for shard in fleet.shard_fleet(population):
        fleet.run_fleet_shard(shard)
    for cache in (runner._words_for, runner._block_artifacts):
        assert cache.cache_info().currsize == 0, cache.__name__
