"""Bench: the adaptive (BEEP/hybrid) profiler hot path vs. the PR 1 engine.

The non-adaptive sweep path was made cheap by the engine-layer caches, so
BEEP and HARP-A+BEEP cells dominate sweep wall-clock.  This bench pins
the PR 1 revision of that path — full GF(2) re-elimination per crafted
round, per-instance pattern caches, per-word O(n²) aliasing-pair
expansion — and measures the layered solver stack (incremental
:class:`~repro.analysis.atrisk.ChargeSystem` + code-level memo caches)
against it on a BEEP-heavy grid, recording wall-clocks to
``results/adaptive_scaling.txt`` through the ``adaptive_scaling``
fixture.  The sharded Fig 10 case study is timed serial vs. parallel the
same way.

Both comparisons also assert bit-identity: the cache layers and the
incremental solver must never change a trace.
"""

import time

import numpy as np
import pytest
from conftest import change_points, cpu_seconds

from repro.analysis.atrisk import _solve_charge_ints
from repro.analysis.memo import clear_analysis_caches
from repro.experiments import fig10
from repro.experiments.config import CaseStudyConfig, SweepConfig
from repro.experiments.runner import (
    SweepCell,
    SweepResult,
    clear_engine_caches,
    metrics_for_run,
    run_sweep,
    shard_grid,
)
from repro.experiments.runner import _block_artifacts, _words_for  # engine caches
from repro.memory.error_model import WordErrorProfile, check_profile_positions
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.base import Profiler, ReadMode
from repro.profiling.runner import WordRunResult, post_correction_data_errors

#: The BEEP-heavy grid the acceptance speedup is measured on: the paper's
#: full parameter grid restricted to the two adaptive profilers.
ADAPTIVE_GRID = SweepConfig(profilers=("BEEP", "HARP-A+BEEP"))

#: Fig 10 scale used for the serial-vs-parallel shard-engine timing.
FIG10_GRID = CaseStudyConfig(num_codes=3, words_per_stratum=4, num_rounds=128, max_at_risk=5)


class _Pr1BeepProfiler(Profiler):
    """The PR 1 BeepProfiler, pinned verbatim.

    Re-eliminates the full (anchors | pair) system per distinct
    hypothesis, unpacks solutions with a per-bit list comprehension,
    rebuilds the O(n²) pair table per word, and caches patterns only per
    instance — the waste the memo layer and incremental solver eliminate.
    """

    name = "BEEP"
    adaptive = True

    def __init__(self, code, seed, pattern="random"):
        super().__init__(code, seed, pattern)
        self._columns = [code.column_int(i) for i in range(code.n)]
        self._column_index = {value: position for position, value in enumerate(self._columns)}
        self._hypotheses = []
        self._targets_expanded = set()
        self._next_hypothesis = 0
        self._pattern_cache = {}

    def _expand_target(self, target):
        if target in self._targets_expanded:
            return
        self._targets_expanded.add(target)
        target_column = self._columns[target]
        for a in range(self.code.n):
            partner = self._column_index.get(target_column ^ self._columns[a])
            if partner is not None and partner > a:
                self._hypotheses.append((target, (a, partner)))

    def observe(self, round_index, mismatches):
        for position in mismatches:
            if position not in self._observed:
                self._observed.add(position)
                self._expand_target(position)

    @property
    def observation_count(self):
        """The pinned loop's change fingerprint: it grows with the observed set."""
        return len(self._observed)

    def _solve(self, charged):
        solution = _solve_charge_ints(self.code, charged, frozenset())
        if solution is None:
            return None
        return np.array([(solution >> i) & 1 for i in range(self.code.k)], dtype=np.uint8)

    def pattern_for_round(self, round_index):
        if not self._hypotheses:
            return super().pattern_for_round(round_index)
        anchors = frozenset(self._observed)
        for _ in range(len(self._hypotheses)):
            target, pair = self._hypotheses[self._next_hypothesis % len(self._hypotheses)]
            self._next_hypothesis += 1
            key = (anchors, pair)
            if key in self._pattern_cache:
                assignment = self._pattern_cache[key]
            else:
                assignment = self._solve(anchors | set(pair))
                self._pattern_cache[key] = assignment
            if assignment is not None:
                return assignment.copy()
        return super().pattern_for_round(round_index)


class _Pr1HybridProfiler(PROFILER_REGISTRY["HARP-A+BEEP"]):
    """The PR 1 hybrid: its crafted phase runs the pinned BEEP above.

    The pinned BEEP crafts arrays through ``pattern_for_round``, so the
    hybrid delegates that method to it after the switch, as PR 1 did.
    It keeps its own phase test, observation routing and change
    fingerprint: of the live hybrid it uses only the attributes.
    """

    adaptive = True

    def __init__(self, code, seed, pattern="random", switch_round=16):
        super().__init__(code, seed, pattern, switch_round)
        self._beep = _Pr1BeepProfiler(code, seed, pattern)
        self._seeded_beep = False

    def _in_active_phase(self, round_index):
        return round_index < self.switch_round

    def read_mode_for(self, round_index):
        return ReadMode.BYPASS if self._in_active_phase(round_index) else ReadMode.NORMAL

    def pattern_for_round(self, round_index):
        if self._in_active_phase(round_index):
            return self._harp.pattern_for_round(round_index)
        if not self._seeded_beep:
            self._seeded_beep = True
            self._beep.observe(round_index, self._harp.identified)
        return self._beep.pattern_for_round(round_index)

    def observe(self, round_index, mismatches):
        if self._in_active_phase(round_index):
            self._harp.observe(round_index, mismatches)
        else:
            self._beep.observe(round_index, mismatches)

    @property
    def observation_count(self):
        # Both sub-pools are add-only, so the sum grows whenever either does.
        return len(self._harp._observed) + self._beep.observation_count


_PR1_PROFILERS = dict(
    PROFILER_REGISTRY, **{"BEEP": _Pr1BeepProfiler, "HARP-A+BEEP": _Pr1HybridProfiler}
)


def _pr1_simulate_word(profiler, profile, num_rounds, word_seed, artifacts) -> WordRunResult:
    """The PR 1 adaptive simulation loop, pinned verbatim.

    Per-run mismatch and charge-mask caches only (no cross-run sharing,
    no precomputed-schedule reuse on bootstrap rounds) — the per-run
    waste the current runner eliminates for adaptive profilers.
    """
    assert profiler.adaptive
    code = profiler.code
    check_profile_positions(profile, code.n)
    draws = artifacts.draws
    probabilities = np.asarray(profile.probabilities, dtype=float)
    positions = np.asarray(profile.positions, dtype=np.intp)

    identified_trace, observed_trace = [], []
    mismatch_cache = {}
    charged_cache = {}
    previous_observed_count = -1
    previous_predicted = None
    current_identified = frozenset()
    current_observed = frozenset()

    for round_index in range(num_rounds):
        written = profiler.pattern_for_round(round_index)
        if profile.count:
            pattern_key = written.tobytes()
            charged = charged_cache.get(pattern_key)
            if charged is None:
                charged = code.encode(written)[..., positions].astype(bool)
                charged_cache[pattern_key] = charged
            failed_mask = charged & (draws[round_index] < probabilities)
            failed = (
                tuple(int(p) for p in positions[failed_mask]) if failed_mask.any() else ()
            )
        else:
            failed = ()

        mode = profiler.read_mode_for(round_index)
        key = (mode, failed)
        mismatches = mismatch_cache.get(key)
        if mismatches is None:
            if mode == ReadMode.BYPASS:
                mismatches = frozenset(p for p in failed if p < code.k)
            else:
                mismatches = post_correction_data_errors(code, failed)
            mismatch_cache[key] = mismatches
        profiler.observe(round_index, mismatches)
        observed_count = profiler.observation_count
        predicted = profiler.identified_predicted
        if observed_count != previous_observed_count or predicted != previous_predicted:
            current_identified = profiler.identified
            current_observed = profiler.identified_observed
            previous_observed_count = observed_count
            previous_predicted = predicted
        identified_trace.append(current_identified)
        observed_trace.append(current_observed)

    return WordRunResult(change_points(identified_trace, observed_trace), num_rounds)


def _pr1_run_sweep(config) -> SweepResult:
    """The PR 1 engine's serial sweep over the grid, with PR 1 profilers.

    Identical to the current engine in sampling, artifacts, and metrics —
    only the adaptive hot path differs (profiler internals and the
    per-word inner loop) — so the timing isolates exactly what this PR
    attacks.
    """
    cells = {}
    for shard in shard_grid(config):
        words = _words_for(config, shard.error_count)
        block = _block_artifacts(config, shard.error_count)
        profiler_cls = _PR1_PROFILERS[shard.profiler]
        metrics = []
        for ctx, artifacts in zip(words, block):
            profile = WordErrorProfile(
                ctx.positions, tuple(shard.probability for _ in ctx.positions)
            )
            profiler = profiler_cls(ctx.code, seed=ctx.word_seed, pattern=config.pattern)
            run = _pr1_simulate_word(
                profiler,
                profile,
                config.num_rounds,
                ctx.word_seed,
                artifacts=artifacts,
            )
            metrics.append(metrics_for_run(run, ctx.ground_truth, config.num_rounds))
        cells[shard.key] = SweepCell(
            error_count=shard.error_count,
            probability=shard.probability,
            profiler=shard.profiler,
            words=metrics,
        )
    return SweepResult(config=config, cells=cells)


def _cold_caches() -> None:
    clear_engine_caches()
    clear_analysis_caches()


def _timed(label: str, record: dict, fn, *args, **kwargs):
    """Run ``fn`` cold, recording wall-clock and CPU seconds.

    CPU time rides along because shared hosts make wall-clock noisy; the
    speedup ratio is asserted on the CPU measurement.  It counts the
    pool workers of a parallel run (:func:`conftest.cpu_seconds`).
    """
    _cold_caches()
    wall_started = time.perf_counter()
    cpu_started = cpu_seconds()
    result = fn(*args, **kwargs)
    record[f"{label}-cpu"] = cpu_seconds() - cpu_started
    record[label] = time.perf_counter() - wall_started
    return result


def test_adaptive_sweep_pr1_serial(benchmark, adaptive_scaling):
    result = benchmark.pedantic(
        lambda: _timed("pr1-adaptive-serial", adaptive_scaling, _pr1_run_sweep, ADAPTIVE_GRID),
        rounds=1,
        iterations=1,
    )
    assert len(result.cells) == 32


def test_adaptive_sweep_engine_serial(benchmark, adaptive_scaling):
    result = benchmark.pedantic(
        lambda: _timed("adaptive-serial", adaptive_scaling, run_sweep, ADAPTIVE_GRID),
        rounds=1,
        iterations=1,
    )
    assert len(result.cells) == 32


def test_adaptive_sweep_engine_parallel(benchmark, adaptive_scaling):
    """Worker-pool run; on a single-CPU host this only tracks pool overhead."""
    result = benchmark.pedantic(
        lambda: _timed("adaptive-parallel", adaptive_scaling, run_sweep, ADAPTIVE_GRID, jobs=0),
        rounds=1,
        iterations=1,
    )
    assert len(result.cells) == 32


def test_fig10_shard_engine_serial(benchmark, adaptive_scaling):
    result = benchmark.pedantic(
        lambda: _timed("fig10-serial", adaptive_scaling, fig10.run, FIG10_GRID),
        rounds=1,
        iterations=1,
    )
    assert result.rounds_to_zero[(1.0, "HARP-U")] is not None


def test_fig10_shard_engine_parallel(benchmark, adaptive_scaling):
    serial = _timed("fig10-serial-check", adaptive_scaling, fig10.run, FIG10_GRID)
    adaptive_scaling.pop("fig10-serial-check", None)
    adaptive_scaling.pop("fig10-serial-check-cpu", None)
    result = benchmark.pedantic(
        lambda: _timed("fig10-parallel", adaptive_scaling, fig10.run, FIG10_GRID, jobs=0),
        rounds=1,
        iterations=1,
    )
    assert result.before == serial.before
    assert result.after == serial.after
    assert result.rounds_to_zero == serial.rounds_to_zero


def test_adaptive_matches_pr1(adaptive_scaling):
    """Bit-identity spot check on a reduced BEEP-heavy grid.

    The caches and the incremental solver must never change a trace; the
    full-grid identity is implied by this plus the layer-by-layer tests
    in the unit suite.  (The fixture reference keeps this test ordered
    with the timing benches under ``-p no:randomly`` style runs; it does
    not require their entries.)
    """
    small = SweepConfig(
        num_codes=2, words_per_code=3, num_rounds=48,
        error_counts=(3, 5), probabilities=(0.5, 1.0),
        profilers=("BEEP", "HARP-A+BEEP"),
    )
    _cold_caches()
    pr1 = _pr1_run_sweep(small)
    engine = run_sweep(small)
    assert pr1.cells.keys() == engine.cells.keys()
    for key in pr1.cells:
        assert pr1.cells[key].words == engine.cells[key].words, key


def test_adaptive_meets_speedup(adaptive_scaling):
    """The layered solver stack must be >=2x faster than the PR 1 engine.

    Runs after the timing benches (module order); verifies on their
    recorded CPU times rather than re-running the grid.
    """
    if (
        "pr1-adaptive-serial-cpu" not in adaptive_scaling
        or "adaptive-serial-cpu" not in adaptive_scaling
    ):
        pytest.skip("timing benches did not run in this session")
    speedup = adaptive_scaling["pr1-adaptive-serial-cpu"] / adaptive_scaling["adaptive-serial-cpu"]
    assert speedup >= 2.0, f"adaptive speedup {speedup:.2f}x < 2x over the PR 1 engine"
