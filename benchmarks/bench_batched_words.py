"""Bench: cell-batched simulation kernel vs the per-word scalar path.

Times the non-adaptive Fig 6 grid (default ``SweepConfig`` scale, the
three profilers the batched kernel dispatches) through
:func:`simulate_words_batched` against the per-word
:func:`simulate_word` reference, asserts bit identity of every trace and
that an untimed pass of each kernel fed every profiler what the word's
failure patterns imply, and pins the speedup floor recorded in
``benchmarks/results/BENCH_batched.json``.

Modes:

- full (default): measures the complete 48-cell grid and **rewrites**
  ``BENCH_batched.json`` with the observed numbers (keeping the pinned
  floor), so the repo's perf trajectory stays machine-readable.
- smoke (``REPRO_BENCH_SMOKE=1``): measures a reduced 12-cell slice of
  the same grid and only asserts the committed floor — the CI
  perf-regression gate.
"""

import json
import os
import pathlib
import time

from conftest import host
from kernel_modes import check_feed, record_feed

from repro.analysis.memo import clear_analysis_caches
from repro.experiments import runner as engine
from repro.experiments.config import SweepConfig
from repro.memory.error_model import WordErrorProfile
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.runner import simulate_word, simulate_words_batched

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_batched.json"
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

NON_ADAPTIVE = ("Naive", "HARP-U", "HARP-A")
FULL_GRID = SweepConfig(profilers=NON_ADAPTIVE)
SMOKE_GRID = SweepConfig(
    profilers=NON_ADAPTIVE, error_counts=(2, 5), probabilities=(0.5, 1.0)
)
GRID = SMOKE_GRID if SMOKE else FULL_GRID
#: Best-of repetitions; CPU time is compared, so scheduler noise mostly
#: cancels, but the floor assertion still wants the minimum.
REPS = 5


def _blocks(config: SweepConfig):
    """Each error count's words and the engine's inputs for them.

    Built once, outside the timed runs, so both grids time the kernels
    alone.
    """
    return [
        (engine._words_for(config, error_count), engine._block_artifacts(config, error_count))
        for error_count in config.error_counts
    ]


def _cells(config: SweepConfig, blocks):
    for words, block in blocks:
        for probability in config.probabilities:
            for name in config.profilers:
                yield PROFILER_REGISTRY[name], words, block, probability


def _grid_inputs(config: SweepConfig, blocks):
    """Every cell's fresh profilers, its profiles, seeds and artifacts.

    Built before the clock starts, the same way for both grids, so the
    timed region holds kernel work alone.  A run consumes its profilers,
    so each timed run gets new ones.
    """
    cells = []
    for cls, words, block, probability in _cells(config, blocks):
        profiles = [
            WordErrorProfile(ctx.positions, tuple(probability for _ in ctx.positions))
            for ctx in words
        ]
        profilers = [cls(ctx.code, seed=ctx.word_seed) for ctx in words]
        cells.append((profilers, profiles, [ctx.word_seed for ctx in words], block))
    return cells


def _scalar_grid(config: SweepConfig, cells):
    return [
        simulate_word(profiler, profile, config.num_rounds, seed, artifacts=artifacts)
        for profilers, profiles, seeds, block in cells
        for profiler, profile, seed, artifacts in zip(profilers, profiles, seeds, block)
    ]


def _batched_grid(config: SweepConfig, cells):
    runs = []
    for profilers, profiles, seeds, block in cells:
        runs.extend(
            simulate_words_batched(
                profilers, profiles, config.num_rounds, seeds, artifacts=block
            )
        )
    return runs


def _best_of(config: SweepConfig, blocks, reps: int = REPS):
    """Best-of-``reps`` CPU seconds and runs of the scalar and batched grids.

    The two sides alternate rep by rep, and each rep flips which side
    goes first, so a noisy stretch on a shared host slows both sides
    instead of one.
    """
    grids = (_scalar_grid, _batched_grid)
    best: list = [None, None]
    runs: list = [None, None]
    for rep in range(reps):
        for side in (0, 1) if rep % 2 == 0 else (1, 0):
            clear_analysis_caches()
            grids[side](config, _grid_inputs(config, blocks))  # warm the decode memos, untimed
            cells = _grid_inputs(config, blocks)
            start = time.process_time()
            runs[side] = grids[side](config, cells)
            elapsed = time.process_time() - start
            best[side] = elapsed if best[side] is None else min(best[side], elapsed)
    return best, runs


def _assert_fed_as_artifacts_imply(config: SweepConfig, blocks) -> None:
    """One untimed pass of each kernel with logging profilers: every feed
    must be what the word's recomputed failure patterns imply, and the
    two kernels' patterns must agree word for word."""
    failures = []
    for grid in (_scalar_grid, _batched_grid):
        clear_analysis_caches()
        cells = _grid_inputs(config, blocks)
        feeds = [[record_feed(profiler) for profiler in cell[0]] for cell in cells]
        grid(config, cells)
        failures.append(
            [
                check_feed(profiler, feed, profile, seed, config.num_rounds, artifacts=artifacts)
                for (profilers, profiles, seeds, block), cell_feeds in zip(cells, feeds)
                for profiler, feed, profile, seed, artifacts in zip(
                    profilers, cell_feeds, profiles, seeds, block
                )
            ]
        )
    assert failures[0] == failures[1]


def _load_floor() -> float:
    if BASELINE_PATH.exists():
        return float(json.loads(BASELINE_PATH.read_text())["floor"])
    return 3.0


def test_batched_kernel_speedup_floor():
    engine.clear_engine_caches()
    blocks = _blocks(GRID)
    (scalar_seconds, batched_seconds), (scalar_runs, batched_runs) = _best_of(GRID, blocks)

    # Bit identity over the whole grid, word for word.
    assert len(scalar_runs) == len(batched_runs)
    for reference, candidate in zip(scalar_runs, batched_runs):
        assert reference.identified_per_round == candidate.identified_per_round
    _assert_fed_as_artifacts_imply(GRID, blocks)

    speedup = scalar_seconds / batched_seconds
    floor = _load_floor()
    summary = (
        f"batched kernel: scalar {scalar_seconds:.3f}s CPU, "
        f"batched {batched_seconds:.3f}s CPU, {speedup:.2f}x "
        f"({'smoke' if SMOKE else 'full'} grid, floor {floor:.1f}x)"
    )
    print(f"\n{summary}")

    assert speedup >= floor, summary

    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "bench": "bench_batched_words",
                    "floor": floor,
                    "speedup": round(speedup, 2),
                    "scalar_cpu_s": round(scalar_seconds, 3),
                    "batched_cpu_s": round(batched_seconds, 3),
                    "grid": {
                        "num_codes": GRID.num_codes,
                        "words_per_code": GRID.words_per_code,
                        "num_rounds": GRID.num_rounds,
                        "error_counts": list(GRID.error_counts),
                        "probabilities": list(GRID.probabilities),
                        "profilers": list(GRID.profilers),
                    },
                    "reps": REPS,
                    "timing": "best-of CPU (time.process_time)",
                    "host": host(),
                },
                indent=2,
            )
            + "\n"
        )
        print(f"[baseline saved to {BASELINE_PATH}]")
