"""Bench: fast kernel layers against their references.

Times ``repro.ecc.gf2`` elimination and solving under both kernel tiers
(forced by moving the facade's size thresholds), the vectorized
random-pattern schedules (``random_rounds``) against one numpy Generator
per pattern block, and a shared-cache worker-pool sweep against the
serial engine — recorded to ``results/kernel_scaling.txt`` through the
``kernel_scaling`` fixture.

Every timed pair also asserts bit-identity, the eliminate/solve pairs
assert the >=2x kernel speedup the packed tier exists for, and the
pattern pair the >=3x the vectorized stream exists for.
"""

import math
import time

import numpy as np
import pytest

from repro.analysis.memo import clear_analysis_caches
from repro.ecc import gf2
from repro.experiments.config import SweepConfig
from repro.experiments.runner import clear_engine_caches, run_sweep
from repro.memory.patterns import random_rounds
from repro.utils.rng import derive_rng, derive_seed

#: Elimination shapes are tall: the unpacked reference pays a Python-level
#: row scan per column, the packed kernel a broadcast XOR — tall systems
#: are where dense GF(2) elimination actually hurts.
ELIMINATE_SHAPE = (2048, 1024)
SOLVE_SHAPE = (4096, 512)

#: A fleet shard's random-pattern words: 10 words x 64 rounds of k=32,
#: 320 pattern blocks, with the fleet's 64-bit word seeds.
PATTERN_SEEDS = tuple(derive_seed(2021, "fleet-draws", chip, 0) for chip in range(10))
PATTERN_ROUNDS = 64
PATTERN_K = 32
#: Batches per timed sample: one batch takes milliseconds.
PATTERN_REPEATS = 20

SWEEP_GRID = SweepConfig(
    num_codes=3,
    words_per_code=6,
    num_rounds=96,
    error_counts=(2, 4),
    probabilities=(0.5, 1.0),
)


def _tier_timed(tier: str, fn, reps: int = 3):
    """Best-of-``reps`` CPU seconds of ``fn()`` under a forced tier.

    ``gf2`` picks a tier by operand size alone, so the tier is forced by
    moving both size thresholds to 0 (packed) or past any operand
    (unpacked).
    """
    threshold = 0 if tier == "packed" else math.inf
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(gf2, "_AUTO_PACKED_SIZE", threshold)
        monkeypatch.setattr(gf2, "_AUTO_PACKED_WORK", threshold)
        best = float("inf")
        result = None
        for _ in range(reps):
            started = time.process_time()
            result = fn()
            best = min(best, time.process_time() - started)
        return best, result


def test_eliminate_packed_speedup(kernel_scaling):
    rows, cols = ELIMINATE_SHAPE
    matrix = np.random.default_rng(2021).integers(0, 2, (rows, cols), dtype=np.uint8)
    unpacked_s, (ref, ref_pivots) = _tier_timed(
        "unpacked", lambda: gf2.row_reduce(matrix), reps=5
    )
    packed_s, (out, out_pivots) = _tier_timed(
        "packed", lambda: gf2.row_reduce(matrix), reps=5
    )
    assert np.array_equal(ref, out) and ref_pivots == out_pivots
    kernel_scaling["eliminate-unpacked-cpu"] = unpacked_s
    kernel_scaling["eliminate-packed-cpu"] = packed_s
    speedup = unpacked_s / packed_s
    assert speedup >= 2.0, f"packed eliminate {speedup:.2f}x < 2x over unpacked"


def test_solve_packed_speedup(kernel_scaling):
    rows, cols = SOLVE_SHAPE
    rng = np.random.default_rng(2022)
    matrix = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    witness = rng.integers(0, 2, cols, dtype=np.uint8)
    rhs = (matrix.astype(np.int64) @ witness.astype(np.int64) % 2).astype(np.uint8)
    unpacked_s, ref = _tier_timed("unpacked", lambda: gf2.solve(matrix, rhs), reps=5)
    packed_s, out = _tier_timed("packed", lambda: gf2.solve(matrix, rhs), reps=5)
    assert ref is not None and np.array_equal(ref, out)
    kernel_scaling["solve-unpacked-cpu"] = unpacked_s
    kernel_scaling["solve-packed-cpu"] = packed_s
    speedup = unpacked_s / packed_s
    assert speedup >= 2.0, f"packed solve {speedup:.2f}x < 2x over unpacked"


def _per_block_rounds(seeds, num_rounds: int, k: int) -> np.ndarray:
    """The reference: one Generator per (seed, block), its inverse on odd rounds."""
    out = np.empty((len(seeds), num_rounds, k), dtype=np.uint8)
    for row, seed in enumerate(seeds):
        for block in range((num_rounds + 1) // 2):
            rng = derive_rng(seed, "random-pattern", block)
            base = rng.integers(0, 2, size=k, dtype=np.uint8)
            out[row, 2 * block] = base
            if 2 * block + 1 < num_rounds:
                out[row, 2 * block + 1] = base ^ 1
    return out


def _cpu_timed(fn, reps: int = 5):
    """Best-of-``reps`` CPU seconds of ``PATTERN_REPEATS`` calls of ``fn``."""
    best = float("inf")
    result = None
    for _ in range(reps):
        started = time.process_time()
        for _ in range(PATTERN_REPEATS):
            result = fn()
        best = min(best, time.process_time() - started)
    return best, result


def test_pattern_stream_speedup(kernel_scaling):
    args = (PATTERN_SEEDS, PATTERN_ROUNDS, PATTERN_K)
    per_block_s, ref = _cpu_timed(lambda: _per_block_rounds(*args))
    vectorized_s, out = _cpu_timed(lambda: random_rounds(*args))
    assert np.array_equal(ref, out)
    kernel_scaling["pattern-per-block-cpu"] = per_block_s
    kernel_scaling["pattern-vectorized-cpu"] = vectorized_s
    speedup = per_block_s / vectorized_s
    assert speedup >= 3.0, f"vectorized pattern stream {speedup:.2f}x < 3x over per-block"


def test_sweep_shared_cache_pool(kernel_scaling):
    """Serial sweep vs shared-cache worker pool: identical cells, wall-clocks.

    On a single-CPU host the pool entry only tracks its overhead; the
    bit-identity assertion is the part that must always hold.
    """
    clear_engine_caches()
    clear_analysis_caches()
    started = time.perf_counter()
    serial = run_sweep(SWEEP_GRID)
    kernel_scaling["sweep-serial"] = time.perf_counter() - started

    clear_engine_caches()
    clear_analysis_caches()
    started = time.perf_counter()
    pooled = run_sweep(SWEEP_GRID, jobs=0, shared_cache=True)
    kernel_scaling["sweep-shared-pool"] = time.perf_counter() - started
    assert pooled.cells == serial.cells
