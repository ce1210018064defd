"""Bench: fast kernel layers against their references.

Times ``repro.ecc.gf2.matmul``'s popcount product against its int64
path (forced by moving the facade's work threshold), the vectorized
random-pattern schedules (``random_rounds``) against one numpy Generator
per pattern block, a crafted round's integer charge mask against the
encode path it replaced, the batched stream seeding of
``repro.utils.rng`` against one ``derive_rng``/``derive_seed`` call per
stream, and a shared-cache worker-pool sweep against the serial engine —
recorded to ``results/kernel_scaling.txt`` through the
``kernel_scaling`` fixture.

Every timed pair also asserts bit-identity, the product pair the >=2x
the popcount kernel exists for, the pattern pair the >=3x the
vectorized stream exists for, the charge-mask pair the >=3x the
integer path exists for, and both seeding pairs the >=2x the batched
path exists for.
"""

import math
import time

import numpy as np

from repro.analysis.memo import clear_analysis_caches
from repro.ecc import gf2
from repro.ecc.hamming import random_sec_code
from repro.experiments.config import BENCH, SweepConfig
from repro.experiments.runner import clear_engine_caches, run_sweep
from repro.memory.faults import FAULT_MODES, FIELD_DDR4
from repro.memory.patterns import random_rounds
from repro.profiling.runner import _charge_mask, _charge_selectors
from repro.utils.bits import int_to_bits
from repro.utils.rng import derive_rng, derive_seed, derive_seeds, seeded_generators

#: The bench sweep's per-code encode in ``cell_artifacts``: one code's
#: words (8 x 128 rounds of k=64) times the (71,64) parity submatrix.
PRODUCT_ROWS = BENCH.words_per_code * BENCH.num_rounds
#: Products per timed sample: one product takes tens of microseconds.
PRODUCT_REPEATS = 200

#: A fleet shard's random-pattern words: 10 words x 64 rounds of k=32,
#: 320 pattern blocks, with the fleet's 64-bit word seeds.
PATTERN_SEEDS = tuple(derive_seed(2021, "fleet-draws", chip, 0) for chip in range(10))
PATTERN_ROUNDS = 64
PATTERN_K = 32
#: Batches per timed sample: one batch takes milliseconds.
PATTERN_REPEATS = 20

#: Crafted datawords per batch, and batches per timed sample: one charge
#: mask takes microseconds.
CHARGE_MASKS = 2000
CHARGE_MASK_REPEATS = 10

#: The full fleet preset's chips, each with a rate-scale stream and one
#: count stream per fault mode: 20,000 streams of one draw each.
FLEET_CHIPS = 4000
#: Streams under each chip's ``(seed, "fleet-chip", chip)`` prefix.
CHIP_STREAMS = (("scale",),) + tuple(("count", mode) for mode in FAULT_MODES)
#: Block seeds of a full fleet's random patterns: 2,500 words x 32 blocks.
BLOCK_WORDS = tuple(derive_seed(2021, "fleet-draws", word, 0) for word in range(2500))
BLOCKS = 32

SWEEP_GRID = SweepConfig(
    num_codes=3,
    words_per_code=6,
    num_rounds=96,
    error_counts=(2, 4),
    probabilities=(0.5, 1.0),
)


def _cpu_timed(fn, repeats: int, reps: int = 5):
    """Best-of-``reps`` CPU seconds of ``repeats`` calls of ``fn``."""
    best = float("inf")
    result = None
    for _ in range(reps):
        started = time.process_time()
        for _ in range(repeats):
            result = fn()
        best = min(best, time.process_time() - started)
    return best, result


def test_matmul_popcount_speedup(kernel_scaling, monkeypatch):
    """``gf2.matmul`` picks its kernel by work alone, so each kernel is
    forced by moving the threshold past any operand (int64) or to 0
    (popcount)."""
    rng = np.random.default_rng(2021)
    code = random_sec_code(BENCH.k, rng)
    schedules = rng.integers(0, 2, (PRODUCT_ROWS, code.k), dtype=np.uint8)

    def product():
        return gf2.matmul(schedules, code.parity_submatrix.T)

    monkeypatch.setattr(gf2, "_AUTO_PACKED_WORK", math.inf)
    int64_s, ref = _cpu_timed(product, PRODUCT_REPEATS)
    monkeypatch.setattr(gf2, "_AUTO_PACKED_WORK", 0)
    popcount_s, out = _cpu_timed(product, PRODUCT_REPEATS)
    assert np.array_equal(ref, out)
    kernel_scaling["matmul-int64-cpu"] = int64_s
    kernel_scaling["matmul-popcount-cpu"] = popcount_s
    speedup = int64_s / popcount_s
    assert speedup >= 2.0, f"popcount product {speedup:.2f}x < 2x over int64"


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


def test_pattern_stream_speedup(kernel_scaling):
    args = (PATTERN_SEEDS, PATTERN_ROUNDS, PATTERN_K)
    per_block_s, ref = _cpu_timed(lambda: _per_block_rounds(*args), PATTERN_REPEATS)
    vectorized_s, out = _cpu_timed(lambda: random_rounds(*args), PATTERN_REPEATS)
    assert np.array_equal(ref, out)
    kernel_scaling["pattern-per-block-cpu"] = per_block_s
    kernel_scaling["pattern-vectorized-cpu"] = vectorized_s
    speedup = per_block_s / vectorized_s
    assert speedup >= 3.0, f"vectorized pattern stream {speedup:.2f}x < 3x over per-block"


def test_integer_charge_mask_speedup(kernel_scaling):
    """A crafted round's at-risk charge mask from its dataword bitmask.

    The reference is the path ``simulate_word`` took before: unpack the
    bitmask, encode it, gather the at-risk columns and pack them into an
    int.  The bench word's at-risk set includes parity positions, whose
    charge is a parity over the data bits rather than one data bit.
    """
    rng = np.random.default_rng(2021)
    code = random_sec_code(BENCH.k, rng)
    positions = sorted(rng.choice(code.k, 3, replace=False).tolist() + [code.k + 1, code.n - 1])
    columns = np.asarray(positions, dtype=np.intp)
    datawords = [int.from_bytes(rng.bytes(code.k // 8), "little") for _ in range(CHARGE_MASKS)]
    selectors = _charge_selectors(code, positions)

    def encode_path():
        return [
            int.from_bytes(
                np.packbits(
                    code.encode(int_to_bits(dataword, code.k))[columns].astype(bool),
                    bitorder="little",
                ).tobytes(),
                "little",
            )
            for dataword in datawords
        ]

    encode_s, ref = _cpu_timed(encode_path, CHARGE_MASK_REPEATS)
    integer_s, out = _cpu_timed(
        lambda: [_charge_mask(selectors, a) for a in datawords], CHARGE_MASK_REPEATS
    )
    assert ref == out
    kernel_scaling["charge-mask-encode-cpu"] = encode_s
    kernel_scaling["charge-mask-integer-cpu"] = integer_s
    speedup = encode_s / integer_s
    assert speedup >= 3.0, f"integer charge mask {speedup:.2f}x < 3x over the encode path"


def _first_draw(rng, suffix) -> float:
    """A chip stream's one draw: its normal deviate, or its mode's count."""
    if suffix == ("scale",):
        return float(rng.standard_normal())
    return float(rng.poisson(FIELD_DDR4.rate_of(suffix[1])))


def test_stream_seeding_speedup(kernel_scaling):
    """The two halves of ``repro.utils.rng``'s batched path.

    Streams: every fleet chip's scale and count streams seeded in one
    batch into one reused Generator, against one ``derive_rng`` per
    stream.  Block seeds: each word's random-pattern key prefix hashed
    once, against one ``derive_seed`` per block.
    """
    chips = range(FLEET_CHIPS)

    def per_stream():
        return [
            _first_draw(derive_rng(2021, "fleet-chip", chip, *suffix), suffix)
            for chip in chips
            for suffix in CHIP_STREAMS
        ]

    def batched():
        seeds = derive_seeds([(2021, "fleet-chip", chip) for chip in chips], CHIP_STREAMS)
        streams = zip(seeded_generators(seeds), CHIP_STREAMS * FLEET_CHIPS)
        return [_first_draw(rng, suffix) for rng, suffix in streams]

    per_stream_s, ref = _cpu_timed(per_stream, 1)
    batched_s, out = _cpu_timed(batched, 1)
    assert ref == out
    kernel_scaling["stream-seeding-per-stream-cpu"] = per_stream_s
    kernel_scaling["stream-seeding-batched-cpu"] = batched_s

    def per_block():
        return [
            derive_seed(seed, "random-pattern", block)
            for seed in BLOCK_WORDS
            for block in range(BLOCKS)
        ]

    def prefixed():
        blocks = [(block,) for block in range(BLOCKS)]
        return derive_seeds([(seed, "random-pattern") for seed in BLOCK_WORDS], blocks)

    per_block_s, ref = _cpu_timed(per_block, 1)
    prefixed_s, out = _cpu_timed(prefixed, 1)
    assert ref == out
    kernel_scaling["block-seeds-per-block-cpu"] = per_block_s
    kernel_scaling["block-seeds-prefix-cpu"] = prefixed_s
    for name, speedup in (
        ("batched stream seeding", per_stream_s / batched_s),
        ("prefix-hashed block seeds", per_block_s / prefixed_s),
    ):
        assert speedup >= 2.0, f"{name} {speedup:.2f}x < 2x over one call per stream"


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
