"""Bench: sub-cell sharding vs whole-cell shards on the fleet workload.

A fleet's wall-clock is gated by its largest shard: one bank-faulted
chip holds far more profiled words than the median, and in whole-cell
mode (``slice_words=0``) its entire cell — batched with its range
neighbours — pins a single worker.  This bench times every shard of the
pinned fleet grid under both sharding modes, asserts the merged results
are bit-identical, and requires sub-cell slicing to cut the *maximum*
per-shard time (the critical path of a perfectly parallel map).

Modes:

- full (default): measures the pinned grid and **rewrites**
  ``benchmarks/results/BENCH_fleet.json`` with the observed numbers
  (keeping the pinned reduction floor).
- smoke (``REPRO_BENCH_SMOKE=1``): measures a reduced population and
  only asserts the committed floor — the CI perf-regression gate.
"""

import json
import os
import pathlib
import time
from dataclasses import replace

from repro.analysis.memo import clear_analysis_caches
from repro.experiments import fleet
from repro.experiments.config import FleetConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_fleet.json"
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: The pinned benchmark grid: a population small enough to time in
#: seconds whose tail still holds sliced (heavy) chips.
FULL_GRID = FleetConfig(
    num_chips=96,
    k=32,
    num_codes=2,
    num_rounds=32,
    rows=16,
    words_per_row=4,
    chips_per_shard=4,
    slice_words=6,
)
SMOKE_GRID = replace(FULL_GRID, num_chips=48, num_rounds=16)
GRID = SMOKE_GRID if SMOKE else FULL_GRID
#: Per-shard times are milliseconds; best-of reps tame scheduler noise.
REPS = 3


def _shard_times(config: FleetConfig) -> tuple[dict, float]:
    """Merged payloads plus the max per-shard CPU time (best-of-REPS)."""
    shards = fleet.shard_fleet(config)
    worst = 0.0
    payloads = []
    for shard in shards:
        best = None
        for _ in range(REPS):
            start = time.process_time()
            payload = fleet.run_fleet_shard(shard)
            elapsed = time.process_time() - start
            best = elapsed if best is None else min(best, elapsed)
        payloads.append(payload)
        worst = max(worst, best)
    return fleet.merge_slice_payloads(payloads), worst


def _load_floor() -> float:
    if BASELINE_PATH.exists():
        return float(json.loads(BASELINE_PATH.read_text())["floor"])
    return 1.2


def test_sub_cell_sharding_cuts_max_shard_time():
    sliced_config = GRID
    whole_config = replace(GRID, slice_words=0)
    assert any(
        shard.num_slices > 1 for shard in fleet.shard_fleet(sliced_config)
    ), "pinned grid holds no heavy chip; the comparison would be vacuous"

    # Warm the caches fleet shards keep (codes, fault topologies, decode
    # memos) so both modes time pure simulation work.  Schedules and
    # failure draws are not cached: every shard run builds its own.
    fleet.clear_fleet_caches()
    clear_analysis_caches()
    _shard_times(sliced_config)
    _shard_times(whole_config)

    sliced_merged, sliced_worst = _shard_times(sliced_config)
    whole_merged, whole_worst = _shard_times(whole_config)
    assert sliced_merged == whole_merged  # bit-identity of the merge

    reduction = whole_worst / sliced_worst if sliced_worst else float("inf")
    floor = _load_floor()
    summary = (
        f"fleet sharding: max shard {whole_worst * 1e3:.1f}ms whole-cell vs "
        f"{sliced_worst * 1e3:.1f}ms sliced, {reduction:.2f}x reduction "
        f"({'smoke' if SMOKE else 'full'} grid, floor {floor:.1f}x)"
    )
    print(f"\n{summary}")
    assert reduction >= floor, summary

    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "bench": "bench_fleet",
                    "floor": floor,
                    "reduction": round(reduction, 2),
                    "max_shard_cpu_s_whole": round(whole_worst, 4),
                    "max_shard_cpu_s_sliced": round(sliced_worst, 4),
                    "grid": {
                        "num_chips": GRID.num_chips,
                        "k": GRID.k,
                        "num_codes": GRID.num_codes,
                        "num_rounds": GRID.num_rounds,
                        "rows": GRID.rows,
                        "words_per_row": GRID.words_per_row,
                        "chips_per_shard": GRID.chips_per_shard,
                        "slice_words": GRID.slice_words,
                    },
                    "timing": "max per-shard CPU (time.process_time), warm caches",
                },
                indent=2,
            )
            + "\n"
        )
        print(f"[baseline saved to {BASELINE_PATH}]")
