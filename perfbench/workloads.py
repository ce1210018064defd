"""The benchmark's workloads: configs, campaign calls, digests and checks.

Each workload is one public entry-point call (``run_sweep``, ``fig10.run`` or
``fleet.run``) on a config built from a preset and the workload seed.
The entry point sees only that config.  This module imports :mod:`repro`, so
only the per-run child process loads it; ``run.py`` stays stdlib-only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import replace

from repro.cli import CASE_SCALES, FLEET_SCALES, SCALES
from repro.experiments import fig10, fleet
from repro.experiments.runner import run_shard, run_sweep, shard_grid

#: Workers of every parallel variant: the socket fleet and the process pool.
WORKERS = 2

#: Preset of each grid at each benchmark scale.  ``bench`` is what the
#: benchmark times; ``unit`` is the self-test's seconds-long stand-in.
PRESETS = {
    "sweep": {"bench": SCALES["bench"], "unit": SCALES["unit"]},
    "casestudy": {"bench": CASE_SCALES["bench"], "unit": CASE_SCALES["unit"]},
    "fleet": {"bench": FLEET_SCALES["full"], "unit": FLEET_SCALES["unit"]},
}


def build_config(grid: str, scale: str, seed: int):
    return replace(PRESETS[grid][scale], seed=seed)


def shard_count(grid: str, config) -> int:
    if grid == "sweep":
        return len(shard_grid(config))
    if grid == "casestudy":
        return len(fig10.shard_case_study(config))
    return len(fleet.shard_fleet(config))


def run_campaign(grid: str, variant: str, config, scratch: str):
    """One campaign call; ``scratch`` is a fresh directory for the socket store."""
    if grid == "casestudy":
        return fig10.run(config, backend="serial")
    if grid == "fleet":
        return fleet.run(config, backend="serial")
    if variant == "serial":
        return run_sweep(config, backend="serial")
    if variant == "socket":
        return run_sweep(
            config, backend="socket", jobs=WORKERS, resume=os.path.join(scratch, "store.jsonl")
        )
    if variant == "pool":
        return run_sweep(config, backend="process", jobs=WORKERS)
    if variant == "pool-shared":
        return run_sweep(config, backend="process", jobs=WORKERS, shared_cache=True)
    raise ValueError(f"unknown variant {variant!r}")


def word_rounds(grid: str, config, result) -> int:
    """Simulated (word x profiler x round) events of one campaign call."""
    if grid == "sweep":
        return sum(len(cell.words) for cell in result.cells.values()) * config.num_rounds
    if grid == "casestudy":
        per_shard = config.words_per_stratum * len(config.profilers) * config.num_rounds
        return len(fig10.shard_case_study(config)) * per_shard
    return sum(chip.profiled_words for chip in result.chips) * config.num_rounds


# ----------------------------------------------------------------------
# Canonical, timing-free digests
# ----------------------------------------------------------------------


def canonical(grid: str, result):
    """The result as plain JSON data, with every timing left out.

    Floats go through ``repr`` inside ``json.dumps``, so the digest pins
    them bit for bit.
    """
    if grid == "sweep":
        return [
            [key[0], key[1], key[2], [_fields(word) for word in cell.words]]
            for key, cell in result.cells.items()
        ]
    if grid == "casestudy":
        return {
            "ticks": list(result.ticks),
            "before": sorted([list(key), list(value)] for key, value in result.before.items()),
            "after": sorted([list(key), list(value)] for key, value in result.after.items()),
            "rounds_to_zero": sorted(
                [list(key), value] for key, value in result.rounds_to_zero.items()
            ),
        }
    return [_fields(chip) for chip in result.chips]


def _fields(record) -> list:
    """A flat dataclass's field values (``astuple`` without its deep copy)."""
    return [getattr(record, field.name) for field in dataclasses.fields(record)]


def digest(grid: str, result) -> str:
    document = json.dumps(canonical(grid, result), separators=(",", ":"))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def perturb(grid: str, result):
    """A copy of ``result`` with one simulated value changed (self-test only)."""
    if grid == "sweep":
        key, cell = next(iter(result.cells.items()))
        words = list(cell.words)
        words[0] = replace(words[0], first_direct_round=words[0].first_direct_round + 1)
        cells = dict(result.cells)
        cells[key] = replace(cell, words=words)
        return replace(result, cells=cells)
    if grid == "casestudy":
        key, value = next(iter(result.after.items()))
        after = dict(result.after)
        after[key] = (value[0] + 1.0,) + tuple(value[1:])
        return replace(result, after=after)
    chips = list(result.chips)
    chips[0] = replace(chips[0], identified_bits=chips[0].identified_bits + 1)
    return replace(result, chips=tuple(chips))


# ----------------------------------------------------------------------
# Seed-independent checks
# ----------------------------------------------------------------------


def _non_decreasing(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def _non_increasing(values, slack: float = 0.0) -> bool:
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def check(grid: str, config, result) -> list[str]:
    """Properties every correct result has, whatever the seed.

    These guard seeds without a pinned digest; a pinned digest is the
    stronger check and is applied on top where one exists.
    """
    problems: list[str] = []
    if getattr(result, "quarantined", ()):
        problems.append(f"{len(result.quarantined)} shard(s) quarantined")
    if grid == "sweep":
        expected = [shard.key for shard in shard_grid(config)]
        if list(result.cells) != expected:
            problems.append("cells missing or out of grid order")
        words = config.num_codes * config.words_per_code
        for key, cell in result.cells.items():
            if len(cell.words) != words:
                problems.append(f"cell {key}: {len(cell.words)} words, expected {words}")
                continue
            for word in cell.words:
                series = (word.direct_identified, word.indirect_missed, word.post_identified)
                if any(len(s) != config.num_rounds for s in series + (word.capability,)):
                    problems.append(f"cell {key}: a series is not {config.num_rounds} rounds")
                    break
                if not (
                    _non_decreasing(word.direct_identified)
                    and _non_decreasing(word.post_identified)
                    and _non_increasing(word.indirect_missed)
                    and word.direct_identified[-1] <= word.direct_total
                    and word.post_identified[-1] <= word.post_total
                    and 1 <= word.first_direct_round <= config.num_rounds
                ):
                    problems.append(f"cell {key}: identification is not monotone and bounded")
                    break
    elif grid == "casestudy":
        for table_name in ("before", "after"):
            table = getattr(result, table_name)
            if len(table) != len(config.probabilities) * len(config.rbers) * len(config.profilers):
                problems.append(f"{table_name}: cells missing")
            for key, values in table.items():
                if len(values) != len(result.ticks) or not all(
                    math.isfinite(v) and v >= 0.0 for v in values
                ):
                    problems.append(f"{table_name} {key}: bad BER series")
                elif not _non_increasing(values, slack=1e-12 * max(values)):
                    problems.append(f"{table_name} {key}: BER rises with more rounds")
    else:
        if len(result.chips) != config.num_chips or result.incomplete_chips:
            problems.append("chips missing")
        for chip in result.chips:
            if (
                min(chip.identified_bits, chip.missed_bits) < 0
                or not 0.0 <= chip.ue_repaired <= chip.ue_unrepaired + 1e-12
                or chip.ue_unrepaired > 1.0
            ):
                problems.append(f"chip {chip.chip}: inconsistent summary")
                break
    return problems


def spot_check_socket(config, result, count: int = 2) -> list[str]:
    """Recompute a few cells in-process and compare them with the socket run.

    A seed without a pinned digest still gets a socket-equals-serial
    check this way, at a fraction of a full serial sweep's cost.
    """
    problems = []
    # The first cells share one error-count block: a batched and an
    # adaptive profiler, for one block's word sampling and ground truth.
    for shard in shard_grid(config)[:count]:
        cell, _ = run_shard(shard)
        if result.cells.get(shard.key) != cell:
            problems.append(f"socket cell {shard.key} differs from the serial recomputation")
    return problems
