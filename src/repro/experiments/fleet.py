"""Fleet-scale field simulation: profile + repair a population of chips.

HARP evaluates one chip's profiler coverage under uniform-random fault
injection; this workload asks the *population* question a memory-fleet
operator faces: given N chips drawn from a field-calibrated fault-mix
model (:mod:`repro.memory.faults` — per-mode rates for single-cell /
row / column / bank faults with lognormal per-chip variation), how many
uncorrectable errors does active profiling plus a bounded repair budget
leave behind, and what does the repair storage cost?

Pipeline per chip:

1. **Sample** the chip's fault topology — chip-indexed seeding
   (``derive_seed(seed, "fleet-chip", chip_index, ...)``), so the
   population decomposes into independent chips and any subset can be
   recomputed bit-identically.  The sampler takes a sequence of chips
   and seeds all their streams in batch; :func:`chip_faults` calls it
   once per block of ``chips_per_shard`` chips and memoizes the block,
   so each process samples each chip it reads once.
2. **Lower** the topology onto per-word
   :class:`~repro.memory.error_model.WordErrorProfile` objects.  Words
   with a single at-risk bit are SEC-correctable and tallied
   analytically; words with ≥ 2 at-risk bits are *profiled*.
3. **Profile** each such word for ``num_rounds`` rounds with the
   configured profiler.  A shard gathers the profiled words it owns
   across all its chips, each with its chip's code, into one
   :func:`~repro.profiling.runner.simulate_cell` call — the entry point
   every driver shares — so pattern drawing, encoding and the
   cell-batched kernel (when the profiler class is eligible; both
   kernels are bit-identical) run once per shard, not once per chip or
   word.  Each fleet word is simulated exactly once, so nothing about it
   is cached.
4. **Repair**: greedy row sparing plus bit spares over what profiling
   identified (:func:`repro.repair.policy.plan_row_sparing`), under the
   per-chip ``spare_rows`` / ``spare_bits`` budget.
5. **Report** the chip's uncorrectable-error probability — analytic
   P[≥ 2 simultaneous failures] over the bits left exposed (missed by
   profiling or unrepairable within budget) — plus repair-storage
   economics and per-mode fault counts.

Sub-cell sharding
=================

Execution rides the shard engine.  Light chips batch into contiguous
``[start, stop)`` range shards (``chips_per_shard`` per shard), but a
fleet's runtime is dominated by its tail: a chip that caught a bank
fault holds orders of magnitude more profiled words than the median
chip, and a whole-cell shard holding it pins one worker for the whole
map.  When a chip's profiled-word count exceeds ``slice_words``, its
cell is split into :data:`CellSlice` shards — slice ``s`` of ``S``
simulates the profiled words whose index ``≡ s (mod S)`` — that many
workers share.  Per-word results are keyed by word coordinates, so the
merge is associative and order-independent, and the repair stage runs
only after a chip's slices are all in (row sparing needs the whole
chip).  ``slice_words=0`` disables splitting (whole-cell mode, the
benchmark baseline).

Resume, quarantine, and monitoring are the sweep engine's, through the
same campaign loop: ``run(config, resume=PATH)`` streams slices to a
``repro-fleet-v1`` :class:`~repro.experiments.store.ShardStore`, a
backend in continue-past-quarantine mode reports poisoned slices (the
affected chips are excluded from fleet aggregates until healed), and a
socket backend's ``--status-port`` snapshot carries the fleet campaign
fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from repro.ecc.hamming import random_sec_code
from repro.experiments.campaign import run_campaign
from repro.experiments.config import FleetConfig
from repro.experiments.store import FLEET_STORE
from repro.memory.error_model import WordErrorProfile
from repro.memory.faults import (
    FAULT_MODES,
    ChipFaults,
    ChipGeometry,
    FaultMixModel,
    sample_chip_faults,
)
from repro.profiling.runner import simulate_cell
from repro.repair.policy import plan_row_sparing
from repro.utils.rng import derive_rng, derive_seeds

__all__ = [
    "FleetShard",
    "CellSlice",
    "ChipSummary",
    "FleetResult",
    "chip_faults",
    "profiled_words",
    "shard_fleet",
    "run_fleet_shard",
    "merge_slice_payloads",
    "finalize_chip",
    "run",
    "render",
]


def geometry_of(config: FleetConfig) -> ChipGeometry:
    return ChipGeometry(rows=config.rows, words_per_row=config.words_per_row)


def mix_model_of(config: FleetConfig) -> FaultMixModel:
    return FaultMixModel(
        single_rate=config.single_rate,
        row_rate=config.row_rate,
        column_rate=config.column_rate,
        bank_rate=config.bank_rate,
        variability_sigma=config.variability_sigma,
        row_density=config.row_density,
        column_density=config.column_density,
        bank_density=config.bank_density,
    )


@lru_cache(maxsize=256)
def _fleet_code(seed: int, k: int, code_index: int):
    """The fleet's ``code_index``-th on-die SEC code (cached per process)."""
    return random_sec_code(k, derive_rng(seed, "fleet-code", code_index))


def chip_code(config: FleetConfig, chip_index: int):
    """Chip ``chip_index``'s on-die code: chips cycle through ``num_codes``."""
    return _fleet_code(config.seed, config.k, chip_index % config.num_codes)


@lru_cache(maxsize=2)
def _fault_blocks(config: FleetConfig) -> dict[int, tuple[ChipFaults, ...]]:
    """One fleet's sampled chip blocks, each filled when first read."""
    return {}


def chip_faults(config: FleetConfig, chip_index: int) -> ChipFaults:
    """Chip ``chip_index``'s fault topology (chip-indexed, memoized by block).

    Block ``b`` holds chips ``[b·c, (b + 1)·c)`` for ``c =
    chips_per_shard``, sampled in one
    :func:`~repro.memory.faults.sample_chip_faults` call the first time
    one of them is read and kept for the fleet's run.  :func:`run`
    reads every chip twice (to shard the fleet and to finalize it) and a
    worker reads its shards' chips, so each process samples each chip it
    reads once.  The memo holds the two most recent fleets.
    """
    if not 0 <= chip_index < config.num_chips:
        raise IndexError(f"chip {chip_index} is outside a fleet of {config.num_chips} chips")
    block, offset = divmod(chip_index, config.chips_per_shard)
    blocks = _fault_blocks(config)
    if block not in blocks:  # threads reading one block at once store equal tuples
        start = block * config.chips_per_shard
        blocks[block] = tuple(
            sample_chip_faults(
                config.seed,
                range(start, min(start + config.chips_per_shard, config.num_chips)),
                mix_model_of(config),
                geometry_of(config),
                chip_code(config, start).n,  # every fleet code has the same k, so one n
                config.max_at_risk_per_word,
            )
        )
    return blocks[block][offset]


def profiled_words(faults: ChipFaults) -> list[tuple[int, tuple[int, ...]]]:
    """The chip's words holding ≥ 2 at-risk bits — the ones profiling runs on.

    A single at-risk bit cannot produce an uncorrectable error under
    SEC (the fig10 stratification argument), so those words are tallied
    analytically instead of simulated.
    """
    return [(word, positions) for word, positions in faults.word_positions if len(positions) >= 2]


def clear_fleet_caches() -> None:
    """Empty the fleet-layer caches (tests and benchmarks only)."""
    _fleet_code.cache_clear()
    _fault_blocks.cache_clear()


# ----------------------------------------------------------------------
# Shards: chip ranges and sub-cell slices
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetShard:
    """One picklable unit of fleet work: a chip range, or a cell slice.

    ``num_slices == 1`` covers chips ``[start, stop)`` whole.  A heavy
    chip instead ships as ``num_slices`` single-chip slices
    (``stop == start + 1``): slice ``s`` simulates the chip's profiled
    words whose position in the profiled-word list ``≡ s (mod
    num_slices)``.  Slices carry disjoint word sets keyed by word
    coordinates, so merging their payloads is associative and
    order-independent — any subset of workers can compute any subset of
    slices in any order.
    """

    config: FleetConfig
    start: int
    stop: int
    slice_index: int = 0
    num_slices: int = 1

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.start, self.stop, self.slice_index, self.num_slices)


#: A sub-cell shard — a :class:`FleetShard` with ``num_slices > 1`` —
#: is a *cell slice*: many workers share one chip's cell and their
#: results merge associatively.
CellSlice = FleetShard


def shard_fleet(config: FleetConfig) -> list[FleetShard]:
    """Decompose a fleet into shards, chip order preserved.

    Light chips batch ``chips_per_shard`` per range shard; a chip whose
    profiled-word count exceeds ``slice_words`` becomes
    ``ceil(words / slice_words)`` cell slices.  With ``slice_words=0``
    every chip is light (whole-cell mode).
    """
    shards: list[FleetShard] = []
    batch_start: int | None = None

    def flush(stop: int) -> None:
        nonlocal batch_start
        if batch_start is not None:
            shards.append(FleetShard(config=config, start=batch_start, stop=stop))
            batch_start = None

    for chip in range(config.num_chips):
        words = len(profiled_words(chip_faults(config, chip)))
        if config.slice_words and words > config.slice_words:
            flush(chip)
            num_slices = -(-words // config.slice_words)  # ceil division
            for slice_index in range(num_slices):
                shards.append(
                    FleetShard(
                        config=config,
                        start=chip,
                        stop=chip + 1,
                        slice_index=slice_index,
                        num_slices=num_slices,
                    )
                )
            continue
        if batch_start is None:
            batch_start = chip
        if chip - batch_start + 1 >= config.chips_per_shard:
            flush(chip + 1)
    flush(config.num_chips)
    return shards


def run_fleet_shard(shard: FleetShard) -> dict:
    """Execute one shard: per-word identified sets for its chips/slice.

    Returns a JSON-safe payload — ``{"chips": [{"chip": i, "words":
    [[word, [positions...], [identified...]], ...]}, ...]}`` — where
    ``identified`` is the profiler's final identified set restricted to
    the word's at-risk positions (what the repair stage can act on).
    Pure function of the shard: any backend, order, or slicing produces
    bit-identical payloads.
    """
    config = shard.config
    chips = []
    owned: list[tuple[list, int, tuple[int, ...]]] = []
    codes, profiles, draw_keys = [], [], []
    for chip in range(shard.start, shard.stop):
        code = chip_code(config, chip)
        words: list = []
        chips.append({"chip": chip, "words": words})
        for index, (word, positions) in enumerate(profiled_words(chip_faults(config, chip))):
            if index % shard.num_slices != shard.slice_index:
                continue
            owned.append((words, word, positions))
            codes.append(code)
            profiles.append(
                WordErrorProfile(positions, tuple(config.probability for _ in positions))
            )
            draw_keys.append((chip, word))
    seeds = derive_seeds([(config.seed, "fleet-draws")], draw_keys)
    runs = simulate_cell(
        [config.profiler], codes, profiles, seeds, config.num_rounds, config.pattern
    )[config.profiler]
    for (words, word, positions), run in zip(owned, runs):
        words.append([word, list(positions), sorted(run.final_identified() & set(positions))])
    return {"chips": chips}


def _timed_fleet_shard(shard: FleetShard) -> tuple[dict, float]:
    """Pool worker: :func:`run_fleet_shard` plus its wall-clock seconds.

    As in the other drivers, the timing feeds only progress lines and
    the resume store's ETA accounting — results stay bit-identical to
    the untimed worker.
    """
    started = time.perf_counter()
    payload = run_fleet_shard(shard)
    return payload, time.perf_counter() - started


def merge_slice_payloads(payloads: list[dict]) -> dict[int, dict[int, list[int]]]:
    """Fold shard payloads into ``{chip: {word: identified positions}}``.

    Associative and order-independent: slices carry disjoint word sets
    per chip, so dict union over word coordinates is the whole merge.
    """
    merged: dict[int, dict[int, list[int]]] = {}
    for payload in payloads:
        for entry in payload["chips"]:
            words = merged.setdefault(int(entry["chip"]), {})
            for word, _, identified in entry["words"]:
                words[int(word)] = [int(bit) for bit in identified]
    return merged


# ----------------------------------------------------------------------
# Per-chip finalization: repair policy + UE probability
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChipSummary:
    """One chip's fleet-level outcome: faults, coverage, repair, UE."""

    chip: int
    rate_scale: float
    #: Fault count per mode, aligned with :data:`~repro.memory.faults.FAULT_MODES`.
    mode_counts: tuple[int, ...]
    #: Total at-risk bits across the chip.
    at_risk_bits: int
    #: Words profiled (≥ 2 at-risk bits) / words with exactly one.
    profiled_words: int
    single_words: int
    #: At-risk bits the profiler identified / missed (profiled words).
    identified_bits: int
    missed_bits: int
    repaired_rows: int
    bit_repairs: int
    storage_bits: int
    wasted_bits: int
    #: P[some word suffers ≥ 2 simultaneous at-risk failures] with the
    #: repair plan applied / with no profiling or repair at all.
    ue_repaired: float
    ue_unrepaired: float


def _ue_word(exposed: int, probability: float) -> float:
    """P[≥ 2 of ``exposed`` independent at-risk bits fail at once].

    Under SEC a single error corrects; two or more simultaneous
    pre-correction errors in one word are (potentially) uncorrectable.
    """
    if exposed < 2:
        return 0.0
    p, m = probability, exposed
    return 1.0 - (1.0 - p) ** m - m * p * (1.0 - p) ** (m - 1)


def finalize_chip(
    config: FleetConfig, faults: ChipFaults, identified_by_word: dict[int, list[int]]
) -> ChipSummary:
    """Run the repair stage over a chip's merged slices and score it.

    A repaired row removes the physical row entirely, so *all* of its
    at-risk bits — identified or missed — stop being exposed; bit spares
    cover exactly the identified bits they were assigned to.  The UE
    probability is the complement-product over profiled words of
    :func:`_ue_word` on each word's exposed count.
    """
    geometry = geometry_of(config)
    n = chip_code(config, faults.chip_index).n
    words = profiled_words(faults)
    identified = {
        word: tuple(identified_by_word.get(word, ())) for word, _ in words
    }
    plan = plan_row_sparing(
        identified,
        geometry,
        row_bits=n * config.words_per_row,
        spare_rows=config.spare_rows,
        spare_bits=config.spare_bits,
    )
    covered_rows = set(plan.repaired_rows)
    spared_bits = set(plan.bit_repairs)
    ue_repaired = 1.0
    ue_unrepaired = 1.0
    for word, positions in words:
        ue_unrepaired *= 1.0 - _ue_word(len(positions), config.probability)
        if geometry.row_of(word) in covered_rows:
            continue
        exposed = sum(
            1
            for position in positions
            if (word, position) not in spared_bits
        )
        ue_repaired *= 1.0 - _ue_word(exposed, config.probability)
    identified_bits = sum(len(bits) for bits in identified.values())
    profiled_at_risk = sum(len(positions) for _, positions in words)
    return ChipSummary(
        chip=faults.chip_index,
        rate_scale=faults.rate_scale,
        mode_counts=faults.mode_counts,
        at_risk_bits=faults.total_at_risk,
        profiled_words=len(words),
        single_words=sum(
            1 for _, positions in faults.word_positions if len(positions) == 1
        ),
        identified_bits=identified_bits,
        missed_bits=profiled_at_risk - identified_bits,
        repaired_rows=len(plan.repaired_rows),
        bit_repairs=len(plan.bit_repairs),
        storage_bits=plan.storage_bits,
        wasted_bits=plan.wasted_bits,
        ue_repaired=1.0 - ue_repaired,
        ue_unrepaired=1.0 - ue_unrepaired,
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetResult:
    """Per-chip summaries plus the campaign's quarantine ledger."""

    config: FleetConfig
    #: Completed chips in chip order (chips with a quarantined slice are
    #: excluded until a targeted re-run heals them).
    chips: tuple[ChipSummary, ...]
    #: Shard keys a continue-past-quarantine run set aside.
    quarantined: tuple[tuple[int, int, int, int], ...] = ()
    #: Chip indices excluded because one of their slices quarantined.
    incomplete_chips: tuple[int, ...] = ()


def run(
    config: FleetConfig = FleetConfig(),
    jobs: int | None = None,
    backend=None,
    resume: str | None = None,
    progress: bool | float = False,
    shared_cache: bool = False,
) -> FleetResult:
    """Simulate the fleet over any backend, with resume and sub-cell shards.

    Runs through the drivers' one campaign loop
    (:func:`~repro.experiments.campaign.run_campaign`), with
    :func:`~repro.experiments.runner.run_sweep`'s contract: every
    ``jobs`` / ``backend`` / ``resume`` / slicing choice is
    bit-identical.  ``resume=PATH`` streams completed shards to a
    ``repro-fleet-v1`` :class:`~repro.experiments.store.ShardStore`;
    ``shared_cache=True`` publishes the fleet codes' aliasing tables for
    local pool workers.  A backend in continue-past-quarantine mode reports
    poisoned shard keys on ``FleetResult.quarantined``; the affected
    chips are excluded from ``chips`` (listed on ``incomplete_chips``)
    until a targeted re-run completes them.
    """
    campaign = run_campaign(
        FLEET_STORE,
        config,
        shard_fleet,
        _timed_fleet_shard,
        jobs=jobs,
        backend=backend,
        resume=resume,
        progress=progress,
        shared_entries=fleet_entries if shared_cache else None,
        describe=lambda shards: {
            "chips": config.num_chips,
            "cell_slices": sum(1 for shard in shards if shard.num_slices > 1),
        },
    )
    # A chip is complete only when every slice of its shard group landed;
    # a quarantined slice poisons exactly its own chips.
    incomplete = {chip for start, stop, *_ in campaign.quarantined for chip in range(start, stop)}
    results = campaign.results
    merged = merge_slice_payloads(
        [results[shard.key] for shard in campaign.shards if shard.key in results]
    )
    summaries = tuple(
        finalize_chip(config, chip_faults(config, chip), merged.get(chip, {}))
        for chip in range(config.num_chips)
        if chip not in incomplete
    )
    return FleetResult(
        config=config,
        chips=summaries,
        quarantined=campaign.quarantined,
        incomplete_chips=tuple(sorted(incomplete)),
    )


def fleet_entries(config: FleetConfig) -> dict:
    """Shareable artifacts of a fleet run, keyed for the analysis caches.

    Each fleet code's BEEP aliasing tables, keyed as
    :mod:`repro.analysis.memo` keys them; published by ``run(...,
    shared_cache=True)``.  A fleet word is simulated once, so its
    schedule, encoding and draws are built in its shard and never
    shared.
    """
    from repro.analysis.memo import _code_key, cached_aliasing_pairs

    entries: dict = {}
    for code_index in range(min(config.num_codes, config.num_chips)):
        code = _fleet_code(config.seed, config.k, code_index)
        for target in range(code.n):
            entries[("pairs", _code_key(code), target)] = (
                "pickle",
                cached_aliasing_pairs(code, target),
            )
    return entries


# ----------------------------------------------------------------------
# Rendition
# ----------------------------------------------------------------------


def render(result: FleetResult) -> str:
    """Operator-facing fleet report: faults, coverage, repair, UE."""
    config = result.config
    chips = result.chips
    lines = [
        f"fleet    {len(chips)}/{config.num_chips} chips · code k={config.k} · "
        f"profiler {config.profiler} · p={config.probability:.0%} · "
        f"{config.num_rounds} rounds"
    ]
    faulty = [chip for chip in chips if chip.at_risk_bits]
    mode_parts = []
    for index, mode in enumerate(FAULT_MODES):
        total = sum(chip.mode_counts[index] for chip in chips)
        affected = sum(1 for chip in chips if chip.mode_counts[index])
        mode_parts.append(f"{mode} {total} on {affected} chip(s)")
    lines.append(f"faults   {' · '.join(mode_parts)}")
    at_risk = sum(chip.at_risk_bits for chip in chips)
    lines.append(
        f"exposure {len(faulty)} faulty chip(s), {at_risk} at-risk bits, "
        f"{sum(chip.profiled_words for chip in chips)} profiled word(s), "
        f"{sum(chip.single_words for chip in chips)} single-bit word(s) "
        "(SEC-covered)"
    )
    identified = sum(chip.identified_bits for chip in chips)
    missed = sum(chip.missed_bits for chip in chips)
    profiled_bits = identified + missed
    if profiled_bits:
        share = 100.0 * identified / profiled_bits
        lines.append(
            f"coverage {identified}/{profiled_bits} profiled at-risk bits "
            f"identified ({share:.1f}%), {missed} missed"
        )
    rows = sum(chip.repaired_rows for chip in chips)
    bit_spares = sum(chip.bit_repairs for chip in chips)
    storage = sum(chip.storage_bits for chip in chips)
    wasted = sum(chip.wasted_bits for chip in chips)
    mean_storage = storage / len(chips) if chips else 0.0
    waste_share = (100.0 * wasted / storage) if storage else 0.0
    lines.append(
        f"repair   {rows} spare row(s) + {bit_spares} bit spare(s) = "
        f"{storage} storage bits ({mean_storage:.1f} bits/chip, "
        f"{waste_share:.1f}% row-capacity waste)"
    )
    if chips:
        mean_rep = sum(chip.ue_repaired for chip in chips) / len(chips)
        mean_unrep = sum(chip.ue_unrepaired for chip in chips) / len(chips)
        exposed = sum(1 for chip in chips if chip.ue_repaired > 0.0)
        factor = (mean_unrep / mean_rep) if mean_rep > 0 else float("inf")
        factor_text = "inf" if factor == float("inf") else f"{factor:.1f}x"
        lines.append(
            f"UE       mean P[UE] {mean_rep:.3e} repaired vs "
            f"{mean_unrep:.3e} unrepaired ({factor_text} reduction) · "
            f"{exposed} chip(s) still exposed"
        )
    if result.incomplete_chips:
        listed = ", ".join(str(chip) for chip in result.incomplete_chips)
        lines.append(
            f"partial  chip(s) {listed} excluded (quarantined slices await "
            "a targeted re-run)"
        )
    return "\n".join(lines)
