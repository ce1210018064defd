"""Field-calibrated chip fault topologies for fleet-scale simulation.

HARP's sweeps inject uniform-random at-risk bits into isolated ECC
words; real DRAM populations do not fail that way.  Field studies of
production fleets (the DDR4 field-fault corrigendum by Beigi et al.,
and the earlier Sridharan surveys) report a *mode mix*: most faulty
chips exhibit single-cell faults, with a long tail of row, column, and
bank faults whose footprints span many ECC words at once — and the
per-chip fault rate itself varies over orders of magnitude, which a
lognormal multiplier captures well.

This module is the population model behind
:mod:`repro.experiments.fleet`:

* :class:`ChipGeometry` — the simulated region of one chip, a grid of
  ``rows × words_per_row`` ECC words.
* :class:`FaultMixModel` — per-mode Poisson fault rates, the lognormal
  per-chip rate variability, and the per-mode at-risk densities.
  :data:`FIELD_DDR4` carries calibrated defaults.
* :func:`sample_chip_faults` — draw the fault topologies of a sequence
  of chips in one call, every stream seeded in batch.  Every random
  draw derives from ``derive_seed(seed, "fleet-chip", chip_index,
  ...)``: sampling is **chip-indexed**, never draw-order dependent, so
  chip ``i``'s topology is identical no matter how many other chips
  the population holds, which other chips share its call, or in what
  order they are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from typing import Sequence

import numpy as np

from repro.utils.rng import derive_seeds, seeded_generators

__all__ = [
    "FAULT_MODES",
    "ChipGeometry",
    "FaultMixModel",
    "FIELD_DDR4",
    "ChipFaults",
    "sample_chip_faults",
]

#: Fault modes of the field-study taxonomy, in sampling order.
FAULT_MODES = ("single", "row", "column", "bank")


@dataclass(frozen=True)
class ChipGeometry:
    """The simulated region of one chip: a ``rows × words_per_row`` grid.

    Word index ``w`` lives in row ``w // words_per_row`` at slot
    ``w % words_per_row``; a *column* spans one (slot, bit) position
    across every row, mirroring how a DRAM column fault pierces every
    row of its bank.
    """

    rows: int = 32
    words_per_row: int = 4

    def __post_init__(self) -> None:
        if self.rows < 1 or self.words_per_row < 1:
            raise ValueError("geometry dimensions must be positive")

    @property
    def num_words(self) -> int:
        return self.rows * self.words_per_row

    def row_of(self, word_index: int) -> int:
        return word_index // self.words_per_row


@dataclass(frozen=True)
class FaultMixModel:
    """Per-mode fault rates and per-chip variability of a population.

    ``*_rate`` fields are the *mean faults per chip* of each mode — the
    Poisson intensity before the per-chip lognormal multiplier.  The
    multiplier is ``exp(sigma·Z − sigma²/2)`` with ``Z`` standard
    normal, so its mean is exactly 1 and the rates stay calibrated
    population-wide while individual chips spread over orders of
    magnitude (the field studies' heavy per-chip variation).

    ``*_density`` fields set how much of a multi-word fault's footprint
    is actually at risk: a row fault marks each bit of its row's words
    at risk with probability ``row_density``, a column fault marks its
    (slot, bit) position at risk in each row with probability
    ``column_density``, and a bank fault sprays the whole chip at
    ``bank_density``.  A row/column fault that would otherwise be empty
    deterministically keeps one at-risk bit — a fault with no footprint
    is not a fault.
    """

    single_rate: float = 0.30
    row_rate: float = 0.09
    column_rate: float = 0.06
    bank_rate: float = 0.03
    variability_sigma: float = 1.2
    row_density: float = 0.25
    column_density: float = 0.25
    bank_density: float = 0.01

    def __post_init__(self) -> None:
        for mode in FAULT_MODES:
            if self.rate_of(mode) < 0:
                raise ValueError("fault rates must be >= 0")
        if self.variability_sigma < 0:
            raise ValueError("variability_sigma must be >= 0")
        for density in (self.row_density, self.column_density, self.bank_density):
            if not 0.0 <= density <= 1.0:
                raise ValueError("fault densities must be within [0, 1]")

    def rate_of(self, mode: str) -> float:
        """The Poisson intensity of ``mode`` (mean faults per chip)."""
        return {
            "single": self.single_rate,
            "row": self.row_rate,
            "column": self.column_rate,
            "bank": self.bank_rate,
        }[mode]


#: Calibrated defaults from the DDR4 field-study mode mix: among faulty
#: chips roughly half show single-cell faults, with row ≈ 15%, column ≈
#: 10%, and bank-level faults ≈ 5-15% — encoded here as relative Poisson
#: rates summing to an expected 0.48 faults/chip, i.e. ~38% of chips
#: exhibit at least one fault over the observation window before the
#: lognormal spread.  ``variability_sigma = 1.2`` reproduces the studies'
#: orders-of-magnitude per-chip rate variation.
FIELD_DDR4 = FaultMixModel()


@dataclass(frozen=True)
class ChipFaults:
    """One chip's sampled fault topology.

    ``word_positions`` is the lowered at-risk map: ``(word_index,
    (positions...))`` pairs sorted by word, positions sorted and unique
    within a word.  :func:`repro.experiments.fleet.run_fleet_shard`
    lowers each profiled word onto a
    :class:`~repro.memory.error_model.WordErrorProfile`.
    """

    chip_index: int
    #: The chip's lognormal rate multiplier (mean-1 across the fleet).
    rate_scale: float
    #: Fault count per mode, aligned with :data:`FAULT_MODES`.
    mode_counts: tuple[int, ...]
    word_positions: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def total_at_risk(self) -> int:
        return sum(len(positions) for _, positions in self.word_positions)


def _place_single(rng, geometry: ChipGeometry, n: int, marks: dict) -> None:
    word = int(rng.integers(geometry.num_words))
    marks.setdefault(word, set()).add(int(rng.integers(n)))


def _place_row(rng, geometry: ChipGeometry, n: int, density: float, marks: dict) -> None:
    row = int(rng.integers(geometry.rows))
    mask = rng.random((geometry.words_per_row, n)) < density
    if not mask.any():
        mask[int(rng.integers(geometry.words_per_row)), int(rng.integers(n))] = True
    base = row * geometry.words_per_row
    for slot, bit in zip(*np.nonzero(mask)):
        marks.setdefault(base + int(slot), set()).add(int(bit))


def _place_column(rng, geometry: ChipGeometry, n: int, density: float, marks: dict) -> None:
    slot = int(rng.integers(geometry.words_per_row))
    bit = int(rng.integers(n))
    rows = rng.random(geometry.rows) < density
    if not rows.any():
        rows[int(rng.integers(geometry.rows))] = True
    for row in np.flatnonzero(rows):
        marks.setdefault(int(row) * geometry.words_per_row + slot, set()).add(bit)


def _place_bank(rng, geometry: ChipGeometry, n: int, density: float, marks: dict) -> None:
    mask = rng.random((geometry.num_words, n)) < density
    for word, bit in zip(*np.nonzero(mask)):
        marks.setdefault(int(word), set()).add(int(bit))


def _place(
    rng, mode: str, model: FaultMixModel, geometry: ChipGeometry, n: int, marks: dict
) -> None:
    """Mark one ``mode`` fault's at-risk bits, drawing from its own stream."""
    if mode == "single":
        _place_single(rng, geometry, n, marks)
    elif mode == "row":
        _place_row(rng, geometry, n, model.row_density, marks)
    elif mode == "column":
        _place_column(rng, geometry, n, model.column_density, marks)
    else:
        _place_bank(rng, geometry, n, model.bank_density, marks)


def _lowered(marks: dict[int, set[int]], max_per_word: int | None) -> tuple:
    lowered = []
    for word in sorted(marks):
        positions = tuple(sorted(marks[word]))
        if max_per_word is not None and len(positions) > max_per_word:
            positions = positions[:max_per_word]
        lowered.append((word, positions))
    return tuple(lowered)


#: Each chip's first-pass streams, as key suffixes under
#: ``(seed, "fleet-chip", chip_index)``: its rate scale, then each mode's
#: fault count.
_CHIP_STREAMS = (("scale",),) + tuple(("count", mode) for mode in FAULT_MODES)


def sample_chip_faults(
    seed: int,
    chip_indices: Sequence[int],
    model: FaultMixModel,
    geometry: ChipGeometry,
    n: int,
    max_per_word: int | None = None,
) -> list[ChipFaults]:
    """Draw the fault topology of every chip in ``chip_indices``, in that order.

    Chip-indexed seeding: every stream is ``derive_rng(seed,
    "fleet-chip", chip_index, ...)`` — the per-chip rate scale
    (``"scale"``), each mode's fault count (``"count", mode``), and each
    individual fault's placement (``mode, fault_index``) all get their
    own derived stream, so no draw ever shifts another chip's (or
    another fault's) topology.  Inserting or removing chips from the
    population, or sampling them in another grouping or order, leaves
    every chip's faults bit-identical.

    The streams are built in batch
    (:func:`~repro.utils.rng.derive_seeds`,
    :func:`~repro.utils.rng.seeded_generators`), in two passes, because
    the counts decide which placement streams exist: first every chip's
    scale and count streams, then the placement streams those counts
    call for.  A caller gains most by passing many chips at once.

    ``max_per_word`` truncates a word's at-risk set to its lowest
    positions (model truncation: the profiler/ground-truth machinery is
    exponential in a word's at-risk count, and field words essentially
    never exceed a handful of at-risk cells).
    """
    chips = [int(chip) for chip in chip_indices]
    sigma = model.variability_sigma
    rates = [model.rate_of(mode) for mode in FAULT_MODES]
    streams = seeded_generators(
        derive_seeds([(seed, "fleet-chip", chip) for chip in chips], _CHIP_STREAMS)
    )
    scales, counts = [], []
    for _ in chips:
        rate_scale = float(exp(sigma * next(streams).standard_normal() - sigma * sigma / 2.0))
        scales.append(rate_scale)
        counts.append(tuple(int(next(streams).poisson(rate * rate_scale)) for rate in rates))
    faults = [
        (index, mode, fault_index)
        for index, chip_counts in enumerate(counts)
        for mode, count in zip(FAULT_MODES, chip_counts)
        for fault_index in range(count)
    ]
    paths = [(seed, "fleet-chip", chips[index], mode, fault) for index, mode, fault in faults]
    marks: list[dict[int, set[int]]] = [{} for _ in chips]
    for (index, mode, _), rng in zip(faults, seeded_generators(derive_seeds(paths))):
        _place(rng, mode, model, geometry, n, marks[index])
    return [
        ChipFaults(
            chip_index=chip,
            rate_scale=rate_scale,
            mode_counts=chip_counts,
            word_positions=_lowered(chip_marks, max_per_word),
        )
        for chip, rate_scale, chip_counts, chip_marks in zip(chips, scales, counts, marks)
    ]
