"""Experiment configurations and Monte-Carlo scale presets.

The paper's full evaluation burned ~14 CPU-years in C++ (its §A.8); the
library exposes the same experiments with a configurable scale.  Presets:

* ``UNIT`` — seconds; used by the integration test-suite.
* ``BENCH`` — tens of seconds; used by the benchmark harness to print each
  exhibit's rows.
* ``FULL`` — minutes-to-hours; the single-machine default for real runs.
* ``PAPER`` — paper-scale statistical power; sized for the distributed
  socket backend plus the streaming shard store (``run_sweep(config,
  backend="socket://...", resume=PATH)``), where cells parallelize
  across machines and each finished cell becomes durable on disk the
  moment a worker delivers it.  Wall-clock is tracked in
  ``benchmarks/results/sweep_scaling.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.atrisk import MAX_AT_RISK_FOR_ENUMERATION
from repro.memory.faults import FaultMixModel
from repro.memory.patterns import PATTERN_NAMES
from repro.profiling import PROFILER_REGISTRY

__all__ = [
    "SweepConfig",
    "CaseStudyConfig",
    "FleetConfig",
    "UNIT",
    "BENCH",
    "FULL",
    "PAPER",
]

#: Profilers evaluated in the paper's coverage figures (Figs 6-9).
DEFAULT_PROFILERS = ("Naive", "BEEP", "HARP-U", "HARP-A", "HARP-A+BEEP")


def _check_probabilities(probabilities: tuple[float, ...]) -> None:
    for probability in probabilities:
        if not 0.0 < probability <= 1.0:
            raise ValueError("per-bit probabilities must be in (0, 1]")


def _check_names(profilers: tuple[str, ...], pattern: str) -> None:
    unknown = [name for name in profilers if name not in PROFILER_REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown profiler(s) {unknown}; expected names from {sorted(PROFILER_REGISTRY)}"
        )
    if pattern not in PATTERN_NAMES:
        raise ValueError(
            f"unknown data pattern {pattern!r}; expected one of {list(PATTERN_NAMES)}"
        )


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of the Fig 6-9 profiler sweep.

    Attributes mirror the paper's §7.1.2 methodology: random (71, 64) SEC
    Hamming codes, 2-5 injected pre-correction at-risk bits per word,
    per-bit error probabilities 25-100%, 128 rounds of the random data
    pattern (with per-round inversion).
    """

    k: int = 64
    num_codes: int = 8
    words_per_code: int = 12
    num_rounds: int = 128
    error_counts: tuple[int, ...] = (2, 3, 4, 5)
    probabilities: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    profilers: tuple[str, ...] = field(default=DEFAULT_PROFILERS)
    pattern: str = "random"
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.num_codes < 1 or self.words_per_code < 1 or self.num_rounds < 1:
            raise ValueError("scale parameters must be positive")
        for count in self.error_counts:
            if count < 1:
                raise ValueError("error counts must be positive")
            if count > MAX_AT_RISK_FOR_ENUMERATION:
                raise ValueError(
                    f"error count {count} exceeds the enumeration bound "
                    f"{MAX_AT_RISK_FOR_ENUMERATION}"
                )
        _check_probabilities(self.probabilities)
        _check_names(self.profilers, self.pattern)


@dataclass(frozen=True)
class CaseStudyConfig:
    """Configuration of the Fig 10 data-retention case study."""

    k: int = 64
    num_codes: int = 4
    words_per_stratum: int = 8
    num_rounds: int = 128
    rbers: tuple[float, ...] = (1e-4, 1e-6, 1e-8)
    probabilities: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    profilers: tuple[str, ...] = ("Naive", "BEEP", "HARP-U", "HARP-A")
    #: Strata of at-risk-bit counts to simulate; words with 0 or 1 at-risk
    #: bits contribute zero post-correction BER under SEC and are handled
    #: analytically.
    max_at_risk: int = 6
    pattern: str = "random"
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.num_codes < 1 or self.words_per_stratum < 1 or self.num_rounds < 1:
            raise ValueError("scale parameters must be positive")
        for rber in self.rbers:
            if not 0.0 < rber < 1.0:
                raise ValueError("RBER must be in (0, 1)")
        _check_probabilities(self.probabilities)
        if self.max_at_risk < 2:
            raise ValueError("max_at_risk must be >= 2")
        if self.max_at_risk > MAX_AT_RISK_FOR_ENUMERATION:
            raise ValueError(
                f"max_at_risk {self.max_at_risk} exceeds the enumeration bound "
                f"{MAX_AT_RISK_FOR_ENUMERATION}"
            )
        _check_names(self.profilers, self.pattern)


@dataclass(frozen=True)
class FleetConfig:
    """Configuration of the fleet-scale field simulation (``repro fleet``).

    A population of ``num_chips`` chips is drawn from the field-fault
    mix model (:class:`~repro.memory.faults.FaultMixModel`): per-mode
    Poisson rates for single-cell/row/column/bank faults, a lognormal
    per-chip rate multiplier, and per-mode at-risk densities.  Each
    chip's topology lowers onto per-word
    :class:`~repro.memory.error_model.WordErrorProfile` objects; words
    holding ≥ 2 at-risk bits are profiled for ``num_rounds`` rounds
    (single at-risk bits are SEC-correctable and handled analytically),
    and a row-sparing repair stage
    (:func:`~repro.repair.policy.plan_row_sparing`) spends the per-chip
    ``spare_rows`` / ``spare_bits`` budget on what profiling identified.

    Sharding: light chips batch ``chips_per_shard`` per shard; a chip
    whose profiled-word count exceeds ``slice_words`` becomes a *heavy*
    chip whose cell is split into sub-cell slices of ~``slice_words``
    words each, shared across workers (``slice_words=0`` disables
    sub-cell sharding — whole-cell mode, used for benchmarks).
    """

    num_chips: int = 1000
    k: int = 32
    #: Distinct on-die SEC codes across the fleet (chips cycle through
    #: them, so per-code caches amortize across the population).
    num_codes: int = 4
    num_rounds: int = 64
    probability: float = 0.75
    profiler: str = "HARP-U"
    pattern: str = "random"
    rows: int = 32
    words_per_row: int = 4
    single_rate: float = 0.30
    row_rate: float = 0.09
    column_rate: float = 0.06
    bank_rate: float = 0.03
    variability_sigma: float = 1.2
    row_density: float = 0.25
    column_density: float = 0.25
    bank_density: float = 0.01
    max_at_risk_per_word: int = 8
    spare_rows: int = 2
    spare_bits: int = 16
    chips_per_shard: int = 64
    slice_words: int = 8
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.num_chips < 1 or self.num_codes < 1 or self.num_rounds < 1:
            raise ValueError("scale parameters must be positive")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("per-bit probability must be in (0, 1]")
        if self.rows < 1 or self.words_per_row < 1:
            raise ValueError("geometry dimensions must be positive")
        if self.max_at_risk_per_word < 2:
            raise ValueError("max_at_risk_per_word must be >= 2")
        if self.chips_per_shard < 1:
            raise ValueError("chips_per_shard must be >= 1")
        if self.slice_words < 0:
            raise ValueError("slice_words must be >= 0 (0 = whole-cell shards)")
        if self.spare_rows < 0 or self.spare_bits < 0:
            raise ValueError("repair budgets must be >= 0")
        _check_names((self.profiler,), self.pattern)
        self.mix_model()  # FaultMixModel bounds the fault-mix fields

    def mix_model(self) -> FaultMixModel:
        """The population's field-fault mix, built from this config's fields."""
        return FaultMixModel(
            single_rate=self.single_rate,
            row_rate=self.row_rate,
            column_rate=self.column_rate,
            bank_rate=self.bank_rate,
            variability_sigma=self.variability_sigma,
            row_density=self.row_density,
            column_density=self.column_density,
            bank_density=self.bank_density,
        )


#: Tiny scale for tests.
UNIT = SweepConfig(
    num_codes=2,
    words_per_code=4,
    num_rounds=32,
    error_counts=(2, 4),
    probabilities=(0.5, 1.0),
)

#: Benchmark scale: full parameter grid, reduced Monte-Carlo samples.
BENCH = SweepConfig(num_codes=5, words_per_code=8, num_rounds=128)

#: Single-machine scale (still far below the paper's 14 CPU-years).
FULL = SweepConfig(num_codes=30, words_per_code=40, num_rounds=128)

#: Paper-scale statistical power: 2500 Monte-Carlo words per cell (>2x
#: FULL), enough that every Fig 6-9 curve's 95% binomial half-width
#: drops below one percentage point.  Meant for the distributed
#: backends with a ``--resume`` shard store, not a single process.
PAPER = SweepConfig(num_codes=50, words_per_code=50, num_rounds=128)
