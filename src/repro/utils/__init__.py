"""Shared utilities: bit manipulation, RNG plumbing, statistics, tables."""

from repro.utils.bits import (
    bits_to_int,
    int_to_bits,
    invert_bits,
)
from repro.utils.rng import derive_rng, derive_seed
from repro.utils.stats import (
    Histogram,
    SummaryStats,
    empirical_cdf,
    percentile,
    summarize,
)
from repro.utils.tables import format_series, format_table

__all__ = [
    "bits_to_int",
    "int_to_bits",
    "invert_bits",
    "derive_rng",
    "derive_seed",
    "Histogram",
    "SummaryStats",
    "empirical_cdf",
    "percentile",
    "summarize",
    "format_series",
    "format_table",
]
