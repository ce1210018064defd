"""Simulated main-memory substrate: arrays, error models, patterns, faults, chips."""

from repro.memory.array import MemoryArray
from repro.memory.chip import OnDieEccChip, ReadOutcome
from repro.memory.faults import (
    FAULT_MODES,
    FIELD_DDR4,
    ChipFaults,
    ChipGeometry,
    FaultMixModel,
    sample_chip_faults,
)
from repro.memory.error_model import (
    RetentionErrorModel,
    WordErrorProfile,
    normal_probability_profile,
    sample_word_profile,
)
from repro.memory.patterns import (
    PATTERN_NAMES,
    ChargedPattern,
    CheckeredPattern,
    DataPattern,
    RandomPattern,
    make_pattern,
)

__all__ = [
    "MemoryArray",
    "OnDieEccChip",
    "ReadOutcome",
    "FAULT_MODES",
    "FIELD_DDR4",
    "ChipFaults",
    "ChipGeometry",
    "FaultMixModel",
    "sample_chip_faults",
    "RetentionErrorModel",
    "WordErrorProfile",
    "normal_probability_profile",
    "sample_word_profile",
    "DataPattern",
    "ChargedPattern",
    "CheckeredPattern",
    "RandomPattern",
    "make_pattern",
    "PATTERN_NAMES",
]
