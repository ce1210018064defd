"""Simulated main-memory substrate: cells, arrays, error models, chips."""

from repro.memory.address import AddressMap, LogicalAddress
from repro.memory.array import MemoryArray
from repro.memory.cells import CellOrientation, all_true_cells, alternating_cells
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
    FixedPattern,
    RandomPattern,
    ZeroPattern,
    make_pattern,
)

__all__ = [
    "AddressMap",
    "LogicalAddress",
    "MemoryArray",
    "CellOrientation",
    "all_true_cells",
    "alternating_cells",
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
    "FixedPattern",
    "ZeroPattern",
    "make_pattern",
    "PATTERN_NAMES",
]
