"""Error-correcting code substrate: GF(2) algebra, Hamming and BCH codes.

This package implements the paper's on-die ECC model (§2.5): systematic
linear block codes with bounded-distance syndrome decoding, plus the exact
error-pattern semantics used throughout the analysis layer.
"""

from repro.ecc.bch import bch_dec_code
from repro.ecc.hamming import (
    canonical_sec_code,
    minimal_aliasing_code,
    paper_example_code,
    parity_bits_for,
    random_sec_code,
)
from repro.ecc.linear_code import DecodeResult, SystematicCode
from repro.ecc.reverse_engineering import (
    EccReverseEngineer,
    Observation,
    reverse_engineer,
    simulate_injection,
)
from repro.ecc.syndrome import (
    DecodeOutcomeKind,
    PatternOutcome,
    analyze_error_pattern,
    syndrome_of_pattern,
)

__all__ = [
    "SystematicCode",
    "DecodeResult",
    "random_sec_code",
    "canonical_sec_code",
    "paper_example_code",
    "minimal_aliasing_code",
    "parity_bits_for",
    "bch_dec_code",
    "DecodeOutcomeKind",
    "PatternOutcome",
    "analyze_error_pattern",
    "syndrome_of_pattern",
    "EccReverseEngineer",
    "Observation",
    "reverse_engineer",
    "simulate_injection",
]
