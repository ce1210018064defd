"""Exact analysis of on-die ECC behaviour: at-risk sets, probabilities."""

from repro.analysis.atrisk import (
    ChargeSystem,
    GroundTruth,
    compute_ground_truth,
    is_charge_realizable,
    max_simultaneous_post_errors,
    predict_indirect_from_direct,
    solve_charge_assignment,
)
from repro.analysis.memo import (
    CacheStats,
    beep_expansion_cache,
    cached_aliasing_pairs,
    cached_ground_truth,
    cached_predict_indirect,
    clear_analysis_caches,
    crafted_pattern_cache,
    ground_truth_cache,
    indirect_prediction_cache,
)
from repro.analysis.combinatorics import (
    AmplificationRow,
    amplification_row,
    empirical_amplification,
)
from repro.analysis.probabilities import (
    WordBerAnalyzer,
    charged_at_risk_bits,
    expected_residual_ber_after_secondary,
    expected_unrepaired_ber,
    per_bit_post_error_probabilities,
)

__all__ = [
    "ChargeSystem",
    "GroundTruth",
    "compute_ground_truth",
    "is_charge_realizable",
    "solve_charge_assignment",
    "max_simultaneous_post_errors",
    "predict_indirect_from_direct",
    "CacheStats",
    "cached_aliasing_pairs",
    "cached_ground_truth",
    "cached_predict_indirect",
    "clear_analysis_caches",
    "beep_expansion_cache",
    "crafted_pattern_cache",
    "ground_truth_cache",
    "indirect_prediction_cache",
    "AmplificationRow",
    "amplification_row",
    "empirical_amplification",
    "WordBerAnalyzer",
    "charged_at_risk_bits",
    "per_bit_post_error_probabilities",
    "expected_unrepaired_ber",
    "expected_residual_ber_after_secondary",
]
