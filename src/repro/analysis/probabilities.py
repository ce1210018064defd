"""Exact per-bit post-correction error probabilities (paper §3, Fig 4).

Given a word's at-risk profile and a concrete stored data pattern, the
probability that data bit ``i`` is erroneous after on-die ECC correction is

    P(E_i) = sum over subsets T of the *charged* at-risk bits
             P(exactly T fails) * [i in E(T)]

where ``E(T)`` is the exact post-correction error set of pattern ``T``.
With at most 8 at-risk bits per word this enumerates exactly — no
Monte-Carlo noise — which is how the library computes both the Fig 4
distributions and the Fig 10 bit error rates.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.analysis.atrisk import MAX_AT_RISK_FOR_ENUMERATION
from repro.ecc.linear_code import SystematicCode
from repro.ecc.syndrome import analyze_error_pattern
from repro.memory.error_model import WordErrorProfile

__all__ = [
    "charged_at_risk_bits",
    "per_bit_post_error_probabilities",
    "expected_unrepaired_ber",
    "expected_residual_ber_after_secondary",
    "WordBerAnalyzer",
]


def charged_at_risk_bits(
    code: SystematicCode,
    profile: WordErrorProfile,
    data: np.ndarray,
) -> list[tuple[int, float]]:
    """(position, probability) pairs for at-risk cells that hold charge.

    Only charged cells can fail under the retention model, so these are the
    bits that participate in this data pattern's error process.
    """
    codeword = code.encode(np.asarray(data, dtype=np.uint8))
    return [
        (position, probability)
        for position, probability in zip(profile.positions, profile.probabilities)
        if codeword[position]
    ]


def _pattern_probabilities(
    charged: list[tuple[int, float]],
) -> list[tuple[frozenset[int], float]]:
    """Probability of each exact failure subset of the charged at-risk bits."""
    positions = [p for p, _ in charged]
    probabilities = [q for _, q in charged]
    results: list[tuple[frozenset[int], float]] = []
    count = len(positions)
    if count > MAX_AT_RISK_FOR_ENUMERATION:
        raise ValueError(
            f"{count} charged at-risk bits exceeds the enumeration bound "
            f"{MAX_AT_RISK_FOR_ENUMERATION}"
        )
    for size in range(0, count + 1):
        for index_subset in combinations(range(count), size):
            probability = 1.0
            chosen = set(index_subset)
            for index in range(count):
                probability *= probabilities[index] if index in chosen else 1.0 - probabilities[index]
            if probability > 0.0:
                results.append((frozenset(positions[i] for i in index_subset), probability))
    return results


def per_bit_post_error_probabilities(
    code: SystematicCode,
    profile: WordErrorProfile,
    data: np.ndarray,
) -> dict[int, float]:
    """Exact P(post-correction error) for every data position with P > 0."""
    charged = charged_at_risk_bits(code, profile, data)
    result: dict[int, float] = {}
    for pattern, probability in _pattern_probabilities(charged):
        if not pattern:
            continue
        outcome = analyze_error_pattern(code, pattern)
        for position in outcome.data_errors:
            result[position] = result.get(position, 0.0) + probability
    return result


def expected_unrepaired_ber(
    code: SystematicCode,
    profile: WordErrorProfile,
    data: np.ndarray,
    repaired: frozenset[int] | set[int],
) -> float:
    """Expected fraction of this word's data bits in error after repair.

    The ideal repair mechanism masks every profiled (repaired) bit, so only
    errors at *unrepaired* positions contribute (paper Fig 10, left).
    """
    probabilities = per_bit_post_error_probabilities(code, profile, data)
    repaired_set = set(repaired)
    total = sum(q for position, q in probabilities.items() if position not in repaired_set)
    return total / code.k


def expected_residual_ber_after_secondary(
    code: SystematicCode,
    profile: WordErrorProfile,
    data: np.ndarray,
    repaired: frozenset[int] | set[int],
    secondary_capability: int = 1,
) -> float:
    """Expected data BER after repair *and* the secondary ECC (Fig 10, right).

    For each failure pattern, the unrepaired post-correction errors form the
    word the secondary ECC sees.  If their count is within the secondary
    correction capability they are corrected (and reactively profiled);
    otherwise they escape.  Escaped errors are counted without modelling
    secondary-ECC miscorrections, a conservative lower bound the paper's
    qualitative claims do not depend on.
    """
    charged = charged_at_risk_bits(code, profile, data)
    repaired_set = set(repaired)
    expected_errors = 0.0
    for pattern, probability in _pattern_probabilities(charged):
        if not pattern:
            continue
        outcome = analyze_error_pattern(code, pattern)
        unrepaired = outcome.data_errors - repaired_set
        if len(unrepaired) > secondary_capability:
            expected_errors += probability * len(unrepaired)
    return expected_errors / code.k


class WordBerAnalyzer:
    """Cached expected-BER evaluator for one (word, data pattern) pair.

    The Fig 10 case study evaluates the word's BER at every round where the
    repair profile grows; precomputing the (probability, post-correction
    error set) table once makes each evaluation a handful of set
    operations.
    """

    def __init__(
        self,
        code: SystematicCode,
        profile: WordErrorProfile,
        data: np.ndarray,
    ) -> None:
        self.code = code
        charged = charged_at_risk_bits(code, profile, data)
        self._outcomes: list[tuple[float, frozenset[int]]] = []
        for pattern, probability in _pattern_probabilities(charged):
            if not pattern:
                continue
            outcome = analyze_error_pattern(code, pattern)
            if outcome.data_errors:
                self._outcomes.append((probability, outcome.data_errors))

    def unrepaired_ber(self, repaired: frozenset[int] | set[int]) -> float:
        """Expected data BER with the given bits repaired (Fig 10, left)."""
        repaired_set = set(repaired)
        total = 0.0
        for probability, data_errors in self._outcomes:
            total += probability * len(data_errors - repaired_set)
        return total / self.code.k

    def residual_ber_after_secondary(
        self,
        repaired: frozenset[int] | set[int],
        secondary_capability: int = 1,
    ) -> float:
        """Expected data BER after repair plus secondary ECC (Fig 10, right)."""
        repaired_set = set(repaired)
        total = 0.0
        for probability, data_errors in self._outcomes:
            unrepaired = data_errors - repaired_set
            if len(unrepaired) > secondary_capability:
                total += probability * len(unrepaired)
        return total / self.code.k
