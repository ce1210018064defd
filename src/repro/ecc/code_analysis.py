"""Structural analysis of linear block codes.

These routines characterize a code the way the paper's §2.5.2 discussion
does: syndrome space coverage and the *miscorrection
profile* — for every uncorrectable pattern weight, how many patterns alias
onto a correctable syndrome and where the resulting indirect errors land
(cf. Pae et al., "Minimal Aliasing Single-Error-Correction Codes", which the
paper cites as [142]).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.ecc.linear_code import SystematicCode
from repro.ecc.syndrome import analyze_error_pattern

__all__ = [
    "aliasing_pairs_for_target",
    "MiscorrectionProfile",
    "miscorrection_profile",
    "syndrome_coverage",
]


def aliasing_pairs_for_target(code: SystematicCode, target: int) -> tuple[tuple[int, int], ...]:
    """Weight-2 pre-correction explanations of an indirect error at ``target``.

    An indirect error at codeword position ``target`` requires an error
    pattern whose syndrome equals ``H[target]``; the weight-2 candidates
    are exactly the pairs ``{a, b}`` with ``H[a] xor H[b] == H[target]``.
    Pure in (parity-check matrix, target) — BEEP's hypothesis expansion
    memoizes it per code through :mod:`repro.analysis.memo`.
    """
    if not 0 <= target < code.n:
        raise IndexError(f"target {target} out of range [0, {code.n})")
    columns = code.column_ints
    index = {value: position for position, value in enumerate(columns)}
    target_column = columns[target]
    pairs: list[tuple[int, int]] = []
    for a in range(code.n):
        partner = index.get(target_column ^ columns[a])
        if partner is not None and partner > a:
            pairs.append((a, partner))
    return tuple(pairs)


@dataclass(frozen=True)
class MiscorrectionProfile:
    """Aliasing statistics for uncorrectable patterns of a fixed weight.

    Attributes:
        pattern_weight: weight of the enumerated pre-correction patterns.
        total_patterns: number of patterns enumerated.
        miscorrecting_patterns: how many of them alias to a correctable
            syndrome (and therefore trigger an indirect error).
        target_counts: for each codeword position, how many patterns
            miscorrect onto it.
    """

    pattern_weight: int
    total_patterns: int
    miscorrecting_patterns: int
    target_counts: tuple[int, ...]

    @property
    def miscorrection_rate(self) -> float:
        if self.total_patterns == 0:
            return 0.0
        return self.miscorrecting_patterns / self.total_patterns


def miscorrection_profile(code: SystematicCode, pattern_weight: int) -> MiscorrectionProfile:
    """Enumerate all patterns of a given weight and tally miscorrections."""
    if pattern_weight < 1:
        raise ValueError("pattern weight must be >= 1")
    target_counts = [0] * code.n
    total = 0
    miscorrecting = 0
    for pattern in combinations(range(code.n), pattern_weight):
        total += 1
        outcome = analyze_error_pattern(code, frozenset(pattern))
        newly_flipped = outcome.flipped - outcome.pre_correction
        if newly_flipped:
            miscorrecting += 1
            for position in newly_flipped:
                target_counts[position] += 1
    return MiscorrectionProfile(
        pattern_weight=pattern_weight,
        total_patterns=total,
        miscorrecting_patterns=miscorrecting,
        target_counts=tuple(target_counts),
    )


def syndrome_coverage(code: SystematicCode) -> tuple[int, int]:
    """(matched, total) nonzero syndromes.

    A (71, 64) SEC code matches 71 of 127 nonzero syndromes; the remaining
    56 are detected-but-uncorrectable.  The gap determines how often an
    uncorrectable pattern aliases versus is detected.
    """
    total = (1 << code.p) - 1
    matched = len({s for s in range(1, 1 << code.p) if code.correction_for_syndrome(s)})
    return matched, total
