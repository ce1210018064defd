"""Extension: heterogeneous per-bit error probabilities (paper §3.1).

The paper's main sweep fixes one per-bit probability per configuration,
but notes (citing REAPER [147]) that real retention-error probabilities
are normally distributed across bits.  This extension runs the
direct-coverage comparison with per-bit probabilities drawn from a clipped
normal distribution and verifies HARP's advantage is not an artifact of
probability homogeneity: low-probability bits slow *every* profiler down,
but HARP still needs only each bit to fail once on the bypass path, while
Naive additionally needs co-failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.atrisk import compute_ground_truth
from repro.ecc.hamming import random_sec_code
from repro.experiments.runner import metrics_for_words
from repro.memory.error_model import normal_probability_profile
from repro.profiling.runner import simulate_cell
from repro.utils.rng import derive_rng, derive_seed
from repro.utils.tables import format_table

__all__ = ["HeterogeneousResult", "run", "render"]


@dataclass(frozen=True)
class HeterogeneousResult:
    """Pooled direct coverage per profiler under normal per-bit p."""

    mean: float
    std: float
    num_rounds: int
    num_words: int
    #: profiler -> (final pooled coverage, mean first-direct round)
    rows: dict[str, tuple[float, float]]


def run(
    mean: float = 0.4,
    std: float = 0.25,
    at_risk_per_word: int = 4,
    num_codes: int = 3,
    words_per_code: int = 6,
    num_rounds: int = 64,
    profilers: tuple[str, ...] = ("Naive", "BEEP", "HARP-U"),
    seed: int = 2021,
) -> HeterogeneousResult:
    """Run the comparison with clipped-normal per-bit probabilities."""
    codes, profiles, truths, seeds = [], [], [], []
    for code_index in range(num_codes):
        code = random_sec_code(64, derive_rng(seed, "het-code", code_index))
        for word_index in range(words_per_code):
            word_rng = derive_rng(seed, "het-word", code_index, word_index)
            profile = normal_probability_profile(
                code, at_risk_per_word, mean, std, word_rng
            )
            codes.append(code)
            profiles.append(profile)
            truths.append(compute_ground_truth(code, profile))
            seeds.append(derive_seed(seed, "het-draws", code_index, word_index))
    runs = simulate_cell(profilers, codes, profiles, seeds, num_rounds)
    rows: dict[str, tuple[float, float]] = {}
    for name in profilers:
        metrics = metrics_for_words(runs[name], truths, num_rounds)
        identified = sum(word.direct_identified[-1] for word in metrics)
        total = sum(word.direct_total for word in metrics)
        first_rounds = [word.first_direct_round for word in metrics]
        rows[name] = (
            identified / total if total else 1.0,
            sum(first_rounds) / len(first_rounds),
        )
    return HeterogeneousResult(
        mean=mean,
        std=std,
        num_rounds=num_rounds,
        num_words=len(codes),
        rows=rows,
    )


def render(result: HeterogeneousResult) -> str:
    headers = ["profiler", "final direct coverage", "mean first-direct round"]
    body = [
        [name, f"{coverage:.3f}", f"{first:.1f}"]
        for name, (coverage, first) in result.rows.items()
    ]
    return (
        f"Heterogeneous-probability extension: p ~ N({result.mean}, {result.std}^2) "
        f"clipped to [0,1], {result.num_words} words, {result.num_rounds} rounds\n"
        + format_table(headers, body)
    )
