"""Fig 8: bits at risk of indirect errors missed per ECC word vs. rounds.

The per-word count of ground-truth indirect-risk bits not yet identified —
exactly the population the reactive phase must still catch.  HARP-U
identifies (almost) none of them; HARP-A's precomputation removes the ones
caused by data-bit combinations immediately after active profiling;
HARP-A+BEEP additionally provokes the parity-bit-caused ones; Naive and
BEEP erode the count slowly by exploring uncorrectable patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import log_round_ticks, percent, profiler_order
from repro.experiments.runner import SweepResult
from repro.utils.tables import format_series

__all__ = ["Fig8Result", "from_sweep", "render"]

FIG8_PROFILERS = ("Naive", "BEEP", "HARP-U", "HARP-A", "HARP-A+BEEP")


@dataclass(frozen=True)
class Fig8Result:
    """Mean missed-indirect-bit trajectories per sweep cell."""

    error_counts: tuple[int, ...]
    probabilities: tuple[float, ...]
    profilers: tuple[str, ...]
    num_rounds: int
    curves: dict[tuple[int, float, str], tuple[float, ...]]


def from_sweep(sweep: SweepResult, profilers: tuple[str, ...] = FIG8_PROFILERS) -> Fig8Result:
    """Reduce a sweep to the Fig 8 mean-missed curves."""
    config = sweep.config
    selected = tuple(name for name in profilers if name in config.profilers)
    curves: dict[tuple[int, float, str], tuple[float, ...]] = {}
    for error_count in config.error_counts:
        for probability in config.probabilities:
            for name in selected:
                cell = sweep.cell(error_count, probability, name)
                num_rounds = len(cell.words[0].indirect_missed)
                curve = [
                    sum(word.indirect_missed[r] for word in cell.words) / len(cell.words)
                    for r in range(num_rounds)
                ]
                curves[(error_count, probability, name)] = tuple(curve)
    return Fig8Result(
        error_counts=tuple(config.error_counts),
        probabilities=tuple(config.probabilities),
        profilers=selected,
        num_rounds=config.num_rounds,
        curves=curves,
    )


def render(result: Fig8Result) -> str:
    """Text rendition: one panel per error count at each probability."""
    ticks = log_round_ticks(result.num_rounds)
    panels = []
    for error_count in result.error_counts:
        for probability in result.probabilities:
            series = {
                name: [result.curves[(error_count, probability, name)][tick - 1] for tick in ticks]
                for name in profiler_order(result.profilers)
            }
            title = (
                f"Fig 8 panel: {error_count} pre-correction errors, "
                f"per-bit P={percent(probability)} — missed indirect bits per word"
            )
            panels.append(format_series(title, series, x_values=ticks, x_label="round"))
    return "\n\n".join(panels)
