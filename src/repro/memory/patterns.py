"""Memory test data patterns (paper §7.1.2).

The paper evaluates three patterns written by the profiler each round:

* ``random`` — a uniform-random dataword, inverted every other round, with a
  fresh base pattern every two rounds (so each base and its inverse are both
  tested before moving on);
* ``charged`` (0xFF) — all ones, the worst case for true cells;
* ``checkered`` (0xAA) — alternating bits, inverted every round.

A pattern is a pure function of ``(round_index, k)`` plus a seed, so any
round's pattern can be queried out of order (the vectorized Monte-Carlo
runner materializes all rounds at once).

The random pattern's base for block ``b`` (rounds ``2b`` and ``2b + 1``)
is ``derive_rng(seed, "random-pattern", b).integers(0, 2, k, uint8)``.
:meth:`RandomPattern.data_for_round` draws it that way, one Generator
per call — the per-round reference.  :func:`random_rounds` builds whole
schedules for many seeds at once: one
:func:`~repro.utils.rng.random_bits` pass over every (seed, block) pair
reproduces those draws bit for bit without building a Generator, and
the simulation entry point draws every random-pattern word of a call
through it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.utils.bits import invert_bits
from repro.utils.rng import derive_rng, derive_seeds, random_bits

__all__ = [
    "DataPattern",
    "ChargedPattern",
    "CheckeredPattern",
    "RandomPattern",
    "random_rounds",
    "make_pattern",
    "PATTERN_NAMES",
]


class DataPattern(ABC):
    """A deterministic per-round dataword schedule."""

    name: str = "abstract"

    @abstractmethod
    def data_for_round(self, round_index: int, k: int) -> np.ndarray:
        """The ``(k,)`` dataword the profiler writes in the given round."""

    def rounds(self, num_rounds: int, k: int) -> np.ndarray:
        """Materialize all rounds at once as a ``(num_rounds, k)`` array."""
        rows = [self.data_for_round(r, k) for r in range(num_rounds)]
        return np.stack(rows) if rows else np.zeros((0, k), dtype=np.uint8)


class ChargedPattern(DataPattern):
    """All ones every round (0xFF): every true cell holds charge."""

    name = "charged"

    def data_for_round(self, round_index: int, k: int) -> np.ndarray:
        return np.ones(k, dtype=np.uint8)


class CheckeredPattern(DataPattern):
    """Alternating 0/1 bits (0xAA), inverted on odd rounds."""

    name = "checkered"

    def data_for_round(self, round_index: int, k: int) -> np.ndarray:
        base = (np.arange(k) % 2).astype(np.uint8)
        return invert_bits(base) if round_index % 2 else base


class RandomPattern(DataPattern):
    """Fresh uniform-random base every two rounds; odd rounds invert.

    This is the paper's default pattern ("performs on par or better than the
    static charged and checkered patterns", §7.1.2).
    """

    name = "random"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def data_for_round(self, round_index: int, k: int) -> np.ndarray:
        block = round_index // 2
        rng = derive_rng(self.seed, "random-pattern", block)
        base = rng.integers(0, 2, size=k, dtype=np.uint8)
        return invert_bits(base) if round_index % 2 else base

    def rounds(self, num_rounds: int, k: int) -> np.ndarray:
        """All rounds at once: :func:`random_rounds` for this one seed."""
        return random_rounds([self.seed], num_rounds, k)[0]


def random_rounds(seeds: Sequence[int], num_rounds: int, k: int) -> np.ndarray:
    """Every seed's random-pattern schedule, shape ``(len(seeds), num_rounds, k)``.

    Row ``i`` equals ``RandomPattern(seeds[i])``'s per-round draws: base
    ``b`` comes from block seed ``derive_seed(seed, "random-pattern", b)``
    and fills round ``2b``, its inverse round ``2b + 1``.  Each seed's
    key prefix is hashed once for all its blocks
    (:func:`~repro.utils.rng.derive_seeds`), and all the bases are drawn
    in one :func:`~repro.utils.rng.random_bits` pass, so a caller gains
    most by passing every seed it needs in one call.
    """
    blocks = (num_rounds + 1) // 2
    block_seeds = derive_seeds(
        [(seed, "random-pattern") for seed in seeds], [(block,) for block in range(blocks)]
    )
    bases = random_bits(block_seeds, k).reshape(len(seeds), blocks, k)
    out = np.empty((len(seeds), num_rounds, k), dtype=np.uint8)
    out[:, 0::2] = bases
    out[:, 1::2] = bases[:, : num_rounds // 2] ^ np.uint8(1)
    return out


PATTERN_NAMES = ("random", "charged", "checkered")


def make_pattern(name: str, seed: int = 0) -> DataPattern:
    """Factory over the pattern registry used by experiment configs."""
    if name == "random":
        return RandomPattern(seed)
    if name == "charged":
        return ChargedPattern()
    if name == "checkered":
        return CheckeredPattern()
    raise ValueError(f"unknown data pattern {name!r}; expected one of {PATTERN_NAMES}")
