"""Pre-correction error model (paper §2.4, §3.1).

Errors are modelled as the paper specifies:

1. **Bernoulli process** — each access, an at-risk bit fails independently
   of history;
2. **Isolated** — independent of errors in other bits;
3. **Data-dependent** — a (true) cell can only fail while it holds charge.

Each simulated ECC word carries a :class:`WordErrorProfile`: the set of
codeword positions at risk of pre-correction error and their per-bit failure
probabilities.  The paper's main sweep fixes the per-bit probability to one
of {0.25, 0.5, 0.75, 1.0} and the at-risk count to 2..5 per word; the
REAPER-style normal distribution of per-bit probabilities is provided as an
extension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc.linear_code import SystematicCode

__all__ = [
    "WordErrorProfile",
    "check_profile_positions",
    "sample_word_profile",
    "normal_probability_profile",
    "RetentionErrorModel",
]


@dataclass(frozen=True)
class WordErrorProfile:
    """At-risk codeword positions of one ECC word and their probabilities.

    Attributes:
        positions: sorted codeword positions at risk of pre-correction error.
        probabilities: per-position Bernoulli failure probability (while the
            cell is charged), aligned with ``positions``.
    """

    positions: tuple[int, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.positions) != len(self.probabilities):
            raise ValueError("positions and probabilities must have equal length")
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError("positions must be sorted and unique")
        for probability in self.probabilities:
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"probability {probability} outside [0, 1]")

    @property
    def count(self) -> int:
        return len(self.positions)



def check_profile_positions(profile: WordErrorProfile, n: int) -> None:
    """Validate that every at-risk position lies inside ``[0, n)``.

    Both simulation engines (the per-word runner and the batch injection
    engine) fancy-index codeword arrays with ``profile.positions``; a
    negative position would silently wrap around and an overlarge one
    would raise a cryptic downstream IndexError.  This is the single
    shared bounds check, raising one uniform message.
    """
    # Positions are sorted and unique (enforced by WordErrorProfile), so
    # checking the two ends covers every entry.
    if profile.positions and not (0 <= profile.positions[0] and profile.positions[-1] < n):
        bad = next(p for p in profile.positions if not 0 <= p < n)
        raise IndexError(f"profile position {bad} out of codeword range [0, {n})")


def sample_word_profile(
    code: SystematicCode,
    count: int,
    probability: float,
    rng: np.random.Generator,
) -> WordErrorProfile:
    """Sample ``count`` uniform-random at-risk positions over the codeword.

    This is the paper's main methodology: a fixed number of pre-correction
    at-risk bits per ECC word, placed anywhere in the codeword (data or
    parity), each failing with the same per-bit probability.
    """
    if count > code.n:
        raise ValueError(f"cannot place {count} at-risk bits in a {code.n}-bit codeword")
    positions = sorted(int(p) for p in rng.choice(code.n, size=count, replace=False))
    return WordErrorProfile(tuple(positions), tuple(probability for _ in positions))


def normal_probability_profile(
    code: SystematicCode,
    count: int,
    mean: float,
    std: float,
    rng: np.random.Generator,
) -> WordErrorProfile:
    """REAPER-style profile: per-bit probabilities ~ N(mean, std), clipped.

    Prior work [147] observes normally-distributed per-bit retention error
    probabilities; this extension exercises heterogeneous-probability
    handling in the profilers.
    """
    positions = sorted(int(p) for p in rng.choice(code.n, size=count, replace=False))
    probabilities = np.clip(rng.normal(mean, std, size=count), 0.0, 1.0)
    return WordErrorProfile(tuple(positions), tuple(float(q) for q in probabilities))


class RetentionErrorModel:
    """Samples pre-correction error patterns for stored codewords.

    Every cell is a true cell, as the paper assumes (§7.1.2): it holds
    charge, and so can fail, exactly when it stores 1.
    """

    def vulnerable_mask(self, codeword: np.ndarray, profile: WordErrorProfile) -> np.ndarray:
        """Which at-risk positions can fail for the stored codeword.

        Returns a boolean array aligned with ``profile.positions``: True
        where the at-risk cell currently holds charge.  Accepts ``(n,)`` or
        ``(batch, n)`` codewords; the result has a matching leading axis.
        """
        arr = np.asarray(codeword, dtype=np.uint8)
        index = np.asarray(profile.positions, dtype=np.intp)
        return arr[..., index].astype(bool)

    def sample_failures(
        self,
        codeword: np.ndarray,
        profile: WordErrorProfile,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample which at-risk positions fail.

        Returns a boolean array aligned with ``profile.positions`` (with a
        leading batch axis if ``codeword`` has one).  A position fails iff
        it is charged and its Bernoulli draw comes up.
        """
        vulnerable = self.vulnerable_mask(codeword, profile)
        probabilities = np.asarray(profile.probabilities, dtype=float)
        draws = rng.random(vulnerable.shape) < probabilities
        return vulnerable & draws

    def corrupt(
        self,
        codeword: np.ndarray,
        profile: WordErrorProfile,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply sampled failures to codeword(s).

        Returns ``(corrupted_codewords, failure_mask)`` where the mask is
        aligned with ``profile.positions``.
        """
        arr = np.asarray(codeword, dtype=np.uint8)
        failures = self.sample_failures(arr, profile, rng)
        corrupted = arr.copy()
        if profile.count:
            index = np.asarray(profile.positions, dtype=np.intp)
            flips = np.zeros(arr.shape, dtype=np.uint8)
            flips[..., index] = failures.astype(np.uint8)
            corrupted ^= flips
        return corrupted, failures
