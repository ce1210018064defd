"""Black-box on-die ECC reverse engineering (BEER-lite).

HARP-A needs the on-die ECC parity-check matrix, which the paper obtains
via manufacturer support or the BEER methodology [145]: induce known
pre-correction error patterns through data-retention testing and infer the
code from the miscorrections it produces.  This module implements the
inference core for systematic SEC codes.

Every *positive* observation is linear in the unknown data columns
``x_0..x_{k-1}`` (each a ``p``-bit vector; parity columns are the known
unit vectors under the systematic layout):

* pair ``{i, j}`` of data bits miscorrecting onto data bit ``m``:
  ``x_i + x_j + x_m = 0``;
* pair ``{i, j}`` miscorrecting onto parity bit ``q``:
  ``x_i + x_j = e_q`` — these inhomogeneous constraints anchor the
  otherwise scale-free homogeneous system;
* pair ``{i, parity q}`` miscorrecting onto data ``m``:
  ``x_i + x_m = e_q``;
* pair ``{i, parity q}`` miscorrecting onto parity ``q'``:
  ``x_i = e_q + e_q'``.

Detected-but-uncorrectable outcomes are *disequalities* (the syndrome
matches no column) and are not used.  The constraints decompose per bit
plane: one shared coefficient matrix over the ``k`` unknowns with a
different right-hand side per plane, all solved by one Gaussian
elimination.  Recovery is exact and certified: the solver reports
success only when the system pins every column uniquely (full rank).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.ecc import gf2
from repro.ecc.linear_code import SystematicCode
from repro.ecc.syndrome import analyze_error_pattern

__all__ = ["Observation", "EccReverseEngineer", "simulate_injection", "reverse_engineer"]

#: An injector maps a pre-correction error pattern (codeword positions) to
#: the post-correction *data* errors the controller observes.  In a real
#: BEER campaign this is a data-retention test at a crafted pattern; in
#: simulation it is the exact decode semantics.
Injector = Callable[[frozenset[int]], frozenset[int]]


@dataclass(frozen=True)
class Observation:
    """One (injected pattern, observed post-correction data errors) pair."""

    injected: frozenset[int]
    observed: frozenset[int]


class EccReverseEngineer:
    """Accumulates observations and solves for the parity submatrix.

    Args:
        k: number of data bits.
        p: number of parity bits (known from the chip geometry: ``n - k``).
    """

    def __init__(self, k: int, p: int) -> None:
        if k < 1 or p < 1:
            raise ValueError("k and p must be positive")
        self.k = k
        self.p = p
        self._rows: list[np.ndarray] = []
        #: per-constraint RHS as a p-bit mask (bit t = plane t's RHS)
        self._rhs: list[int] = []

    # ------------------------------------------------------------------
    # Constraint extraction
    # ------------------------------------------------------------------

    def _add_constraint(self, data_positions: Iterable[int], rhs_mask: int) -> None:
        row = np.zeros(self.k, dtype=np.uint8)
        for position in data_positions:
            row[position] ^= 1
        self._rows.append(row)
        self._rhs.append(rhs_mask)

    def add_observation(self, observation: Observation) -> bool:
        """Ingest one injection result; returns True if it yielded a
        usable linear constraint.

        Only weight-2 injections whose outcome is a miscorrection are
        informative for the linear system; everything else is skipped.
        """
        injected = observation.injected
        if len(injected) != 2:
            return False
        # A miscorrection adds exactly one new data error beyond the
        # injected data positions; reconstruct the flip target.
        injected_data = {b for b in injected if b < self.k}
        extra = observation.observed - injected_data
        missing = injected_data - observation.observed
        if len(extra) == 1 and not missing:
            # Decoder flipped a third *data* position m.
            target = next(iter(extra))
            terms = list(injected_data) + [target]
            rhs = 0
        elif not extra and len(missing) == 1 and len(injected_data) == 2:
            # Decoder flipped one of the injected data bits' partners in
            # parity space?  Impossible for SEC (columns distinct); skip.
            return False
        elif not extra and not missing and injected_data != injected:
            # Injected a parity bit whose pattern miscorrected onto parity:
            # invisible from data alone; skip.
            return False
        elif not extra and not missing and len(injected_data) == 2:
            # Both injected data errors visible, no third: the pattern was
            # detected-uncorrectable OR miscorrected onto a parity bit q.
            # Distinguishing them needs the syndrome, which the controller
            # cannot see — skip (conservative).
            return False
        else:
            return False
        parity_terms = [b - self.k for b in injected if b >= self.k]
        rhs_mask = rhs
        for q in parity_terms:
            rhs_mask ^= 1 << q
        self._add_constraint([t for t in terms if t < self.k], rhs_mask)
        return True

    def add_parity_probe(self, data_bit: int, parity_bit: int, observed: frozenset[int]) -> bool:
        """Ingest a {data_bit, parity cell} pair injection.

        If the pair miscorrects onto data position ``m``:
        ``x_i + x_m = e_q``; onto nothing visible beyond ``i``: skipped.
        """
        if not 0 <= data_bit < self.k:
            raise IndexError("data_bit out of range")
        if not 0 <= parity_bit < self.p:
            raise IndexError("parity_bit out of range")
        extra = observed - {data_bit}
        if len(extra) == 1 and data_bit in observed:
            target = next(iter(extra))
            self._add_constraint([data_bit, target], 1 << parity_bit)
            return True
        if not extra and not observed:
            # Fully corrected: cannot happen for a genuine double error.
            return False
        return False

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(self) -> SystematicCode | None:
        """Solve for the code; ``None`` until the system pins it uniquely.

        The constraint planes share one coefficient matrix, so one
        elimination of ``[A | planes]`` solves all ``p`` right-hand sides.
        The code is pinned iff the pivots are exactly the ``k`` unknowns:
        fewer means underdetermined, and a pivot in a plane column means
        that plane is inconsistent (a noisy injector).  Plane ``t``'s
        solution is then column ``k + t`` of the reduced rows.
        """
        if not self._rows:
            return None
        rhs_planes = (
            (np.asarray(self._rhs, dtype=np.int64)[:, None] >> np.arange(self.p)) & 1
        ).astype(np.uint8)
        reduced, pivots = gf2.row_reduce(np.concatenate([np.stack(self._rows), rhs_planes], axis=1))
        if pivots != list(range(self.k)):
            return None
        parity = np.ascontiguousarray(reduced[: self.k, self.k :].T)
        try:
            return SystematicCode(parity, correction_capability=1, name="reverse-engineered")
        except ValueError:
            return None


def simulate_injection(code: SystematicCode) -> Injector:
    """White-box injector backed by the exact decode semantics.

    Stands in for a physical data-retention campaign: BEER plants the
    pattern by charging exactly the targeted cells and waiting out the
    refresh window (paper [145]); here the decode outcome is computed
    directly.
    """

    def inject(pattern: frozenset[int]) -> frozenset[int]:
        return analyze_error_pattern(code, pattern).data_errors

    return inject


def reverse_engineer(
    injector: Injector,
    k: int,
    p: int,
    rng: np.random.Generator,
    max_injections: int = 4096,
) -> SystematicCode | None:
    """Drive injections until the code is uniquely determined.

    Strategy: probe every {data bit, first parity cells} pair to anchor
    the system, then random data pairs until full rank.  Returns ``None``
    if the budget runs out first.
    """
    engineer = EccReverseEngineer(k, p)
    injections = 0
    # Phase 1: anchoring probes against each parity cell.
    for data_bit in range(k):
        for parity_bit in range(p):
            if injections >= max_injections:
                return engineer.solve()
            observed = injector(frozenset({data_bit, k + parity_bit}))
            injections += 1
            engineer.add_parity_probe(data_bit, parity_bit, observed)
        code = engineer.solve()
        if code is not None:
            return code
    # Phase 2: random data pairs.
    while injections < max_injections:
        i, j = rng.choice(k, size=2, replace=False)
        observed = injector(frozenset({int(i), int(j)}))
        injections += 1
        engineer.add_observation(Observation(frozenset({int(i), int(j)}), observed))
        if injections % 16 == 0:
            code = engineer.solve()
            if code is not None:
                return code
    return engineer.solve()
