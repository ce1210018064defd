"""Exact ground-truth at-risk-bit computation.

The paper computes "the total number of post-correction errors that are
possible for a given (1) parity-check matrix; (2) set of pre-correction
errors; and (3) set of already-discovered post-correction errors" with the
Z3 SAT solver (its §7.1.2).  For a systematic linear code the underlying
decision problems are linear over GF(2), so this module solves them exactly
with Gaussian elimination instead:

* *Realizability* — can some data pattern charge a given set of cells
  simultaneously?  Data-bit cells are free variables; a parity-bit cell's
  charge is an affine function of the data.  Feasibility of the resulting
  linear system decides the question (the test suite cross-checks this
  with a CNF encoding and a DPLL solver, ``tests/gf2_encoding.py``).
* *Ground truth* — enumerate every nonempty subset of the word's at-risk
  bits (at most ``2^|S|`` with ``|S| <= 8`` in all paper configurations),
  keep the realizable ones, and apply the exact decode semantics of
  :func:`repro.ecc.syndrome.analyze_error_pattern` to map each to its
  post-correction consequences.

Incremental solver contract
===========================

Adaptive profilers (BEEP and hybrids) solve thousands of systems per word
that share one *anchor set* and differ only in a two-position hypothesis
pair.  :class:`ChargeSystem` factors that structure out: it holds the
eliminated (linear-basis) state of a constraint set and extends it with
further constraints via :meth:`ChargeSystem.with_charged` without
re-eliminating what is already reduced.

It is the one solver: :func:`is_charge_realizable`,
:func:`solve_charge_assignment` and the memo's crafted epochs all build
one.  It returns the *canonical minimally-charged* dataword: the
unique solution whose non-pivot (free) variables are all zero, where the
pivot columns are those of the lowest-bit GF(2) linear basis of the
constraint rows.  That pivot-column set depends only on the constraint
*set* — never on insertion order — so

``ChargeSystem(code, A).with_charged(B).solution_int()``

is bit-identical to ``ChargeSystem(code, A | B).solution_int()`` for
every split of the constraints, and cached eliminated states may be
shared freely (``tests/test_charge_system.py`` pins this property over
random SEC codes, against :func:`repro.ecc.gf2.solve` on the explicit
constraint matrix).

Basis representation
====================

The basis rows are Python integers (bit ``i`` = data bit ``i``).  A
CPython integer is already a word-packed bit vector, so for the paper's
``k = 64`` each row is a single machine word with zero numpy overhead:
the fastest representation for the Monte-Carlo hot loop.  (A
``uint64``-word basis gave bit-identical solutions at 0.04x the speed,
so it was removed.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from repro.ecc.linear_code import SystematicCode
from repro.ecc.syndrome import PatternOutcome, analyze_error_pattern
from repro.memory.error_model import WordErrorProfile
from repro.utils.bits import int_to_bits

__all__ = [
    "MAX_AT_RISK_FOR_ENUMERATION",
    "ChargeSystem",
    "is_charge_realizable",
    "solve_charge_assignment",
    "GroundTruth",
    "compute_ground_truth",
    "max_simultaneous_post_errors",
    "predict_indirect_from_direct",
]

#: Enumerating subsets is exponential in the at-risk count; the paper never
#: exceeds 8 and we guard against accidental blow-ups.  Every enumerator
#: and the configs that feed them refuse more.
MAX_AT_RISK_FOR_ENUMERATION = 16


class ChargeSystem:
    """Eliminated state of a charge-constraint system, extensible in place.

    Every constraint is one GF(2) row over the ``k`` data-bit variables:
    a data-position constraint is the singleton row ``{b}``, a
    parity-position constraint is the corresponding row of ``P``; the
    right-hand side is 1, the charge.  Rows are kept as a lowest-bit
    linear basis (each insertion is reduced against the existing pivots),
    so adding a constraint to an already-eliminated system costs one row
    reduction instead of a full re-elimination — the incremental update
    BEEP's crafted rounds rely on.

    Instances are cheap to fork (:meth:`with_charged` copies only the
    basis rows) and safe to cache: extending a fork never mutates its
    base, and the solution is canonical regardless of the order the
    constraints arrived in (see the module docstring).
    """

    __slots__ = ("code", "_basis", "_infeasible")

    def __init__(
        self,
        code: SystematicCode,
        charged_ones: frozenset[int] | set[int] | tuple[int, ...] = (),
    ) -> None:
        self.code = code
        #: (pivot bit, row, rhs) triples — rows never contain an earlier
        #: pivot's bit, so reverse-order back-substitution is valid.
        self._basis: list[tuple[int, int, int]] = []
        self._infeasible = False
        self.constrain(charged_ones)

    def constrain(self, positions) -> None:
        """Require the cells at codeword ``positions`` to hold charge."""
        code = self.code
        k = code.k
        for position in positions:
            if not 0 <= position < code.n:
                raise IndexError(f"position {position} out of range [0, {code.n})")
            if position < k:
                self._insert(1 << position)
            else:
                self._insert(code.parity_row_ints[position - k])

    def _insert(self, row: int) -> None:
        """Reduce one charged-cell row against the basis; extend or refute."""
        if self._infeasible:
            return
        rhs = 1
        for pivot_bit, pivot_row, pivot_rhs in self._basis:
            if row & pivot_bit:
                row ^= pivot_row
                rhs ^= pivot_rhs
        if row == 0:
            if rhs:
                self._infeasible = True
            return
        self._basis.append((row & -row, row, rhs))

    def with_charged(self, positions) -> ChargeSystem:
        """A fork of this system with ``positions`` additionally charged.

        The receiver is not modified; the fork shares no mutable state, so
        one eliminated anchor-set base can serve every hypothesis pair.
        """
        fork = ChargeSystem.__new__(ChargeSystem)
        fork.code = self.code
        fork._basis = list(self._basis)
        fork._infeasible = self._infeasible
        fork.constrain(positions)
        return fork

    def solution_int(self) -> int | None:
        """The canonical minimally-charged dataword as a bitmask, or None.

        Free (non-pivot) data bits are 0; each pivot variable equals its
        row's rhs once later pivots are resolved.
        """
        if self._infeasible:
            return None
        solution = 0
        for pivot_bit, row, rhs in reversed(self._basis):
            if rhs ^ ((row & solution & ~pivot_bit).bit_count() & 1):
                solution |= pivot_bit
        return solution

    def solution(self) -> np.ndarray | None:
        """The canonical solution as a length-``k`` uint8 dataword, or None."""
        solution = self.solution_int()
        if solution is None:
            return None
        return int_to_bits(solution, self.code.k)


def is_charge_realizable(code: SystematicCode, charged_ones: frozenset[int] | set[int]) -> bool:
    """Does some dataword charge (store 1 in) every cell of ``charged_ones``?"""
    k = code.k
    # Data bits are free variables, so any set of them can be charged at once.
    # Any other position, out-of-range ones included, takes the range-checking solver.
    if all(0 <= p < k for p in charged_ones):
        return True
    return ChargeSystem(code, charged_ones).solution_int() is not None


def solve_charge_assignment(
    code: SystematicCode, charged_ones: frozenset[int] | set[int]
) -> np.ndarray | None:
    """One dataword satisfying the charge constraints, or None.

    Free data bits are set to 0, yielding the minimally-charged pattern —
    the property BEEP's crafted patterns rely on (charge only what the test
    targets).
    """
    return ChargeSystem(code, charged_ones).solution()


@dataclass(frozen=True)
class GroundTruth:
    """Exact at-risk characterization of one ECC word.

    Attributes:
        code: the on-die ECC code.
        at_risk: the word's pre-correction at-risk codeword positions.
        realizable_outcomes: outcome of every realizable nonempty error
            pattern (the word's complete post-correction behaviour).
    """

    code: SystematicCode
    at_risk: tuple[int, ...]
    realizable_outcomes: tuple[PatternOutcome, ...]

    @cached_property
    def direct_at_risk(self) -> frozenset[int]:
        """Data positions at risk of direct error: ``S`` ∩ data bits."""
        return frozenset(p for p in self.at_risk if p < self.code.k)

    @cached_property
    def indirect_at_risk(self) -> frozenset[int]:
        """Data positions reachable by a miscorrection of some realizable
        pattern (paper: bits at risk of indirect error)."""
        result: set[int] = set()
        for outcome in self.realizable_outcomes:
            result.update(outcome.indirect_errors)
        return frozenset(result)

    @cached_property
    def post_correction_at_risk(self) -> frozenset[int]:
        """All data positions that can be erroneous after correction."""
        result: set[int] = set()
        for outcome in self.realizable_outcomes:
            result.update(outcome.data_errors)
        return frozenset(result)


def compute_ground_truth(
    code: SystematicCode,
    at_risk: tuple[int, ...] | WordErrorProfile,
) -> GroundTruth:
    """Enumerate all realizable error patterns of a word and their outcomes.

    A pattern is realizable iff some dataword charges (stores 1 in) all its cells.

    Args:
        code: the on-die ECC code.
        at_risk: at-risk codeword positions (or a profile carrying them).
    """
    positions = at_risk.positions if isinstance(at_risk, WordErrorProfile) else tuple(at_risk)
    if len(positions) > MAX_AT_RISK_FOR_ENUMERATION:
        raise ValueError(
            f"{len(positions)} at-risk bits exceeds the enumeration bound "
            f"{MAX_AT_RISK_FOR_ENUMERATION}"
        )
    outcomes: list[PatternOutcome] = []
    for size in range(1, len(positions) + 1):
        for subset in combinations(positions, size):
            pattern = frozenset(subset)
            if is_charge_realizable(code, pattern):
                outcomes.append(analyze_error_pattern(code, pattern))
    return GroundTruth(code=code, at_risk=tuple(positions), realizable_outcomes=tuple(outcomes))


def max_simultaneous_post_errors(
    ground_truth: GroundTruth,
    missed: frozenset[int] | set[int],
) -> int:
    """Worst-case count of simultaneous unrepaired post-correction errors.

    This is the paper's Fig 9 metric: with every profiled bit repaired, the
    secondary ECC must correct up to this many concurrent errors in the
    word.  ``missed`` holds the data positions *not* covered by the repair
    mechanism's profile.
    """
    missed_set = set(missed)
    worst = 0
    for outcome in ground_truth.realizable_outcomes:
        worst = max(worst, len(outcome.data_errors & missed_set))
    return worst


def predict_indirect_from_direct(
    code: SystematicCode,
    direct_bits: frozenset[int] | set[int],
) -> frozenset[int]:
    """HARP-A's precomputation (paper §6.3.1).

    Given the bits at risk of direct error identified by active profiling,
    compute every data position a combination of those bits can miscorrect
    onto.  Patterns confined to data bits are always realizable (data bits
    are free), so no feasibility check is needed.  Parity-bit at-risk
    positions are unknown to HARP-A, so indirect errors caused by patterns
    touching parity bits are *not* predicted — exactly the limitation the
    paper describes.
    """
    direct = sorted(int(b) for b in direct_bits)
    for bit in direct:
        if not 0 <= bit < code.k:
            raise IndexError(f"direct bit {bit} is not a data position")
    predicted: set[int] = set()
    for size in range(2, len(direct) + 1):
        for subset in combinations(direct, size):
            outcome = analyze_error_pattern(code, frozenset(subset))
            predicted.update(outcome.indirect_errors)
    return frozenset(predicted)
