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

Both solve paths return the *canonical minimally-charged* dataword: the
unique solution whose non-pivot (free) variables are all zero, where the
pivot columns are those of the lowest-bit GF(2) linear basis of the
constraint rows.  That pivot-column set depends only on the constraint
*set* — never on insertion order — so

``ChargeSystem(code, A).with_charged(B).solution_int()``

is bit-identical to ``_solve_charge_ints(code, A | B, frozenset())`` for
every split of the constraints, and cached eliminated states may be
shared freely (``tests/test_charge_system.py`` pins this property over
random SEC codes).

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
from repro.memory.cells import CellOrientation
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


def _solve_charge_ints(
    code: SystematicCode,
    charged_ones: frozenset[int] | set[int],
    forced_zeros: frozenset[int] | set[int],
) -> int | None:
    """Integer-bitmask core of the charge-constraint solver.

    With all-true cells, cell ``b`` is charged iff codeword bit ``b`` is 1.
    Data-position constraints pin data bits directly; parity-position
    constraints are XOR rows over the data bits (rows of ``P``).  Forced
    bits are substituted first, then the residual (at most ``p``-row)
    system is eliminated with whole-row integer XOR.

    Returns the dataword as a bitmask (free bits 0), or ``None`` if the
    system is inconsistent.  All arithmetic stays in Python integers —
    this runs inside the Monte-Carlo hot loop.
    """
    k = code.k
    forced_mask = 0  # data bits with a pinned value
    forced_values = 0  # the pinned values
    parity_rows: list[tuple[int, int]] = []  # (row mask over data bits, rhs)
    for target, positions in ((1, charged_ones), (0, forced_zeros)):
        for position in positions:
            if not 0 <= position < code.n:
                raise IndexError(f"position {position} out of range [0, {code.n})")
            if position < k:
                bit = 1 << position
                forced_mask |= bit
                if target:
                    forced_values |= bit
            else:
                parity_rows.append((code.parity_row_ints[position - k], target))
    # Substitute pinned bits into the parity rows.
    reduced: list[tuple[int, int]] = []
    for row, rhs in parity_rows:
        rhs ^= (row & forced_values).bit_count() & 1
        reduced.append((row & ~forced_mask, rhs))
    # Gaussian elimination over the handful of residual rows.
    pivots: list[tuple[int, int, int]] = []  # (pivot bit, row, rhs)
    for row, rhs in reduced:
        for pivot_bit, pivot_row, pivot_rhs in pivots:
            if row & pivot_bit:
                row ^= pivot_row
                rhs ^= pivot_rhs
        if row == 0:
            if rhs:
                return None
            continue
        pivots.append((row & -row, row, rhs))
    solution = forced_values
    # Back-substitute: free variables are 0, so each pivot variable equals
    # its row's rhs once later pivots are resolved.  Process in reverse.
    for pivot_bit, row, rhs in reversed(pivots):
        value = rhs ^ ((row & solution & ~pivot_bit).bit_count() & 1)
        if value:
            solution |= pivot_bit
    return solution


class ChargeSystem:
    """Eliminated state of a charge-constraint system, extensible in place.

    Every constraint is one GF(2) row over the ``k`` data-bit variables:
    a data-position constraint is the singleton row ``{b}``, a
    parity-position constraint is the corresponding row of ``P``; the
    right-hand side is the target charge.  Rows are kept as a lowest-bit
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
        forced_zeros: frozenset[int] | set[int] | tuple[int, ...] = (),
    ) -> None:
        self.code = code
        #: (pivot bit, row, rhs) triples — rows never contain an earlier
        #: pivot's bit, so reverse-order back-substitution is valid.
        self._basis: list[tuple[int, int, int]] = []
        self._infeasible = False
        self.constrain(charged_ones, 1)
        self.constrain(forced_zeros, 0)

    def constrain(self, positions, target: int) -> None:
        """Pin the charge of codeword ``positions`` to ``target`` (0 or 1)."""
        code = self.code
        k = code.k
        for position in positions:
            if not 0 <= position < code.n:
                raise IndexError(f"position {position} out of range [0, {code.n})")
            if position < k:
                self._insert(1 << position, target)
            else:
                self._insert(code.parity_row_ints[position - k], target)

    def _insert(self, row: int, rhs: int) -> None:
        """Reduce one constraint row against the basis; extend or refute."""
        if self._infeasible:
            return
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
        fork.constrain(positions, 1)
        return fork

    def solution_int(self) -> int | None:
        """The canonical minimally-charged dataword as a bitmask, or None.

        Free (non-pivot) data bits are 0; each pivot variable equals its
        row's rhs once later pivots are resolved, exactly as in
        :func:`_solve_charge_ints`.
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


def is_charge_realizable(
    code: SystematicCode,
    charged_ones: frozenset[int] | set[int],
    forced_zeros: frozenset[int] | set[int] = frozenset(),
) -> bool:
    """Does a data pattern exist charging ``charged_ones`` (and discharging
    ``forced_zeros``)?

    Assumes all-true cells, matching the paper's evaluation model.
    """
    if set(charged_ones) & set(forced_zeros):
        return False
    # Fast path: constraints touching only data bits are always satisfiable
    # because systematic data bits are free variables.
    if all(p < code.k for p in charged_ones) and all(p < code.k for p in forced_zeros):
        return True
    return _solve_charge_ints(code, charged_ones, forced_zeros) is not None


def solve_charge_assignment(
    code: SystematicCode,
    charged_ones: frozenset[int] | set[int],
    forced_zeros: frozenset[int] | set[int] = frozenset(),
) -> np.ndarray | None:
    """One dataword satisfying the charge constraints, or None.

    Free data bits are set to 0, yielding the minimally-charged pattern —
    the property BEEP's crafted patterns rely on (charge only what the test
    targets).
    """
    if set(charged_ones) & set(forced_zeros):
        return None
    solution = _solve_charge_ints(code, charged_ones, forced_zeros)
    if solution is None:
        return None
    return int_to_bits(solution, code.k)


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
    orientation: CellOrientation | None = None,
) -> GroundTruth:
    """Enumerate all realizable error patterns of a word and their outcomes.

    Args:
        code: the on-die ECC code.
        at_risk: at-risk codeword positions (or a profile carrying them).
        orientation: cell orientation; ``None`` means all true cells (the
            paper's model).  An error pattern is realizable iff some data
            pattern *charges* every cell in it — logical 1 for true cells,
            logical 0 for anti cells.
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
            if orientation is None:
                realizable = is_charge_realizable(code, pattern)
            else:
                mask = orientation.true_cell_mask
                charged_ones = frozenset(p for p in pattern if mask[p])
                charged_zeros = frozenset(p for p in pattern if not mask[p])
                realizable = is_charge_realizable(code, charged_ones, charged_zeros)
            if not realizable:
                continue
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
    max_pattern_size: int | None = None,
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
    limit = len(direct) if max_pattern_size is None else min(max_pattern_size, len(direct))
    predicted: set[int] = set()
    for size in range(2, limit + 1):
        for subset in combinations(direct, size):
            outcome = analyze_error_pattern(code, frozenset(subset))
            predicted.update(outcome.indirect_errors)
    return frozenset(predicted)
