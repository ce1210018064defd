"""A small, correct DPLL SAT solver (a test oracle).

Implements the classic Davis-Putnam-Logemann-Loveland procedure with unit
propagation and a most-frequent-literal branching heuristic.  It is the
repository's stand-in for Z3 (see DESIGN.md §3): the queries the paper
poses to Z3 are small (tens of variables), so a simple solver decides them
instantly, and its independence from the GF(2) fast path makes it a useful
cross-check in the property-based tests.
"""

from __future__ import annotations

from collections import Counter

from cnf import Cnf

__all__ = ["solve", "is_satisfiable"]


def _propagate(
    clauses: list[tuple[int, ...]],
    assignment: dict[int, bool],
) -> tuple[list[tuple[int, ...]], dict[int, bool]] | None:
    """Unit-propagate to fixpoint.  Returns (simplified, assignment) or None
    on conflict.  Inputs are not mutated."""
    work = list(clauses)
    current = dict(assignment)
    changed = True
    while changed:
        changed = False
        simplified: list[tuple[int, ...]] = []
        for clause in work:
            satisfied = False
            remaining: list[int] = []
            for literal in clause:
                variable = abs(literal)
                if variable in current:
                    if current[variable] == (literal > 0):
                        satisfied = True
                        break
                else:
                    remaining.append(literal)
            if satisfied:
                continue
            if not remaining:
                return None  # conflict: clause falsified
            if len(remaining) == 1:
                unit = remaining[0]
                current[abs(unit)] = unit > 0
                changed = True
            else:
                simplified.append(tuple(remaining))
        work = simplified
    return work, current


def _branch_literal(clauses: list[tuple[int, ...]]) -> int:
    """Pick the literal occurring most often (ties broken by value)."""
    counts: Counter[int] = Counter()
    for clause in clauses:
        counts.update(clause)
    literal, _ = max(counts.items(), key=lambda item: (item[1], -abs(item[0])))
    return literal


def _search(clauses: list[tuple[int, ...]], assignment: dict[int, bool]) -> dict[int, bool] | None:
    propagated = _propagate(clauses, assignment)
    if propagated is None:
        return None
    remaining, current = propagated
    if not remaining:
        return current
    literal = _branch_literal(remaining)
    for polarity in (literal > 0, literal <= 0):
        trial = dict(current)
        trial[abs(literal)] = polarity
        result = _search(remaining, trial)
        if result is not None:
            return result
    return None


def solve(cnf: Cnf) -> dict[int, bool] | None:
    """Satisfying assignment mapping every variable to a bool, or None.

    Variables unconstrained by the formula default to False.
    """
    if any(len(clause) == 0 for clause in cnf.clauses):
        return None
    result = _search(list(cnf.clauses), {})
    if result is None:
        return None
    for variable in range(1, cnf.num_variables + 1):
        result.setdefault(variable, False)
    return result


def is_satisfiable(cnf: Cnf) -> bool:
    """Decision form of :func:`solve`."""
    return solve(cnf) is not None
