"""CNF formula representation for the mini SAT solver (a test oracle).

Variables are positive integers; a literal is a nonzero integer whose sign
is the polarity (DIMACS convention).  A clause is a tuple of literals; a
formula is a list of clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Cnf"]


@dataclass
class Cnf:
    """A CNF formula builder.

    >>> cnf = Cnf()
    >>> x, y = cnf.new_variable(), cnf.new_variable()
    >>> cnf.add_clause([x, -y])
    >>> cnf.num_variables, len(cnf.clauses)
    (2, 1)
    """

    num_variables: int = 0
    clauses: list[tuple[int, ...]] = field(default_factory=list)

    def new_variable(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self.num_variables += 1
        return self.num_variables

    def new_variables(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_variable() for _ in range(count)]

    def add_clause(self, literals: list[int] | tuple[int, ...]) -> None:
        """Add a disjunction of literals; registers unseen variables."""
        clause = tuple(int(lit) for lit in literals)
        if not clause:
            # An empty clause is trivially unsatisfiable; keep it so the
            # solver reports UNSAT rather than silently dropping it.
            self.clauses.append(clause)
            return
        for literal in clause:
            if literal == 0:
                raise ValueError("literal 0 is not allowed (DIMACS convention)")
            self.num_variables = max(self.num_variables, abs(literal))
        self.clauses.append(clause)

    def add_unit(self, literal: int) -> None:
        """Convenience: assert a single literal."""
        self.add_clause([literal])

    def add_xor(self, variables: list[int], parity: int) -> None:
        """Assert XOR(variables) == parity via a Tseitin chain.

        Long XORs are split with auxiliary variables to keep clause counts
        linear: ``a xor b == c`` costs four clauses.
        """
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if not variables:
            if parity == 1:
                self.add_clause([])  # 0 == 1: unsatisfiable
            return
        accumulator = variables[0]
        for variable in variables[1:]:
            fresh = self.new_variable()
            self._add_xor3(accumulator, variable, fresh)
            accumulator = fresh
        self.add_unit(accumulator if parity else -accumulator)

    def _add_xor3(self, a: int, b: int, c: int) -> None:
        """Clauses for ``c == a xor b``."""
        self.add_clause([-a, -b, -c])
        self.add_clause([a, b, -c])
        self.add_clause([a, -b, c])
        self.add_clause([-a, b, c])
