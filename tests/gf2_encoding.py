"""CNF encodings of the GF(2) decision problems the paper poses to Z3 (a test oracle).

The realizability question — "does a data pattern exist charging this set
of cells?" — is encoded with one boolean variable per data bit and one XOR
constraint per charge constraint.  :mod:`repro.analysis.atrisk` answers the
same question by Gaussian elimination; the property-based test suite
asserts the two agree on random instances, which is how we validate the Z3
substitution.
"""

from __future__ import annotations

import numpy as np
from cnf import Cnf
from dpll import solve

from repro.ecc.linear_code import SystematicCode

__all__ = ["encode_charge_constraints", "sat_charge_assignment", "sat_is_charge_realizable"]


def encode_charge_constraints(
    code: SystematicCode, charged_ones: frozenset[int] | set[int]
) -> tuple[Cnf, list[int]]:
    """Build the CNF requiring every cell of ``charged_ones`` to store 1.

    Returns ``(cnf, data_variables)`` where ``data_variables[i]`` is the SAT
    variable of data bit ``i``.
    """
    cnf = Cnf()
    data_variables = cnf.new_variables(code.k)
    parity = code.parity_submatrix
    for position in charged_ones:
        if not 0 <= position < code.n:
            raise IndexError(f"position {position} out of range [0, {code.n})")
        if position < code.k:
            cnf.add_unit(data_variables[position])
        else:
            row = parity[position - code.k]
            cnf.add_xor([data_variables[i] for i in np.flatnonzero(row)], 1)
    return cnf, data_variables


def sat_charge_assignment(
    code: SystematicCode, charged_ones: frozenset[int] | set[int]
) -> np.ndarray | None:
    """A dataword charging every cell of ``charged_ones``, via the SAT solver."""
    cnf, data_variables = encode_charge_constraints(code, charged_ones)
    assignment = solve(cnf)
    if assignment is None:
        return None
    return np.array([1 if assignment[v] else 0 for v in data_variables], dtype=np.uint8)


def sat_is_charge_realizable(
    code: SystematicCode, charged_ones: frozenset[int] | set[int]
) -> bool:
    """Decision form of :func:`sat_charge_assignment`."""
    return sat_charge_assignment(code, charged_ones) is not None
