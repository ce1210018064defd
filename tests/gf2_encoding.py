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
    code: SystematicCode,
    charged_ones: frozenset[int] | set[int],
    forced_zeros: frozenset[int] | set[int] = frozenset(),
) -> tuple[Cnf, list[int]]:
    """Build the CNF for the charge constraints.

    Returns ``(cnf, data_variables)`` where ``data_variables[i]`` is the SAT
    variable of data bit ``i``.
    """
    cnf = Cnf()
    data_variables = cnf.new_variables(code.k)
    parity = code.parity_submatrix
    for target, positions in ((1, charged_ones), (0, forced_zeros)):
        for position in positions:
            if not 0 <= position < code.n:
                raise IndexError(f"position {position} out of range [0, {code.n})")
            if position < code.k:
                cnf.add_unit(data_variables[position] if target else -data_variables[position])
            else:
                row = parity[position - code.k]
                involved = [data_variables[i] for i in np.flatnonzero(row)]
                cnf.add_xor(involved, target)
    return cnf, data_variables


def sat_charge_assignment(
    code: SystematicCode,
    charged_ones: frozenset[int] | set[int],
    forced_zeros: frozenset[int] | set[int] = frozenset(),
) -> np.ndarray | None:
    """A dataword satisfying the charge constraints, via the SAT solver."""
    if set(charged_ones) & set(forced_zeros):
        return None
    cnf, data_variables = encode_charge_constraints(code, charged_ones, forced_zeros)
    assignment = solve(cnf)
    if assignment is None:
        return None
    return np.array([1 if assignment[v] else 0 for v in data_variables], dtype=np.uint8)


def sat_is_charge_realizable(
    code: SystematicCode,
    charged_ones: frozenset[int] | set[int],
    forced_zeros: frozenset[int] | set[int] = frozenset(),
) -> bool:
    """Decision form of :func:`sat_charge_assignment`."""
    return sat_charge_assignment(code, charged_ones, forced_zeros) is not None
