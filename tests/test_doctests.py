"""Run the doctest examples embedded in module docstrings.

Keeps the documentation honest: every ``>>>`` example in the public API
must execute and produce the documented output.
"""

import doctest

import cnf
import pytest

import repro.ecc.bch
import repro.ecc.hamming
import repro.ecc.gf2m
import repro.repair.wasted_storage
import repro.utils.bits
import repro.utils.rng
import repro.utils.tables

MODULES = [
    repro.utils.bits,
    repro.utils.rng,
    repro.utils.tables,
    repro.repair.wasted_storage,
    repro.ecc.hamming,
    repro.ecc.gf2m,
    repro.ecc.bch,
    cnf,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
