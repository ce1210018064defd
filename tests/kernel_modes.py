"""Pin the simulation kernel and the GF(2) product kernel from a test.

Dispatch reads only what the code can observe, so these helpers patch
exactly that, for one test (pytest's ``monkeypatch`` undoes it):

* the kernel: ``simulate_cell`` sends a profiler class to the
  cell-batched kernel when it declares ``batched`` (and does not craft
  its own datawords); :func:`force_scalar_kernel` clears the flag on
  every registry class, so every profiler runs through ``simulate_word``;
* the GF(2) product: ``gf2.matmul`` takes its popcount kernel once a
  product reaches ``_AUTO_PACKED_WORK`` multiply-accumulates;
  :func:`force_gf2_tier` moves that threshold to 0 (``packed``: the
  popcount product everywhere) or past any operand (``unpacked``: the
  int64 product everywhere).  Elimination has one kernel, so no mode
  touches it.

:func:`kernel_mode` names the combinations the suites pin results
under; :data:`MODES` lists them.  Hypothesis tests, which cannot take
the function-scoped fixture, wrap their body in
``with pytest.MonkeyPatch.context() as monkeypatch:``.
"""

from __future__ import annotations

import math

from repro.ecc import gf2
from repro.profiling import PROFILER_REGISTRY

__all__ = ["MODES", "force_gf2_tier", "force_scalar_kernel", "kernel_mode"]

#: ``auto`` (the code's own dispatch), every profiler on
#: ``simulate_word``, and the popcount GF(2) product forced everywhere.
MODES = ("auto", "scalar", "packed")


def force_scalar_kernel(monkeypatch) -> None:
    """Route every registry profiler through ``simulate_word``."""
    for cls in PROFILER_REGISTRY.values():
        monkeypatch.setattr(cls, "batched", False)


def force_gf2_tier(monkeypatch, tier: str) -> None:
    """Make ``gf2.matmul`` take the ``packed`` (popcount) or ``unpacked``
    (int64) product for every operand."""
    threshold = {"packed": 0, "unpacked": math.inf}[tier]
    monkeypatch.setattr(gf2, "_AUTO_PACKED_WORK", threshold)


def kernel_mode(monkeypatch, mode: str) -> None:
    """Apply one of :data:`MODES`."""
    if mode == "scalar":
        force_scalar_kernel(monkeypatch)
    elif mode != "auto":
        force_gf2_tier(monkeypatch, mode)
