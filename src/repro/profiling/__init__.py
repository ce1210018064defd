"""Error-profiling algorithms: Naive, BEEP, HARP-U, HARP-A, HARP-A+BEEP.

The package implements every profiler the paper evaluates, plus the
oracle upper bound, behind one abstraction
(:class:`~repro.profiling.base.Profiler`): each round a profiler picks
a dataword to program; the harness writes it through on-die ECC,
samples pre-correction errors, and reports back the mismatching bit
positions for whichever read path the profiler uses (normal,
post-correction data; or bypass, raw pre-correction data — paper §5.2).

Profiler roster (each module docstring carries the full description):

==============  ====================  =====================================
registry name   paper section         approach
==============  ====================  =====================================
``Naive``       §7.1.1 (baseline 1)   worst-case patterns, normal reads,
                                      no ECC knowledge
``BEEP``        §7.1.1 (baseline 2)   knows the parity-check matrix;
                                      crafts patterns that provoke
                                      miscorrections (from BEER, MICRO'20)
``HARP-U``      §6                    bypass reads: observes raw
                                      pre-correction data-bit errors
``HARP-A``      §6.3.1                HARP-U + precomputes which data
                                      positions identified bits can
                                      miscorrect onto
``HARP-A+BEEP`` §7.3.1                HARP-A active phase, then BEEP
                                      seeded with the identified set
(Oracle)        §7.1 (upper bound)    reads the simulator's ground truth;
                                      not in the registry, tests only
==============  ====================  =====================================

Experiment configs name profilers by their :data:`PROFILER_REGISTRY`
key.  The per-word simulation loop lives in
:mod:`repro.profiling.runner` (`simulate_cell`, the drivers' one entry
point, over `simulate_word` and `simulate_words_batched`), which store
each run as the change points of its identified set.  The runs become
per-word metrics in
:func:`repro.experiments.runner.metrics_for_words`, and each exhibit
module (:mod:`repro.experiments.fig6` to :mod:`repro.experiments.fig9`)
reduces those to its figure.
"""

from repro.profiling.base import Profiler, ReadMode
from repro.profiling.beep import BeepProfiler
from repro.profiling.combined import HarpABeepProfiler
from repro.profiling.harp import HarpAProfiler, HarpUProfiler
from repro.profiling.naive import NaiveProfiler
from repro.profiling.oracle import OracleProfiler
from repro.profiling.runner import WordRunResult, post_correction_data_errors, simulate_word

__all__ = [
    "Profiler",
    "ReadMode",
    "NaiveProfiler",
    "BeepProfiler",
    "HarpUProfiler",
    "HarpAProfiler",
    "HarpABeepProfiler",
    "OracleProfiler",
    "WordRunResult",
    "simulate_word",
    "post_correction_data_errors",
    "PROFILER_REGISTRY",
]

#: Registry used by experiment configs to instantiate profilers by name.
PROFILER_REGISTRY = {
    "Naive": NaiveProfiler,
    "BEEP": BeepProfiler,
    "HARP-U": HarpUProfiler,
    "HARP-A": HarpAProfiler,
    "HARP-A+BEEP": HarpABeepProfiler,
}
