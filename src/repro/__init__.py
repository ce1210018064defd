"""repro: a from-scratch reproduction of HARP (MICRO 2021).

HARP — Hybrid Active-Reactive Profiling — identifies bits at risk of
uncorrectable error in memory chips that use on-die ECC.  This library
implements the paper's full stack: the on-die ECC substrate, a simulated
DRAM chip with data-retention errors, the profiling algorithms (Naive,
BEEP, HARP-U, HARP-A, HARP-A+BEEP), repair mechanisms with a secondary
ECC, and the Monte-Carlo experiment harness regenerating every figure and
table in the paper's evaluation.

Quickstart::

    import numpy as np
    from repro.ecc import random_sec_code
    from repro.memory import sample_word_profile
    from repro.profiling import HarpUProfiler, simulate_word
    from repro.analysis import compute_ground_truth

    rng = np.random.default_rng(7)
    code = random_sec_code(64, rng)                     # (71, 64) on-die ECC
    word = sample_word_profile(code, 4, 0.5, rng)       # 4 at-risk bits
    truth = compute_ground_truth(code, word)
    profiler = HarpUProfiler(code, seed=1)
    result = simulate_word(profiler, word, num_rounds=64, word_seed=1)
    covered = result.final_identified() & truth.direct_at_risk
"""

__version__ = "1.0.0"

__all__ = [
    "ecc",
    "memory",
    "analysis",
    "profiling",
    "repair",
    "controller",
    "experiments",
    "utils",
]
