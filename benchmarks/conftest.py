"""Shared fixtures for the benchmark harness.

The Figs 6-9 exhibits all reduce the same Monte-Carlo sweep, so it is
computed once per session at BENCH scale and shared; each bench then
measures its own reduction and saves its rendered exhibit under
``benchmarks/results/`` for inspection (EXPERIMENTS.md quotes these).

``bench_engine.py`` additionally times the sweep execution engine against
the pre-engine legacy loop and a parallel run; the wall-clocks land in
``benchmarks/results/sweep_scaling.txt`` via :func:`sweep_scaling` so the
speedup is tracked across the bench trajectory.

The kernel benches check what each kernel fed its profilers with the test
suites' oracle (``tests/kernel_modes.py``: ``record_feed`` and
``check_feed``), so the tests directory goes on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import resource
import sys

import pytest

from repro.experiments.config import BENCH, CaseStudyConfig
from repro.experiments.runner import run_sweep

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "tests"))

#: Case-study scale used by the Fig 10 bench: full RBER/probability grid,
#: reduced Monte-Carlo samples.
BENCH_CASE_STUDY = CaseStudyConfig(
    num_codes=3,
    words_per_stratum=4,
    num_rounds=128,
    max_at_risk=5,
)


def cpu_seconds() -> float:
    """CPU seconds of this process and of its reaped children.

    ``time.process_time`` leaves out a worker pool's processes.  A pool
    reaps its workers when it shuts down, so the difference of two
    readings around a call that runs one counts the workers' CPU too.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def change_points(identified) -> list:
    """A per-round identified trace as a run's change points.

    The pinned early engines build one set per round;
    :class:`~repro.profiling.runner.WordRunResult` stores a run as the
    rounds where it changes.
    """
    changes = []
    last = frozenset()
    for round_index, current in enumerate(identified):
        if current != last:
            changes.append((round_index, current))
            last = current
    return changes


@pytest.fixture(scope="session")
def bench_sweep():
    """The BENCH-scale profiler sweep shared by the Fig 6-9 benches."""
    return run_sweep(BENCH)


@pytest.fixture(scope="session")
def bench_case_study():
    """The BENCH-scale Fig 10 case study (computed lazily, shared)."""
    from repro.experiments import fig10

    return fig10.run(BENCH_CASE_STUDY)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def host() -> dict[str, object]:
    """The measuring host: CPUs this process may run on and the CPU model."""
    try:
        with open("/proc/cpuinfo") as info:
            models = [line.split(":", 1)[1].strip() for line in info if "model name" in line]
    except OSError:
        models = []
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu": models[0] if models else platform.processor() or platform.machine(),
    }


def persist_scaling(
    results_dir: pathlib.Path,
    name: str,
    record: dict[str, float],
    speedup_pairs: tuple[tuple[str, str, str], ...],
    notes: tuple[str, ...] = (),
) -> None:
    """Write ``results/NAME.txt`` and its JSON twin from a session's record.

    The text file lists every label (``-estimate`` labels are derived
    and left to ``notes``), then each ``(title, numerator, denominator)``
    speedup the record holds, then ``notes``, then the host (:func:`host`);
    the JSON twin gives the repo a machine-readable perf trajectory (same
    timings, same derived speedups, same host) that regression tooling
    can diff across commits.  A
    session that measured only some labels (a ``-k`` selection, such as
    CI's engine smoke) leaves both files as committed: they are
    rewritten only when ``record`` holds every label the committed JSON
    holds.
    """
    if not record:
        return
    json_path = results_dir / f"{name}.json"
    if json_path.exists():
        missing = set(json.loads(json_path.read_text())["timings_s"]) - set(record)
        if missing:
            print(f"\n[{name} left as committed: this session did not measure {sorted(missing)}]")
            return
    lines = [
        f"{label}: {seconds:.3f} s"
        for label, seconds in sorted(record.items())
        if not label.endswith("-estimate")
    ]
    speedups: dict[str, float] = {}
    for title, num, den in speedup_pairs:
        if num in record and den in record:
            speedups[title] = record[num] / record[den]
            lines.append(f"{title}: {speedups[title]:.2f}x")
    machine = host()
    path = results_dir / f"{name}.txt"
    path.write_text(
        "\n".join([*lines, *notes, f"host: nproc {machine['nproc']}, {machine['cpu']}"]) + "\n"
    )
    json_path.write_text(
        json.dumps(
            {
                "bench": name,
                "timings_s": {label: round(value, 3) for label, value in sorted(record.items())},
                "speedups": {label: round(value, 2) for label, value in speedups.items()},
                "host": machine,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"\n[{name.replace('_', ' ')} saved to {path}]")


@pytest.fixture(scope="session")
def adaptive_scaling(results_dir: pathlib.Path) -> dict[str, float]:
    """Session-wide record of adaptive-path wall-clocks, persisted at teardown.

    ``bench_adaptive.py`` inserts ``label -> seconds`` entries
    (``pr1-adaptive-serial``, ``adaptive-serial``, ``adaptive-parallel``,
    ``fig10-serial``, ``fig10-parallel`` plus ``-cpu`` variants); derived
    speedups are appended so ``results/adaptive_scaling.txt`` is
    self-describing.
    """
    record: dict[str, float] = {}
    yield record
    persist_scaling(results_dir, "adaptive_scaling", record, (
        ("adaptive speedup vs PR1 engine (serial wall-clock)", "pr1-adaptive-serial", "adaptive-serial"),
        ("adaptive speedup vs PR1 engine (serial CPU)", "pr1-adaptive-serial-cpu", "adaptive-serial-cpu"),
        ("parallel speedup vs adaptive-serial (wall-clock)", "adaptive-serial", "adaptive-parallel"),
        ("fig10 parallel speedup vs serial (wall-clock)", "fig10-serial", "fig10-parallel"),
    ))


@pytest.fixture(scope="session")
def sweep_scaling(results_dir: pathlib.Path) -> dict[str, float]:
    """Session-wide record of sweep wall-clocks, persisted at teardown.

    Benches insert ``label -> seconds`` entries (``legacy-serial``,
    ``engine-serial``, ``engine-parallel``); the derived speedups are
    appended so the trajectory file is self-describing.
    """
    record: dict[str, float] = {}
    yield record
    notes = ()
    if "paper-grid-estimate" in record:
        from repro.experiments.config import PAPER

        paper_cells = (
            len(PAPER.error_counts) * len(PAPER.probabilities) * len(PAPER.profilers)
        )
        notes = (
            f"PAPER preset: full {paper_cells}-cell grid estimate "
            f"{record['paper-grid-estimate'] / 60:.1f} min serial "
            "(measured every error-count cell at one probability, "
            f"x{len(PAPER.probabilities)} probabilities; divide by the "
            "worker count for the socket/process backends)",
        )
    persist_scaling(results_dir, "sweep_scaling", record, (
        ("engine speedup vs legacy (serial wall-clock)", "legacy-serial", "engine-serial"),
        ("engine speedup vs legacy (serial CPU)", "legacy-serial-cpu", "engine-serial-cpu"),
        ("parallel speedup vs engine-serial (wall-clock)", "engine-serial", "engine-parallel"),
        ("batched metrics reduction speedup vs per-word loop (CPU)", "metrics-loop-cpu", "metrics-batched-cpu"),
        ("batched word kernel speedup vs scalar (CPU)", "words-scalar-cpu", "words-batched-cpu"),
    ), notes)


@pytest.fixture(scope="session")
def kernel_scaling(results_dir: pathlib.Path) -> dict[str, float]:
    """Session-wide record of kernel-layer timings, persisted at teardown.

    ``bench_kernels.py`` inserts ``label -> seconds`` entries
    (``matmul-int64-cpu``/``matmul-popcount-cpu``,
    ``pattern-per-block-cpu``/``pattern-vectorized-cpu``,
    ``charge-mask-encode-cpu``/``charge-mask-integer-cpu``,
    ``stream-seeding-per-stream-cpu``/``stream-seeding-batched-cpu``,
    ``block-seeds-per-block-cpu``/``block-seeds-prefix-cpu``,
    ``sweep-serial`` and ``sweep-shared-pool``); the derived speedups
    are appended so ``results/kernel_scaling.txt`` is self-describing.
    """
    record: dict[str, float] = {}
    yield record
    persist_scaling(results_dir, "kernel_scaling", record, (
        ("popcount product speedup vs int64 (CPU)", "matmul-int64-cpu", "matmul-popcount-cpu"),
        ("vectorized pattern stream speedup vs per-block Generator (CPU)", "pattern-per-block-cpu", "pattern-vectorized-cpu"),
        ("integer charge mask speedup vs encode path (CPU)", "charge-mask-encode-cpu", "charge-mask-integer-cpu"),
        ("batched stream seeding speedup vs derive_rng per stream (CPU)", "stream-seeding-per-stream-cpu", "stream-seeding-batched-cpu"),
        ("prefix-hashed block seeds speedup vs derive_seed per block (CPU)", "block-seeds-per-block-cpu", "block-seeds-prefix-cpu"),
        ("shared-cache pool speedup vs serial sweep (wall-clock)", "sweep-serial", "sweep-shared-pool"),
    ))


def save_exhibit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a rendered exhibit and echo it for -s runs."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
