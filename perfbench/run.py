"""The repository's benchmark: three campaign workloads through the public entry points.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 2021 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``sweep`` — the Fig 6-9 grid at the ``bench`` preset, serial backend.
* ``casestudy`` — Fig 10 at the ``bench`` case preset, serial backend.
* ``fleet`` — ``repro fleet`` at the ``full`` preset, serial backend.

Each workload is a closed loop: one campaign call per timed sample, from
one process, the next only after the previous returns.  Every sample is a
fresh interpreter (``child.py``), so it starts with cold process caches.
Sample ``i`` of a run simulates workload seed ``SEEDS_PER_RUN * seed + i``
(see :func:`sample_seed`): a run averages over several seeds instead of
timing one seed's luck, and two runs never share an input.  The entry
point receives only the config built from that seed.

``--trace 0`` repeats samples for ``--seconds`` and reports the end-to-end
metrics: wall and CPU time scaled to a reference host speed (see
:data:`REFERENCE_PROBE_S`) and averaged over the samples (one per seed),
word rounds per second as total work over total scaled time, and the raw
set-up time and peak RSS as medians.  ``--trace 1`` runs the workload once untraced and once
under :mod:`tracer` (the difference is the tracing overhead); on
``sweep`` it also traces one call over the socket backend for the wire,
store and backends layers.  It then alternates serial, process-pool and
pool-plus-shared-cache runs of the ``sweep`` grid for the layer verdicts,
and reports the per-layer metrics.

Every campaign call's result is reduced to a timing-free digest and checked
against ``digests.json`` where its seed is pinned; otherwise against the
run's first digest for that seed and seed-independent invariants.  A call
whose digest mismatches counts all its shards as failed.  The last line
of standard output is the JSON result; the lines before it record the
host and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Everything the benchmark writes lives here, inside the checkout.
BUILD_DIR = Path(".bench_build") / "perfbench"

#: Timed workload names; each is a grid run on the serial backend.
WORKLOADS = ("sweep", "casestudy", "fleet")

#: Sample seeds of one run are ``SEEDS_PER_RUN * seed + i``.
SEEDS_PER_RUN = 1000
#: Timed samples per measurement, however long each takes.
MIN_SAMPLES = 3
#: :func:`calibrate`'s time on a quiet host (a 2-vCPU Xeon VM, Python
#: 3.11).  Each sample's times are scaled by this over the fastest of
#: four such loops timed around that sample, so the ``*_ref_*`` metrics
#: read as seconds on that quiet host.  Other tenants of a shared host
#: slow it by up to 70% for seconds to minutes at a time; the raw times
#: are printed too.
REFERENCE_PROBE_S = 0.017
#: No new child starts this many seconds into a run, so that the whole
#: run ends well inside its 180 s limit.
START_LIMIT_S = 110.0
#: A child still running this many seconds into a run is killed.
KILL_LIMIT_S = 170.0
#: A layer speedup at or below this marks the layer a deletion candidate.
DELETION_BAR = 1.05


class ChildFailed(Exception):
    """A child exited non-zero, timed out, or printed no record."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value
    return time.perf_counter() - started


def steal_seconds() -> float | None:
    """CPU time the hypervisor took from this machine since boot, if known."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_record(root: Path) -> dict:
    """The machine and code a result was measured on."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if shutil.which("git"):
        # The ceiling keeps git from reporting an enclosing repository
        # when the checkout itself is not one.
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_GF2_TIER": os.environ.get("REPRO_GF2_TIER", "auto"),
        "REPRO_SIM_KERNEL": os.environ.get("REPRO_SIM_KERNEL", "auto"),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def child_env(root: Path) -> dict:
    """Environment of a child: the package from ``src/``, bytecode cached aside.

    Bytecode is cached under the build directory, never in ``src/``, and
    always written, so set-up time does not depend on whether the
    caller's environment happens to disable bytecode caching.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(root / BUILD_DIR / "pycache")
    return env


class Runner:
    """Spawns children, checks their digests, and tallies shards."""

    def __init__(self, root: Path, scale: str, started: float, perturb: bool):
        self.root = root
        self.scale = scale
        self.started = started
        self.perturb = perturb
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []
        self.calibrations: list[float] = []
        #: First digest of each (grid, seed) in this run, for seeds with no pin.
        self.first_digest: dict[tuple[str, int], str] = {}
        with open(HERE / "digests.json", encoding="utf-8") as handle:
            self.pinned = json.load(handle).get(scale, {})
        self.scratch = root / BUILD_DIR / "scratch"
        self.env = child_env(root)
        self._children = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, grid: str, variant: str, seed: int, trace: bool = False) -> dict:
        """One campaign call in a fresh interpreter; its record, checked."""
        self._children += 1
        scratch = self.scratch / f"{os.getpid()}-{self._children}"
        shutil.rmtree(scratch, ignore_errors=True)
        command = [
            sys.executable,
            str(HERE / "child.py"),
            "--grid", grid,
            "--variant", variant,
            "--scale", self.scale,
            "--seed", str(seed),
            "--scratch", str(scratch),
        ]
        if trace:
            command.append("--trace")
        if self.perturb:
            command.append("--perturb")
        spawned = time.monotonic()
        # A session of its own, so a timeout can take down the socket
        # workers the child spawned along with it.
        process = subprocess.Popen(
            command,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=max(5.0, KILL_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise ChildFailed(f"{grid}/{variant} timed out") from None
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        lines = out.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise ChildFailed(f"{grid}/{variant} exited {process.returncode}: {err.strip()[-2000:]}")
        record = json.loads(lines[-1])
        record["setup_s"] = record["ready"] - spawned
        record["sample_s"] = time.monotonic() - spawned
        record["wall_ref_s"] = record["wall_s"] * REFERENCE_PROBE_S / record["probe_s"]
        record["cpu_ref_s"] = record["cpu_s"] * REFERENCE_PROBE_S / record["probe_s"]
        self.calibrations.append(record["probe_s"])
        self._verify(grid, variant, seed, record)
        return record

    def _verify(self, grid: str, variant: str, seed: int, record: dict) -> None:
        pinned = self.pinned.get(grid, {}).get(str(seed))
        reference = pinned or self.first_digest.setdefault((grid, seed), record["digest"])
        problems = list(record["problems"])
        if record["digest"] != reference:
            source = "pinned" if pinned else "this run's first"
            problems.append(f"digest {record['digest'][:12]} != {source} {reference[:12]}")
        self.attempted += record["shards"]
        if problems:
            self.correct = False
            self.failed += record["shards"]
            self.notes.extend(f"{grid}/{variant}: {problem}" for problem in problems)
        else:
            self.failed += record["quarantined"]
        record["verified"] = not problems

    def record_failure(self, error: ChildFailed, shards: int) -> None:
        self.correct = False
        self.attempted += shards
        self.failed += shards
        self.notes.append(str(error))


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    # The tolerance keeps float error in q * n from skipping a rank.
    return ordered[max(0, math.ceil(q * len(ordered) - 1e-9) - 1)]


def tail_quantile(count: int) -> float:
    """Highest quantile with at least ten samples beyond it (1.0 = the maximum)."""
    return 1.0 - 10.0 / count if count > 10 else 1.0


def _spread(values: list[float]) -> dict:
    """Median, quartiles, the tail the ten-beyond rule allows, and the count."""
    summary = {
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "n": len(values),
        "max": max(values),
    }
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(p25=q1, p75=q3)
    if len(values) > 10:
        q = tail_quantile(len(values))
        summary[f"p{100 * q:.0f}"] = quantile(values, q)
    return summary


def sample_seed(seed: int, index: int) -> int:
    """Workload seed of sample ``index`` of the run started with ``seed``."""
    return SEEDS_PER_RUN * seed + index


def measure(runner: Runner, grid: str, seed: int, seconds: float) -> dict:
    """Timed samples, one seed each, while the next still ends inside ``seconds``.

    Wall and CPU time are scaled to the reference host speed
    (:data:`REFERENCE_PROBE_S`) per sample, then averaged over the
    samples, so every seed weighs the same; word rounds per second is
    total work over total scaled time.  Set-up time and peak RSS are
    medians of the raw values.
    """
    samples = []
    while len(samples) < MIN_SAMPLES or (
        runner.elapsed() + samples[-1]["sample_s"] < seconds
    ):
        if runner.elapsed() > START_LIMIT_S:
            break
        try:
            record = runner.child(grid, "serial", sample_seed(seed, len(samples)))
        except ChildFailed as error:
            shards = samples[-1]["shards"] if samples else 1
            runner.record_failure(error, shards)
            break
        samples.append(record)
        print(
            "perfbench sample "
            + json.dumps(
                {
                    key: record[key]
                    for key in (
                        "setup_s", "wall_s", "wall_ref_s", "cpu_s", "cpu_ref_s",
                        "peak_rss_mb", "word_rounds", "probes",
                    )
                }
                | {"digest": record["digest"][:16], "verified": record["verified"]}
            )
        )
    if not samples:
        return {}
    summaries = {}
    for name in ("setup_s", "wall_s", "wall_ref_s", "cpu_s", "cpu_ref_s", "peak_rss_mb"):
        summaries[name] = _spread([sample[name] for sample in samples])
        print(f"perfbench spread {name} " + json.dumps(summaries[name]))
    return {
        "wall_ref_s": summaries["wall_ref_s"]["mean"],
        "cpu_ref_s": summaries["cpu_ref_s"]["mean"],
        "word_rounds_per_ref_s": sum(sample["word_rounds"] for sample in samples)
        / sum(sample["wall_ref_s"] for sample in samples),
        "setup_s": summaries["setup_s"]["median"],
        "peak_rss_mb": summaries["peak_rss_mb"]["median"],
    }


def _ratios(numerators: list[float], denominators: list[float]) -> float:
    return statistics.median(a / b for a, b in zip(numerators, denominators))


#: Per-layer metrics of the socket path, taken on ``sweep`` from a traced
#: socket-backend call; the serial calls leave them at zero.
SOCKET_LAYERS = (
    "store.append.calls",
    "store.append.self_s",
    "store.append.bytes",
    "wire.frames",
    "wire.bytes",
    "wire.self_s",
    "backends.worker_idle_s",
    "backends.requeued",
    "backends.quarantined",
)


def trace_pass(runner: Runner, grid: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics, tracing overhead, and the two layer verdicts."""
    seed = sample_seed(seed, 0)
    metrics: dict[str, float] = {}
    untraced = runner.child(grid, "serial", seed)
    traced = runner.child(grid, "serial", seed, trace=True)
    metrics.update(traced["layers"])
    # Scaled to the reference host speed, as the end-to-end times are:
    # one pair of raw walls differs by more than the tracing costs.
    metrics["trace.untraced_wall_s"] = untraced["wall_ref_s"]
    metrics["trace.wall_s"] = traced["wall_ref_s"]
    metrics["trace.overhead_s"] = traced["wall_ref_s"] - untraced["wall_ref_s"]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced["wall_ref_s"]
    metrics["trace.digest_match"] = float(traced["digest"] == untraced["digest"])
    if grid == "sweep":
        # Two spawned workers and a fresh resume store; parent-side spans
        # see the wire codec, dispatch and store append.
        socket = runner.child(grid, "socket", seed, trace=True)
        metrics.update({name: socket["layers"][name] for name in SOCKET_LAYERS})
        metrics["trace.digest_match"] *= float(socket["digest"] == untraced["digest"])
    if not metrics["trace.digest_match"]:
        runner.correct = False
        runner.failed += traced["shards"]
        runner.notes.append("a traced digest differs from the untraced digest")

    # Layer verdicts: paired serial / pool / pool+shared runs of the
    # sweep grid, rotating which goes first, for as long as time allows.
    walls: dict[str, list[float]] = {"serial": [], "pool": [], "pool-shared": []}
    order = ["serial", "pool", "pool-shared"]
    while not walls["serial"] or (
        runner.elapsed() < seconds and runner.elapsed() < START_LIMIT_S - 20
    ):
        triple = {}
        for verdict_variant in order:
            triple[verdict_variant] = runner.child("sweep", verdict_variant, seed)["wall_s"]
        for name, wall in triple.items():
            walls[name].append(wall)
        order = order[1:] + order[:1]
    serial, pool, shared = walls["serial"], walls["pool"], walls["pool-shared"]
    metrics["backends.verdict_pairs"] = len(serial)
    metrics["backends.serial_wall_s"] = statistics.median(serial)
    metrics["backends.process_wall_s"] = statistics.median(pool)
    metrics["analysis.shared_cache_wall_s"] = statistics.median(shared)
    metrics["backends.process_speedup"] = _ratios(serial, pool)
    metrics["analysis.shared_cache_speedup"] = _ratios(serial, shared)
    metrics["analysis.shared_cache_gain"] = _ratios(pool, shared)
    metrics["backends.process_deletion_candidate"] = float(
        metrics["backends.process_speedup"] <= DELETION_BAR
    )
    metrics["analysis.shared_cache_deletion_candidate"] = float(
        metrics["analysis.shared_cache_gain"] <= DELETION_BAR
    )
    metrics["host.nproc"] = float(os.cpu_count() or 0)
    metrics["host.calibration_s"] = statistics.median(runner.calibrations)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("bench", "unit"),
        default="bench",
        help="input size: bench (timed) or unit (self-test)",
    )
    parser.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the repository root (src/repro not found)", file=sys.stderr
        )
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    runner = Runner(root, args.scale, started, args.perturb)
    steal_before = steal_seconds()
    print("perfbench host " + json.dumps(host_record(root)))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            values = trace_pass(runner, args.workload, args.seed, args.seconds)
        else:
            values = measure(runner, args.workload, args.seed, args.seconds)
    except ChildFailed as error:
        runner.record_failure(error, 1)
        values = {}
    failed_frac = runner.failed / max(1, runner.attempted)
    print(f"perfbench failed_frac {failed_frac} ({runner.failed}/{runner.attempted} shards)")
    if args.trace:
        values["experiments.failed_frac"] = failed_frac
    # Host speed drifts on its own on shared machines; these say how much.
    steal_after = steal_seconds()
    drift = {
        "calibration_s": _spread(runner.calibrations) if runner.calibrations else None,
        "calibration_loop": "300k pure-Python multiply-adds, twice on each side of each call",
        "steal_s": None if steal_before is None else steal_after - steal_before,
        "loadavg": os.getloadavg(),
    }
    print("perfbench drift " + json.dumps(drift))
    for note in runner.notes:
        print(f"perfbench FAIL {note}")
    missing = [metric["name"] for metric in declared if metric["name"] not in values]
    if missing and runner.correct:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": runner.correct,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
            if metric["name"] in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
