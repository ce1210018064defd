"""One campaign call in a fresh interpreter, reported as one JSON line.

``run.py`` starts one of these per timed run, so every run begins with
cold process caches exactly as a CLI invocation does.  The record's
``ready`` field is the monotonic clock once :mod:`repro` is imported and
the config is built; the parent subtracts its spawn time to get the
set-up time.  By hand, from the repository root::

    PYTHONPATH=src python3 perfbench/child.py --grid sweep --variant serial \\
        --scale unit --seed 2021 --scratch /tmp/perfbench-child [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _usage() -> tuple[float, int]:
    """CPU seconds and peak RSS (KiB) of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return cpu, max(own.ru_maxrss, children.ru_maxrss)


MEMOS = (
    "ground_truth",
    "indirect_prediction",
    "crafted_pattern",
    "beep_expansion",
    "mismatch_consequence",
)

#: Span groups whose calls and self time are reported as-is.
GROUPS = (
    "utils.derive_rng",
    "memory.pattern_rounds",
    "memory.sample_chip_faults",
    "memory.sample_word_profile",
    "ecc.encode",
    "ecc.syndrome_ints_batch",
    "analysis.compute_ground_truth",
    "analysis.charge_system",
    "analysis.ber",
    "profiling.simulate_word",
    "profiling.simulate_words_batched",
    "experiments.metrics_for_words",
    "repair.plan_row_sparing",
    "experiments.finalize_chip",
    "store.append",
)


def layer_metrics(tracer, variant: str, wall: float, result, store_path: str) -> dict:
    """Per-layer figures of one traced campaign call."""
    from repro.analysis import memo
    from run import quantile, tail_quantile

    layers: dict[str, float] = {}
    for group in GROUPS:
        layers[f"{group}.calls"] = tracer.calls[group]
        layers[f"{group}.self_s"] = tracer.self_s[group]
    layers["ecc.encode.rows"] = tracer.counts["ecc.encode.rows"]
    layers["profiling.simulate_words_batched.words"] = tracer.counts[
        "profiling.simulate_words_batched.words"
    ]
    for name in MEMOS:
        stats = getattr(memo, f"{name}_cache").stats
        layers[f"analysis.memo.{name}.calls"] = stats.calls
        layers[f"analysis.memo.{name}.hit_ratio"] = (
            (stats.hits + stats.shared_hits) / stats.calls if stats.calls else 0.0
        )
    # Parent-side spans cannot see into socket workers; their shard
    # times ride back on the result instead.
    workers = 1
    shard_times = tracer.durations["experiments.shard"]
    if variant == "socket":
        from workloads import WORKERS

        workers = WORKERS
        shard_times = list(result.timings.values())
    busy = sum(shard_times)
    layers["experiments.shard.count"] = len(shard_times)
    layers["experiments.shard_s.p50"] = quantile(shard_times, 0.5) if shard_times else 0.0
    layers["experiments.shard_s.tail_q"] = tail_quantile(len(shard_times)) if shard_times else 0.0
    layers["experiments.shard_s.tail"] = (
        quantile(shard_times, tail_quantile(len(shard_times))) if shard_times else 0.0
    )
    layers["experiments.driver_overhead_s"] = wall - busy
    layers["backends.worker_idle_s"] = workers * wall - busy
    store_bytes = 0
    if os.path.exists(store_path):
        with open(store_path, "rb") as handle:
            header = handle.readline()
            store_bytes = os.fstat(handle.fileno()).st_size - len(header)
    layers["store.append.bytes"] = store_bytes
    layers["wire.frames"] = tracer.counts["wire.frames"]
    layers["wire.bytes"] = tracer.counts["wire.bytes"]
    layers["wire.self_s"] = tracer.self_s["wire"]
    layers["backends.requeued"] = sum(
        amount - 1 for name, amount in tracer.counts.items() if name.startswith("task:")
    )
    layers["backends.quarantined"] = len(getattr(result, "quarantined", ()))
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", required=True, choices=("sweep", "casestudy", "fleet"))
    # serial is timed; socket feeds the traced pass's wire, store and
    # backends layers, and the pool variants its layer verdicts.
    parser.add_argument(
        "--variant", default="serial", choices=("serial", "socket", "pool", "pool-shared")
    )
    parser.add_argument("--scale", default="bench", choices=("bench", "unit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    config = workloads.build_config(args.grid, args.scale, args.seed)
    ready = time.monotonic()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    os.makedirs(args.scratch, exist_ok=True)
    from run import calibrate

    # The host's speed on either side of the call, from this process.
    probes = [calibrate(), calibrate()]
    cpu_before, _ = _usage()
    started = time.perf_counter()
    result = workloads.run_campaign(args.grid, args.variant, config, args.scratch)
    wall = time.perf_counter() - started
    cpu_after, peak_kib = _usage()
    probes += [calibrate(), calibrate()]

    # Layer figures are read before the checks below run more code.
    layers = None
    if tracer is not None:
        layers = layer_metrics(
            tracer, args.variant, wall, result, os.path.join(args.scratch, "store.jsonl")
        )
    if args.perturb:
        result = workloads.perturb(args.grid, result)
    problems = workloads.check(args.grid, config, result)
    if args.variant == "socket":
        problems += workloads.spot_check_socket(config, result)
    record = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mb": peak_kib / 1024.0,
        "word_rounds": workloads.word_rounds(args.grid, config, result),
        "digest": workloads.digest(args.grid, result),
        "shards": workloads.shard_count(args.grid, config),
        "quarantined": len(getattr(result, "quarantined", ())),
        "problems": problems,
        "probes": probes,
        # The fastest probe: a momentary spike must not inflate the
        # host-speed correction the parent applies.
        "probe_s": min(probes),
    }
    if layers is not None:
        record["layers"] = layers
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
