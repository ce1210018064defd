"""Fast self-test of the benchmark at ``unit`` scale (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every workload, untraced and traced, emits exactly the
metrics ``BENCHMARK.json`` names, each with its unit; that a perturbed
result fails the digest check and counts every shard as failed; that a
seed with no pinned digest still passes; and that the benchmark refuses
to run, printing no result, where the package is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    process = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--scale", "unit", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return process.returncode, process.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, f"result keys {sorted(result)}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    names = [metric["name"] for metric in declared]
    assert sorted(result["metrics"]) == sorted(names), (
        f"{label}: missing {sorted(set(names) - set(result['metrics']))}, "
        f"extra {sorted(set(result['metrics']) - set(names))}"
    )
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], f"{label}: {metric['name']} unit"
        value = emitted["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{label}: {metric['name']} = {value!r}"
        )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = bench("--workload", name, "--trace", str(trace))
            assert code == 0, f"{name} trace {trace}: exit {code}\n" + "\n".join(lines)
            result = result_of(lines)
            assert result["correct"] and not result["failed"], f"{name} trace {trace}: {lines}"
            check_metrics(result, declared, f"{name} trace {trace}")
            if trace == 0:
                for metric in declared:
                    assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
        code, lines = bench("--workload", name, "--trace", "0", "--perturb")
        result = result_of(lines)
        assert code == 0 and not result["correct"], f"{name}: perturbed result passed"
        assert result["failed"] == result["attempted"], f"{name}: perturbed shards not failed"
        print(f"selftest {name}: metrics and units ok, perturbed digest caught", flush=True)

    code, lines = bench("--workload", "sweep", "--trace", "0", "--seed", "987654321")
    assert code == 0 and result_of(lines)["correct"], "unpinned seed failed"
    print("selftest unpinned seed: ok", flush=True)

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "sweep", "--trace", "0", cwd=Path(bare))
        assert code != 0 and not lines, f"ran without the package: exit {code}, {lines}"
    print("selftest bare directory: refused", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
