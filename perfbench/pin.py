"""Pin the timing-free result digests the benchmark checks against.

Run from the repository root only when a result is meant to change, and
put the ``digests.json`` diff in the same commit::

    python3 perfbench/pin.py --scale bench --seeds 0-19 2021000-2021019

The seeds are sample seeds: a run with ``--seed s`` simulates seeds
``1000 * s``, ``1000 * s + 1``, ... (``run.sample_seed``), so the line
above pins the runs with ``--seed 0`` and ``--seed 2021``.  Each digest
comes from a serial campaign call in a fresh interpreter, exactly as a
timed run makes it.  The traced socket call is checked against the
``sweep`` digest, so it has none of its own.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, child_env

GRIDS = ("sweep", "casestudy", "fleet")


def parse_seeds(items: list[str]) -> list[int]:
    seeds: list[int] = []
    for item in items:
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("bench", "unit"), default="bench")
    parser.add_argument("--seeds", nargs="+", default=["2021"], help="seeds or ranges A-B")
    args = parser.parse_args(argv)
    root = Path.cwd()
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    pinned = table.setdefault(args.scale, {})
    for seed in parse_seeds(args.seeds):
        for grid in GRIDS:
            with tempfile.TemporaryDirectory(dir=root / ".bench_build") as scratch:
                out = subprocess.run(
                    [
                        sys.executable, str(HERE / "child.py"),
                        "--grid", grid, "--variant", "serial", "--scale", args.scale,
                        "--seed", str(seed), "--scratch", scratch,
                    ],
                    cwd=root, env=child_env(root), capture_output=True, text=True, check=True,
                )
            record = json.loads(out.stdout.strip().splitlines()[-1])
            if record["problems"]:
                raise SystemExit(f"{grid} seed {seed}: {record['problems']}")
            pinned.setdefault(grid, {})[str(seed)] = record["digest"]
            print(f"{args.scale} {grid} {seed} {record['digest']}", flush=True)
    for grid in pinned:
        pinned[grid] = dict(sorted(pinned[grid].items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
