"""Golden digests: every word-simulation driver pinned bit for bit.

Pairwise checks (serial vs socket, batched vs scalar, hot vs cold) cannot
see a change that shifts every path the same way.  These digests can:
each is the SHA-256 of a timing-free canonical JSON of one unit-scale run
at seed 2021, through each driver that owns a per-word loop — the Fig 6-9
sweep, the Fig 10 case study, the fleet and the heterogeneous-probability
extension.  Floats go through ``repr`` inside ``json.dumps``, so a digest
pins them to the last bit.

The ``exhibit-*`` digests pin the rendered text of every exhibit, one
per section of ``python -m repro all --scale unit --seed 2021``.  The
canonical form of a section is its UTF-8 text exactly as printed, from
its ``== title ==`` line through the blank line that closes it; that is
also the whole stdout of ``python -m repro EXHIBIT --scale unit --seed
2021`` run alone, so a ledger that times one exhibit per process can
hash its stdout and compare it with these digests at any scale.

The ``store-*`` digests pin the on-disk records of each driver's
``--resume`` store from the same runs: every line is parsed, its
``seconds`` (wall-clock) field dropped, and the record re-dumped with
``json.dumps`` in file order.  Re-dumping keeps each record's key order,
which is part of the format: a sweep ``cell`` record writes ``kind``
last, after ``seconds``, while ``fig10`` and ``fleet`` records write it
first.

Each digest must hold in three modes (``kernel_modes.MODES``): the
code's own dispatch, every registry profiler on the scalar
``simulate_word``, and the popcount GF(2) product forced for every
product.  Regenerate ``golden/digests.json`` only on purpose::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

and put the diff of the file in the change that moves a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest
from kernel_modes import MODES, kernel_mode

from repro import cli
from repro.cli import CASE_SCALES, FLEET_SCALES, SCALES
from repro.experiments import ext_heterogeneous, fig10, fleet
from repro.experiments.runner import clear_engine_caches, run_sweep

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"
SEED = 2021


def _fields(record) -> list:
    return [getattr(record, field.name) for field in dataclasses.fields(record)]


def _sweep(resume=None):
    result = run_sweep(replace(SCALES["unit"], seed=SEED), resume=resume)
    return [
        [key[0], key[1], key[2], [_fields(word) for word in cell.words]]
        for key, cell in result.cells.items()
    ]


def _fig10(resume=None):
    result = fig10.run(replace(CASE_SCALES["unit"], seed=SEED), resume=resume)
    return {
        "ticks": list(result.ticks),
        "before": sorted([list(key), list(value)] for key, value in result.before.items()),
        "after": sorted([list(key), list(value)] for key, value in result.after.items()),
        "rounds_to_zero": sorted(
            [list(key), value] for key, value in result.rounds_to_zero.items()
        ),
    }


def _fleet(resume=None):
    result = fleet.run(replace(FLEET_SCALES["unit"], seed=SEED), resume=resume)
    return [_fields(chip) for chip in result.chips]


def _heterogeneous():
    result = ext_heterogeneous.run(seed=SEED)
    return {
        "mean": result.mean,
        "std": result.std,
        "num_rounds": result.num_rounds,
        "num_words": result.num_words,
        "rows": [[name, list(row)] for name, row in result.rows.items()],
    }


def _store_records(run):
    """The timing-free records of ``run``'s ``--resume`` store, in file order."""

    def records(tmp_path: Path) -> list:
        path = tmp_path / "store.jsonl"
        run(resume=str(path))
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for record in lines:
            record.pop("seconds", None)
        return lines

    return records


RUNS = {
    "sweep": _sweep,
    "fig10": _fig10,
    "fleet": _fleet,
    "ext-heterogeneous": _heterogeneous,
}

#: Runs that write a store: called with a fresh directory.
STORE_RUNS = {
    "store-sweep": _store_records(_sweep),
    "store-fig10": _store_records(_fig10),
    "store-fleet": _store_records(_fleet),
}


def _exhibit_sections() -> dict[str, str]:
    """Each exhibit's section of ``repro all --scale unit --seed 2021``, keyed ``exhibit-NAME``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["all", "--scale", "unit", "--seed", str(SEED)]) == 0
    text = out.getvalue()
    starts: list[int] = []
    for description, _ in cli.COMMANDS.values():
        starts.append(text.index(f"== {description} ==\n", starts[-1] if starts else 0))
    assert starts[0] == 0
    return {
        f"exhibit-{name}": text[start:stop]
        for name, start, stop in zip(cli.COMMANDS, starts, starts[1:] + [len(text)])
    }


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(document) -> str:
    return _digest_text(json.dumps(document, separators=(",", ":")))


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    if UPDATE:
        digests = {name: _digest(run()) for name, run in RUNS.items()}
        digests.update(
            (name, _digest(run(tmp_path_factory.mktemp(name))))
            for name, run in STORE_RUNS.items()
        )
        digests.update(
            (name, _digest_text(section)) for name, section in _exhibit_sections().items()
        )
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN.read_text())


def test_every_driver_is_pinned(pinned):
    exhibits = [f"exhibit-{name}" for name in cli.COMMANDS]
    assert sorted(pinned) == sorted([*RUNS, *STORE_RUNS, *exhibits])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_digest(name, mode, pinned, monkeypatch):
    kernel_mode(monkeypatch, mode)
    # Cold engine caches: a warm cache from another mode's run must not
    # stand in for this mode's own computation.
    clear_engine_caches()
    fleet.clear_fleet_caches()
    assert _digest(RUNS[name]()) == pinned[name]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(STORE_RUNS))
def test_store_records_match_golden_digest(name, mode, pinned, monkeypatch, tmp_path):
    kernel_mode(monkeypatch, mode)
    clear_engine_caches()
    fleet.clear_fleet_caches()
    assert _digest(STORE_RUNS[name](tmp_path)) == pinned[name]


@pytest.mark.parametrize("mode", MODES)
def test_exhibit_text_matches_golden_digests(mode, pinned, monkeypatch):
    kernel_mode(monkeypatch, mode)
    clear_engine_caches()
    fleet.clear_fleet_caches()
    digests = {name: _digest_text(section) for name, section in _exhibit_sections().items()}
    assert digests == {name: pinned[name] for name in digests}
