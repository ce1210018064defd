"""The drivers' one campaign loop: one behaviour for the sweep, Fig 10 and the fleet.

``run_sweep``, ``fig10.run`` and ``fleet.run`` all run through
:func:`~repro.experiments.campaign.run_campaign`, so every behaviour here
is asserted for every driver: a resumed run's progress lines count the
seconds its store already recorded, status snapshots name the workload,
and each ``--resume`` refusal happens before the store is opened for
append, leaving the file as it was.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments import fig10, fleet
from repro.experiments.backends import SerialBackend
from repro.experiments.config import CaseStudyConfig, FleetConfig, SweepConfig
from repro.experiments.runner import run_sweep, shard_grid
from repro.experiments.store import sweep_to_json

SWEEP = SweepConfig(
    num_codes=1,
    words_per_code=2,
    num_rounds=8,
    error_counts=(2,),
    probabilities=(0.5, 1.0),
    profilers=("Naive", "HARP-U"),
)
CASE = CaseStudyConfig(
    num_codes=1,
    words_per_stratum=2,
    num_rounds=8,
    probabilities=(0.5, 1.0),
    rbers=(1e-4,),
    max_at_risk=3,
    profilers=("Naive",),
)
FLEET = FleetConfig(
    num_chips=8, k=16, num_codes=2, num_rounds=8, rows=8, words_per_row=2, chips_per_shard=2
)

#: Driver name -> (config, entry point, shard grid, progress unit).
DRIVERS = {
    "sweep": (SWEEP, run_sweep, shard_grid, "cells"),
    "fig10": (CASE, fig10.run, fig10.shard_case_study, "shards"),
    "fleet": (FLEET, fleet.run, fleet.shard_fleet, "shards"),
}


def _shard_count(name: str) -> int:
    config, _, grid, _ = DRIVERS[name]
    return len(grid(config))


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """A complete ``--resume`` store per driver."""
    paths = {}
    for name, (config, run, _, _) in DRIVERS.items():
        paths[name] = tmp_path_factory.mktemp(name) / "store.jsonl"
        run(config, resume=str(paths[name]))
    return paths


class _WatchedBackend(SerialBackend):
    """A serial backend that, like the socket ones, takes campaign info."""

    campaign_info = None


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_resumed_progress_counts_recorded_seconds(name, stores, tmp_path, capsys):
    config, run, _, unit = DRIVERS[name]
    lines = stores[name].read_text().splitlines(keepends=True)
    path = tmp_path / "partial.jsonl"
    path.write_text("".join(lines[:3]))  # the header and two shards
    recorded = sum(json.loads(line)["seconds"] for line in lines[1:3])
    capsys.readouterr()
    run(config, resume=str(path), progress=0.0)
    first = capsys.readouterr().err.splitlines()[0]
    total = _shard_count(name)
    assert first.startswith(f"progress 2/{total} {unit} ({100.0 * 2 / total:.1f}%)")
    assert f" · {recorded:.1f} cell-seconds recorded" in first


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_status_snapshots_name_the_workload(name):
    config, run, _, _ = DRIVERS[name]
    backend = _WatchedBackend()
    run(config, backend=backend)
    info = backend.campaign_info
    assert info["workload"] == name
    assert info["shards"] == _shard_count(name)
    if name == "fleet":
        assert info["chips"] == FLEET.num_chips and "cell_slices" in info


class TestRefusalsLeaveTheStoreAlone:
    """Each refusal fires before the store is opened for append."""

    def _refuses(self, name, path, match, config=None):
        default, run, _, _ = DRIVERS[name]
        before = path.read_bytes() if path.exists() else None
        with pytest.raises(ValueError, match=match):
            run(default if config is None else config, resume=str(path))
        assert (path.read_bytes() if path.exists() else None) == before

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_opaque_config(self, name, tmp_path):
        self._refuses(name, tmp_path / "new.jsonl", "opaque config", config=("opaque",))

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_records_without_a_config(self, name, stores, tmp_path):
        lines = stores[name].read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["config"] = None
        path = tmp_path / "configless.jsonl"
        path.write_text(json.dumps(header) + "\n" + lines[1])
        self._refuses(name, path, "does not record the .* config")

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_a_different_config(self, name, stores, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(stores[name].read_bytes())
        config = DRIVERS[name][0]
        self._refuses(name, path, "different .*config", config=replace(config, seed=7))

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_another_workloads_store(self, name, stores, tmp_path):
        other = sorted(set(DRIVERS) - {name})[0]
        path = tmp_path / "store.jsonl"
        path.write_bytes(stores[other].read_bytes())
        self._refuses(name, path, "store, not a")

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_a_sweep_document(self, name, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(sweep_to_json(run_sweep(SWEEP)) + "\n")
        self._refuses(name, path, "sweep_to_json document")
