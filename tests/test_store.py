"""Tests for the sweep document, config round-trips, and the JSONL store."""

import json
from dataclasses import replace

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_sweep
from repro.experiments.store import (
    FIG10_STORE,
    SWEEP_STORE,
    ShardStore,
    config_from_dict,
    config_to_dict,
    sweep_to_json,
)

CONFIG = SweepConfig(
    num_codes=2,
    words_per_code=3,
    num_rounds=16,
    error_counts=(3,),
    probabilities=(0.5,),
    profilers=("Naive", "HARP-U"),
)


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(CONFIG)


class TestSweepDocument:
    """``sweep_to_json`` is the daemon's sweep result payload."""

    def test_document_decodes_to_the_sweep(self, sweep):
        """Each document cell decodes through ``SWEEP_STORE`` back to the
        sweep's cell and timing, and the config through ``config_from_dict``."""
        document = json.loads(sweep_to_json(sweep))
        assert document["format"] == SWEEP_STORE.tag
        assert config_from_dict(document["config"]) == CONFIG
        cells, timings = {}, {}
        for entry in document["cells"]:
            key = SWEEP_STORE.key_of(entry)
            cells[key] = SWEEP_STORE.decode(key, entry)
            timings[key] = entry["seconds"]
        assert list(cells) == sorted(sweep.cells)
        for key in sweep.cells:
            assert cells[key].words == sweep.cells[key].words
        assert sweep.timings and timings == sweep.timings


class TestConfigRoundtrip:
    def test_config_dict_roundtrip(self):
        assert config_from_dict(config_to_dict(CONFIG)) == CONFIG

    def test_non_sweep_config_serializes_as_none(self):
        assert config_to_dict(("opaque", "config")) is None
        assert config_from_dict(None) is None


def _append_cells(store, sweep) -> None:
    with store.open(CONFIG):
        for key, cell in sweep.cells.items():
            store.append(key, cell, sweep.timings.get(key))


def _key(cell):
    return (cell.error_count, cell.probability, cell.profiler)


class TestShardStore:
    def test_append_load_roundtrip(self, sweep, tmp_path):
        store = ShardStore(tmp_path / "cells.jsonl", SWEEP_STORE)
        _append_cells(store, sweep)
        loaded = store.load()
        assert loaded.config == CONFIG
        assert loaded.results.keys() == sweep.cells.keys()
        for key in sweep.cells:
            assert loaded.results[key].words == sweep.cells[key].words
        assert loaded.seconds == pytest.approx(sweep.timings)

    def test_missing_file_loads_empty(self, tmp_path):
        store = ShardStore(tmp_path / "absent.jsonl")
        assert not store.exists()
        loaded = store.load()
        assert loaded.results == {} and loaded.config is None

    def test_appending_needs_a_format(self, tmp_path):
        with pytest.raises(ValueError, match="needs the store format"):
            ShardStore(tmp_path / "cells.jsonl").open(CONFIG)

    def test_truncated_final_line_tolerated(self, sweep, tmp_path):
        path = tmp_path / "cells.jsonl"
        store = ShardStore(path, SWEEP_STORE)
        _append_cells(store, sweep)
        intact = store.load()
        # Crash mid-append: the final record is cut somewhere inside.
        text = path.read_text()
        path.write_text(text[: len(text) - 40])
        survivors = ShardStore(path).load()
        assert len(survivors.results) == len(intact.results) - 1
        for key, cell in survivors.results.items():
            assert cell.words == intact.results[key].words

    def test_valid_tail_missing_newline_repaired_not_dropped(self, sweep, tmp_path):
        """A tear that ate only the final newline must not lose the record:
        load() parses it (so resume skips the cell), hence open() has to
        repair the terminator rather than truncate."""
        path = tmp_path / "cells.jsonl"
        cells = list(sweep.cells.values())
        store = ShardStore(path, SWEEP_STORE)
        with store.open(CONFIG):
            store.append(_key(cells[0]), cells[0])
            store.append(_key(cells[1]), cells[1])
        text = path.read_text()
        assert text.endswith("\n")
        path.write_text(text[:-1])  # tear exactly the terminator
        assert len(ShardStore(path).keys()) == 2  # load still counts it
        with ShardStore(path, SWEEP_STORE) as reopened:
            pass  # open() must repair, not trim
        loaded = ShardStore(path).load()
        assert len(loaded.results) == 2
        assert loaded.results[_key(cells[1])].words == cells[1].words

    def test_newline_terminated_corrupt_tail_trimmed_on_append(self, sweep, tmp_path):
        """A crash can persist the tail's newline while losing earlier
        bytes of the record; appending must trim it exactly like load()
        skips it, or the next append buries corruption mid-file."""
        path = tmp_path / "cells.jsonl"
        cells = list(sweep.cells.values())
        store = ShardStore(path, SWEEP_STORE)
        with store.open(CONFIG):
            store.append(_key(cells[0]), cells[0])
            store.append(_key(cells[1]), cells[1])
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][:30]  # corrupt record, newline kept
        path.write_text("\n".join(lines) + "\n")
        with ShardStore(path, SWEEP_STORE) as reopened:
            reopened.append(_key(cells[1]), cells[1])
        loaded = ShardStore(path).load()  # must not raise mid-file corruption
        assert len(loaded.results) == 2
        assert loaded.results[_key(cells[1])].words == cells[1].words

    def test_corrupt_middle_line_raises(self, sweep, tmp_path):
        path = tmp_path / "cells.jsonl"
        _append_cells(ShardStore(path, SWEEP_STORE), sweep)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-20]  # torn record *before* the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            ShardStore(path).load()

    def test_duplicate_keys_last_append_wins(self, sweep, tmp_path):
        key = next(iter(sweep.cells))
        other = run_sweep(replace(CONFIG, seed=CONFIG.seed + 1))
        store = ShardStore(tmp_path / "cells.jsonl", SWEEP_STORE)
        with store.open(CONFIG):
            store.append(key, sweep.cells[key])
            store.append(key, other.cells[key])
        loaded = store.load()
        assert loaded.results[key].words == other.cells[key].words


class TestResume:
    """run_sweep(..., resume=PATH) streams cells and skips persisted ones."""

    def test_first_run_persists_every_cell(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        result = run_sweep(CONFIG, resume=str(path))
        stored = ShardStore(path).load()
        assert stored.config == CONFIG
        assert stored.results.keys() == result.cells.keys()

    def test_interrupted_sweep_resumes_bit_identical(self, sweep, tmp_path):
        path = tmp_path / "resume.jsonl"
        run_sweep(CONFIG, resume=str(path))
        # Interrupt: drop the last persisted cell plus leave a torn tail,
        # exactly what a kill -9 mid-append leaves behind.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:25])
        before = ShardStore(path).keys()
        resumed = run_sweep(CONFIG, resume=str(path))
        assert len(before) == len(sweep.cells) - 1
        assert list(resumed.cells) == list(sweep.cells)  # grid order restored
        for key in sweep.cells:
            assert resumed.cells[key].words == sweep.cells[key].words, key
        # The store now holds the full grid for the next resume.
        assert ShardStore(path).keys() == set(sweep.cells)

    def test_complete_store_skips_all_work(self, sweep, tmp_path):
        path = tmp_path / "resume.jsonl"
        run_sweep(CONFIG, resume=str(path))
        size_before = path.stat().st_size
        again = run_sweep(CONFIG, resume=str(path))
        assert path.stat().st_size == size_before  # nothing re-appended
        for key in sweep.cells:
            assert again.cells[key].words == sweep.cells[key].words

    def test_resume_onto_sweep_document_rejected(self, sweep, tmp_path):
        """--resume pointed at a sweep_to_json artifact must refuse, not
        silently ignore its cells and append records that corrupt it."""
        path = tmp_path / "sweep.json"
        document = sweep_to_json(sweep) + "\n"
        path.write_text(document)
        with pytest.raises(ValueError, match="sweep_to_json document"):
            run_sweep(CONFIG, resume=str(path))
        assert path.read_text() == document  # the artifact is untouched

    def test_resume_onto_v1_document_rejected(self, sweep, tmp_path):
        """A configless ``repro-sweep-v1`` document is no store record
        either: resume refuses it as corrupt and leaves it untouched."""
        payload = json.loads(sweep_to_json(sweep))
        payload["format"] = "repro-sweep-v1"
        del payload["config"]
        path = tmp_path / "sweep-v1.json"
        document = json.dumps(payload) + "\n"
        path.write_text(document)
        with pytest.raises(ValueError, match="corrupt shard record on line 1"):
            run_sweep(CONFIG, resume=str(path))
        assert path.read_text() == document

    def test_configless_store_with_cells_rejected(self, sweep, tmp_path):
        """A store that holds cells but no config (hand-built or written
        without one) cannot be verified — resume must refuse, not merge."""
        path = tmp_path / "foreign.jsonl"
        store = ShardStore(path, SWEEP_STORE)
        key, cell = next(iter(sweep.cells.items()))
        with store.open():  # header with null config
            store.append(key, cell)
        with pytest.raises(ValueError, match="does not record the sweep config"):
            run_sweep(CONFIG, resume=str(path))

    def test_opaque_config_resume_rejected(self, tmp_path):
        """The config-mismatch guard cannot verify a non-SweepConfig, so
        resuming with one must refuse instead of silently mixing cells."""
        with pytest.raises(ValueError, match="opaque config"):
            run_sweep(("not", "a", "sweep-config"), resume=str(tmp_path / "x.jsonl"))
        assert not (tmp_path / "x.jsonl").exists()

    def test_trim_scans_only_a_tail_window_of_giant_records(self, tmp_path):
        """Paper-scale cell records exceed the initial 64 KiB tail window;
        the scan must grow past them and still repair/trim correctly."""
        path = tmp_path / "giant.jsonl"
        big = json.dumps({"kind": "blob", "payload": "x" * 200_000})
        path.write_text(big + "\n" + big + "\n" + big + "\n" + '{"torn": ')
        ShardStore(path)._trim_torn_tail()
        assert path.read_text() == big + "\n" + big + "\n" + big + "\n"
        # A giant *valid* tail missing only its newline gets repaired.
        path.write_text(big + "\n" + big)
        ShardStore(path)._trim_torn_tail()
        assert path.read_text() == big + "\n" + big + "\n"

    def test_bad_backend_spec_leaves_no_store_behind(self, tmp_path):
        path = tmp_path / "never.jsonl"
        with pytest.raises(ValueError, match="unknown backend"):
            run_sweep(CONFIG, backend="carrier-pigeon", resume=str(path))
        assert not path.exists()

    def test_mismatched_config_rejected(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        run_sweep(CONFIG, resume=str(path))
        with pytest.raises(ValueError, match="different sweep config"):
            run_sweep(replace(CONFIG, seed=CONFIG.seed + 1), resume=str(path))

    def test_resume_composes_with_parallel_backend(self, sweep, tmp_path):
        path = tmp_path / "resume.jsonl"
        run_sweep(CONFIG, resume=str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        resumed = run_sweep(CONFIG, jobs=2, resume=str(path))
        for key in sweep.cells:
            assert resumed.cells[key].words == sweep.cells[key].words, key


class TestFig10Store:
    """A ``repro-fig10-v1`` store: record round-trip and guards."""

    RESULT = (
        {"Naive": [[0.5, 0.25], [0.125, 0.0]]},
        {"Naive": [[0.0625, 0.0], [0.0, 0.0]]},
        {"Naive": [3, None]},
    )

    def test_roundtrip(self, tmp_path):
        from repro.experiments.config import CaseStudyConfig

        # A record must fit its header's config: the profilers, and
        # trajectories one entry per log-round tick (2 rounds: 2 ticks).
        config = CaseStudyConfig(
            num_codes=2, words_per_stratum=2, num_rounds=2, profilers=("Naive",)
        )
        path = tmp_path / "fig10.jsonl"
        store = ShardStore(path, FIG10_STORE)
        with store.open(config):
            store.append((0.75, 1, 2), self.RESULT)
        loaded_config, shards, _ = ShardStore(path, FIG10_STORE).load()
        assert loaded_config == config
        assert shards == {(0.75, 1, 2): self.RESULT}

    def test_duplicate_key_last_append_wins(self, tmp_path):
        path = tmp_path / "fig10.jsonl"
        store = ShardStore(path, FIG10_STORE)
        newer = ({"Naive": [[0.0, 0.0]]}, {"Naive": [[0.0, 0.0]]}, {"Naive": [1]})
        with store.open(None):
            store.append((0.5, 0, 2), self.RESULT)
            store.append((0.5, 0, 2), newer)
        assert ShardStore(path).load().results == {(0.5, 0, 2): newer}

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "fig10.jsonl"
        store = ShardStore(path, FIG10_STORE)
        with store.open(None):
            store.append((0.5, 0, 2), self.RESULT)
        with open(path, "a") as handle:
            handle.write('{"kind": "fig10", "probab')
        assert set(ShardStore(path).load().results) == {(0.5, 0, 2)}

    def test_recorded_seconds_load(self, tmp_path):
        path = tmp_path / "fig10.jsonl"
        with ShardStore(path, FIG10_STORE) as store:
            store.append((0.5, 0, 2), self.RESULT, seconds=1.5)
        assert ShardStore(path).load().seconds == {(0.5, 0, 2): 1.5}

    def test_sweep_store_loading_fig10_file_rejected(self, tmp_path):
        path = tmp_path / "fig10.jsonl"
        ShardStore(path, FIG10_STORE).open(None).close()
        with pytest.raises(ValueError, match="Fig 10 case-study store"):
            ShardStore(path, SWEEP_STORE).load()

    def test_fig10_store_loading_sweep_file_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ShardStore(path, SWEEP_STORE).open(None).close()
        with pytest.raises(ValueError, match="not a Fig 10 case-study store"):
            ShardStore(path, FIG10_STORE).load()

    def test_record_of_another_kind_rejected(self, tmp_path):
        path = tmp_path / "fig10.jsonl"
        with ShardStore(path, FIG10_STORE) as store:
            store.append((0.5, 0, 2), self.RESULT)
        with open(path, "a") as handle:
            handle.write(json.dumps({"kind": "fleet", "start": 0}) + "\n")
        with pytest.raises(ValueError, match="unknown shard record on line 3"):
            ShardStore(path).load()
