"""Tests of the ``repro store`` toolbox: summary, compact, merge.

The toolbox must agree exactly with what the stores themselves would
load — compaction (a merge of one store) keeps the winning
(last-appended) record per key, torn tails never survive a rewrite, and
merging refuses to mix campaigns — while streaming record by record.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import fig10, fleet
from repro.experiments.config import CaseStudyConfig, FleetConfig, SweepConfig
from repro.experiments.runner import run_sweep
from repro.experiments.store import FIG10_STORE, FLEET_STORE, SWEEP_STORE, ShardStore
from repro.experiments.storetools import merge, render_summary, store_main, summarize

CONFIG = SweepConfig(
    num_codes=2,
    words_per_code=2,
    num_rounds=16,
    error_counts=(2,),
    probabilities=(0.5, 1.0),
    profilers=("Naive", "HARP-U"),
)

CASE_CONFIG = CaseStudyConfig(
    num_codes=2,
    words_per_stratum=2,
    num_rounds=32,
    probabilities=(0.5,),
    rbers=(1e-4,),
    max_at_risk=3,
    profilers=("Naive", "HARP-U"),
)


FLEET_CONFIG = FleetConfig(
    num_chips=6, k=16, num_codes=2, num_rounds=8, rows=8, words_per_row=2, chips_per_shard=2
)


@pytest.fixture()
def sweep_store(tmp_path):
    path = tmp_path / "sweep.jsonl"
    run_sweep(CONFIG, resume=str(path))
    return path


@pytest.fixture()
def fig10_store(tmp_path):
    path = tmp_path / "fig10.jsonl"
    fig10.run(CASE_CONFIG, resume=str(path))
    return path


def _duplicate_last_cell(path):
    """Append a stale copy of an existing cell (superseded on load)."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines) + "\n" + lines[-1] + "\n")


class TestSummary:
    def test_counts_cells_and_config(self, sweep_store):
        summary = summarize(sweep_store)
        assert summary.format == "repro-sweep-v2"
        assert summary.distinct == {"cell": 4}
        assert summary.superseded == 0
        assert summary.torn_tail is False
        assert summary.words == 4 * CONFIG.num_codes * CONFIG.words_per_code
        assert summary.config["seed"] == CONFIG.seed
        text = render_summary(summary)
        assert "4 sweep cells" in text
        assert "repro-sweep-v2" in text

    def test_flags_superseded_and_torn_tail(self, sweep_store):
        _duplicate_last_cell(sweep_store)
        with open(sweep_store, "a") as handle:
            handle.write('{"kind": "cell", "error_coun')
        summary = summarize(sweep_store)
        assert summary.superseded == 1
        assert summary.torn_tail is True
        assert summary.distinct == {"cell": 4}
        text = render_summary(summary)
        assert "superseded" in text
        assert "torn final line" in text

    def test_fig10_store_summarizes(self, fig10_store):
        summary = summarize(fig10_store)
        assert summary.format == "repro-fig10-v1"
        assert summary.distinct == {"fig10": len(fig10.shard_case_study(CASE_CONFIG))}
        assert "fig10 shards" in render_summary(summary)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            summarize(tmp_path / "nope.jsonl")

    def test_sweep_document_rejected(self, tmp_path):
        from repro.experiments.store import sweep_to_json

        path = tmp_path / "doc.json"
        path.write_text(sweep_to_json(run_sweep(CONFIG)) + "\n")
        with pytest.raises(ValueError, match="sweep_to_json document"):
            summarize(path)


class TestGridCoverage:
    """`store summary` derives the full grid from the embedded config."""

    def test_complete_sweep_store(self, sweep_store):
        summary = summarize(sweep_store)
        assert summary.cells_total == 4  # 1 error count x 2 probs x 2 profilers
        assert summary.cells_done == 4
        assert summary.eta_seconds == 0.0
        assert summary.grid == "1 error counts × 2 probabilities × 2 profilers = 4 cells"
        text = render_summary(summary)
        assert "grid     1 error counts × 2 probabilities × 2 profilers = 4 cells" in text
        assert "progress 4/4 cells done (100.0%)" in text

    def test_partial_store_reports_coverage_and_eta(self, sweep_store):
        """An interrupted run (header + a prefix of cells) reports
        cells-done/cells-total and extrapolates an ETA."""
        lines = sweep_store.read_text().splitlines()
        sweep_store.write_text("\n".join(lines[:3]) + "\n")  # header + 2 cells
        summary = summarize(sweep_store)
        assert summary.cells_done == 2
        assert summary.cells_total == 4
        assert summary.eta_seconds is not None and summary.eta_seconds > 0.0
        # Remaining = done's average per-cell seconds x 2 missing cells.
        assert summary.eta_seconds == pytest.approx(summary.total_seconds)
        text = render_summary(summary)
        assert "progress 2/4 cells done (50.0%)" in text
        assert "eta ~" in text

    def test_resumed_store_converges_to_full_coverage(self, sweep_store):
        """Truncate, resume, summarize: coverage goes back to done."""
        lines = sweep_store.read_text().splitlines()
        sweep_store.write_text("\n".join(lines[:2]) + "\n")
        assert summarize(sweep_store).cells_done == 1
        run_sweep(CONFIG, resume=str(sweep_store))
        resumed = summarize(sweep_store)
        assert resumed.cells_done == resumed.cells_total == 4
        assert resumed.eta_seconds == 0.0

    def test_fig10_store_grid(self, fig10_store):
        summary = summarize(fig10_store)
        assert summary.grid == "1 probabilities × 2 codes × 2 strata = 4 cells"
        assert summary.cells_done == summary.cells_total == 4
        # Fig 10 shards record their compute seconds for the ETA math.
        assert summary.total_seconds > 0.0

    def test_mismatched_grids_visible_in_summaries(self, sweep_store, tmp_path):
        """Satellite: mismatched merges are diagnosable from the summary
        alone — the two grid lines differ."""
        other = tmp_path / "other.jsonl"
        run_sweep(
            SweepConfig(
                num_codes=2,
                words_per_code=2,
                num_rounds=16,
                error_counts=(2, 3),
                probabilities=(0.5,),
                profilers=("Naive",),
            ),
            resume=str(other),
        )
        with pytest.raises(ValueError, match="different config"):
            merge([sweep_store, other], tmp_path / "merged.jsonl")
        assert summarize(sweep_store).grid != summarize(other).grid

    def test_healed_quarantine_marker_reported_resolved(self, sweep_store):
        """A quarantine marker whose cell later completed (the auto-retry
        pass, or a targeted re-run) is reported as healed — not listed
        as quarantined, and never double-counted against coverage."""
        key = (2, 0.5, "Naive")
        with ShardStore(sweep_store, SWEEP_STORE) as store:
            store.append_quarantine(key)
        summary = summarize(sweep_store)
        assert summary.quarantined == []  # the completed cell resolves it
        assert summary.healed == [key]
        assert summary.cells_done == summary.cells_total == 4  # no double count
        text = render_summary(summary)
        assert "healed   1 shard(s) resolved" in text
        assert "progress 4/4 cells done (100.0%)" in text
        assert "quarantine " not in text

    def test_unresolved_marker_still_listed_quarantined(self, sweep_store):
        """A marker with no completed record of its key stays in the
        awaiting-re-run list and is not claimed healed."""
        lines = sweep_store.read_text().splitlines()
        sweep_store.write_text("\n".join(lines[:3]) + "\n")  # drop 2 cells
        missing = (2, 1.0, "HARP-U")
        with ShardStore(sweep_store, SWEEP_STORE) as store:
            store.append_quarantine(missing)
        summary = summarize(sweep_store)
        assert summary.quarantined == [missing]
        assert summary.healed == []
        text = render_summary(summary)
        assert "awaiting a targeted" in text
        assert "healed" not in text

    def test_headerless_store_has_no_coverage(self, sweep_store):
        lines = sweep_store.read_text().splitlines()
        sweep_store.write_text("\n".join(lines[1:]) + "\n")
        summary = summarize(sweep_store)
        assert summary.cells_total is None
        assert summary.grid is None
        assert "progress" not in render_summary(summary)


class TestCompact:
    """``repro store PATH compact`` is ``merge([PATH], PATH)``."""

    def test_drops_superseded_and_torn_tail(self, sweep_store):
        before = ShardStore(sweep_store).load()
        _duplicate_last_cell(sweep_store)
        with open(sweep_store, "a") as handle:
            handle.write('{"kind": "cell", "error_coun')
        stats = merge([sweep_store], sweep_store)
        assert stats.superseded == 1
        assert stats.torn_tails == 1
        after = ShardStore(sweep_store).load()
        assert after.results.keys() == before.results.keys()
        for key in before.results:
            assert after.results[key].words == before.results[key].words
        assert summarize(sweep_store).superseded == 0
        assert summarize(sweep_store).torn_tail is False

    def test_idempotent_byte_identical(self, sweep_store):
        _duplicate_last_cell(sweep_store)
        merge([sweep_store], sweep_store)
        first = sweep_store.read_bytes()
        stats = merge([sweep_store], sweep_store)
        assert stats.superseded == 0
        assert sweep_store.read_bytes() == first

    def test_compact_to_separate_output(self, sweep_store, tmp_path):
        output = tmp_path / "out.jsonl"
        original = sweep_store.read_bytes()
        assert store_main([str(sweep_store), "compact", "-o", str(output)]) == 0
        assert output.exists()
        assert sweep_store.read_bytes() == original  # source untouched

    def test_compacted_store_still_resumes(self, sweep_store):
        """A compacted store is a valid --resume target."""
        _duplicate_last_cell(sweep_store)
        merge([sweep_store], sweep_store)
        reference = run_sweep(CONFIG)
        resumed = run_sweep(CONFIG, resume=str(sweep_store))
        for key in reference.cells:
            assert resumed.cells[key].words == reference.cells[key].words

    def test_fig10_store_compacts(self, fig10_store):
        lines = fig10_store.read_text().splitlines()
        fig10_store.write_text("\n".join(lines + [lines[-1]]) + "\n")
        stats = merge([fig10_store], fig10_store)
        assert stats.superseded == 1
        reference = fig10.run(CASE_CONFIG)
        assert fig10.run(CASE_CONFIG, resume=str(fig10_store)) == reference


#: Store kind -> (format, run writing a store to ``resume``).
DRIVERS = {
    "sweep": (SWEEP_STORE, lambda resume: run_sweep(CONFIG, resume=resume)),
    "fig10": (FIG10_STORE, lambda resume: fig10.run(CASE_CONFIG, resume=resume)),
    "fleet": (FLEET_STORE, lambda resume: fleet.run(FLEET_CONFIG, resume=resume)),
}


@pytest.fixture(params=sorted(DRIVERS))
def damaged_store(request, tmp_path):
    """A store of each kind carrying every kind of debris compact clears.

    Its first record is replaced by a quarantine marker nothing resolves,
    the second gets a marker that a re-appended copy resolves, the last
    record is appended again, and a torn half line ends the file.
    Returns the path and the lines compaction must keep, in order.
    """
    store_format, run = DRIVERS[request.param]
    path = tmp_path / f"{request.param}.jsonl"
    run(str(path))
    header, *records = path.read_text().splitlines(keepends=True)
    keys = [key[1:] for _, key, _ in ShardStore(path).iter_records()][1:]
    assert len(records) >= 3, "the store needs three records to damage"
    markers_path = tmp_path / "markers.jsonl"
    with ShardStore(markers_path, store_format) as markers:
        markers.append_quarantine(keys[0])
        markers.append_quarantine(keys[1])
    unresolved, resolved = markers_path.read_text().splitlines(keepends=True)[1:]
    torn = records[-1][: len(records[-1]) // 2]
    path.write_text(
        "".join([header, *records[1:], unresolved, resolved, records[1], records[-1], torn])
    )
    return path, [header, *records[2:-1], unresolved, records[1], records[-1]]


class TestCompactIsAOneStoreMerge:
    """Each store kind: duplicates, quarantine markers and a torn tail."""

    def test_keeps_the_winners_and_is_idempotent(self, damaged_store, tmp_path, capsys):
        path, expected = damaged_store
        output = tmp_path / "compacted.jsonl"
        assert store_main([str(path), "compact", "-o", str(output)]) == 0
        assert capsys.readouterr().out == (
            f"compacted {path} -> {output}: kept {len(expected)} record(s), "
            "dropped 3 superseded, torn tail trimmed\n"
        )
        assert output.read_text() == "".join(expected)
        assert store_main([str(output), "compact"]) == 0
        assert capsys.readouterr().out == (
            f"compacted {output} -> {output}: kept {len(expected)} record(s), "
            "dropped 0 superseded\n"
        )
        assert output.read_text() == "".join(expected)


class TestMerge:
    def test_two_machine_stores_merge_to_full_sweep(self, tmp_path):
        """Each 'machine' persists a disjoint half; the merge resumes as
        a complete store (the §A.7 aggregate-raw-files workflow)."""
        full = tmp_path / "full.jsonl"
        run_sweep(CONFIG, resume=str(full))
        lines = full.read_text().splitlines()
        header, cells = lines[0], lines[1:]
        left = tmp_path / "left.jsonl"
        right = tmp_path / "right.jsonl"
        left.write_text("\n".join([header] + cells[: len(cells) // 2]) + "\n")
        right.write_text("\n".join([header] + cells[len(cells) // 2 :]) + "\n")
        merged = tmp_path / "merged.jsonl"
        stats = merge([left, right], merged)
        assert stats.kept == len(cells)
        assert stats.superseded == 0
        reference = run_sweep(CONFIG)
        resumed = run_sweep(CONFIG, resume=str(merged))
        for key in reference.cells:
            assert resumed.cells[key].words == reference.cells[key].words

    def test_duplicate_keys_last_input_wins(self, sweep_store, tmp_path):
        merged = tmp_path / "merged.jsonl"
        stats = merge([sweep_store, sweep_store], merged)
        assert stats.superseded == 4
        assert summarize(merged).distinct == {"cell": 4}

    def test_output_may_be_an_input(self, sweep_store, tmp_path):
        other = tmp_path / "other.jsonl"
        other.write_bytes(sweep_store.read_bytes())
        merge([sweep_store, other], sweep_store)
        assert summarize(sweep_store).distinct == {"cell": 4}

    def test_refuses_mixed_formats(self, sweep_store, fig10_store, tmp_path):
        with pytest.raises(ValueError, match="cannot merge"):
            merge([sweep_store, fig10_store], tmp_path / "out.jsonl")

    def test_refuses_mixed_configs(self, sweep_store, tmp_path):
        other = tmp_path / "other.jsonl"
        run_sweep(
            SweepConfig(
                num_codes=2,
                words_per_code=2,
                num_rounds=16,
                error_counts=(2,),
                probabilities=(0.5, 1.0),
                profilers=("Naive", "HARP-U"),
                seed=7,
            ),
            resume=str(other),
        )
        with pytest.raises(ValueError, match="different config"):
            merge([sweep_store, other], tmp_path / "out.jsonl")

    def test_merge_action_needs_two_inputs(self, sweep_store, tmp_path, capsys):
        """merge() takes one store (that is compact); the action does not."""
        output = tmp_path / "out.jsonl"
        assert store_main([str(sweep_store), "merge", "-o", str(output)]) == 1
        assert "at least two stores" in capsys.readouterr().err
        assert not output.exists()


class TestStoreCli:
    """The ``python -m repro store`` surface."""

    def test_summary_via_main(self, sweep_store, capsys):
        assert main(["store", str(sweep_store), "summary"]) == 0
        assert "sweep cells" in capsys.readouterr().out

    def test_compact_via_main(self, sweep_store, capsys):
        _duplicate_last_cell(sweep_store)
        assert main(["store", str(sweep_store), "compact"]) == 0
        assert "dropped 1 superseded" in capsys.readouterr().out

    def test_merge_via_main(self, sweep_store, tmp_path, capsys):
        out = tmp_path / "merged.jsonl"
        assert (
            main(["store", str(sweep_store), "merge", str(sweep_store), "-o", str(out)])
            == 0
        )
        assert "merged 2 store(s)" in capsys.readouterr().out
        assert out.exists()

    def test_merge_without_output_fails(self, sweep_store, capsys):
        assert main(["store", str(sweep_store), "merge", str(sweep_store)]) == 1
        assert "--output" in capsys.readouterr().err

    def test_missing_store_fails_cleanly(self, tmp_path, capsys):
        assert main(["store", str(tmp_path / "nope.jsonl"), "summary"]) == 1
        assert "no shard store" in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            store_main(["--help"])
        assert excinfo.value.code == 0
