"""Tests of the campaign control plane (``repro.experiments.monitor``).

Covers the coverage/ETA math shared by ``--progress`` and ``store
summary``, the ``repro-status-v2`` snapshot over HTTP (server, client,
renderer, CLI, against a status port, a daemon and a work port), live
status served from a running socket map, and the
continue-past-quarantine mode end-to-end: the poison chunk is set
aside, the rest of the grid completes bit-identically, and the
quarantined shard keys are reported by the drivers, the stores, and the
store toolbox.
"""

import http.client
import io
import json
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.experiments import fig10
from repro.experiments.backends import (
    ExecutionBackend,
    SocketBackend,
    WorkServer,
    run_worker,
)
from repro.experiments.config import CaseStudyConfig, SweepConfig
from repro.experiments.monitor import (
    STATUS_FORMAT,
    ThroughputHistory,
    ProgressReporter,
    estimate_eta,
    format_eta,
    format_grid,
    grid_shape,
    quarantine_report,
    read_status,
    render_status,
    status_main,
)
from repro.experiments.runner import run_sweep, shard_grid
from repro.experiments.service import CampaignService, StatusHandler, serve_http
from repro.experiments.store import ShardStore
from repro.experiments.storetools import merge, summarize
from serviceharness import map_in_order, repro_env, wait_for_address, wait_until

CONFIG = SweepConfig(
    num_codes=2,
    words_per_code=2,
    num_rounds=16,
    error_counts=(2, 3),
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

SOCKET_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# Coverage and ETA math
# ----------------------------------------------------------------------


class TestGridShape:
    def test_sweep_config_object_and_header_dict_agree(self):
        from repro.experiments.store import config_to_dict

        from_object = grid_shape(CONFIG)
        from_dict = grid_shape(config_to_dict(CONFIG))
        assert from_object == from_dict
        dims, total = from_object
        assert total == 2 * 2 * 2
        assert dims == [
            ("error counts", 2),
            ("probabilities", 2),
            ("profilers", 2),
        ]

    def test_case_config_strata(self):
        dims, total = grid_shape(CASE_CONFIG)
        assert dims == [("probabilities", 1), ("codes", 2), ("strata", 2)]
        assert total == 1 * 2 * 2

    def test_unrecognized_shapes(self):
        assert grid_shape(None) is None
        assert grid_shape({"unrelated": 1}) is None
        assert grid_shape(object()) is None

    def test_format_grid(self):
        dims, total = grid_shape(CONFIG)
        text = format_grid(dims, total)
        assert "2 error counts" in text
        assert "2 profilers" in text
        assert text.endswith("= 8 cells")


class TestEta:
    def test_no_rate_yet(self):
        assert estimate_eta(0, 10, 0.0) is None
        assert estimate_eta(0, 10, 5.0) is None
        assert estimate_eta(4, 10, 0.0) is None

    def test_complete_grid_is_zero(self):
        assert estimate_eta(10, 10, 100.0) == 0.0
        assert estimate_eta(12, 10, 100.0) == 0.0

    def test_linear_extrapolation(self):
        # 4 cells in 8 seconds -> 2 s/cell -> 6 remaining = 12 s.
        assert estimate_eta(4, 10, 8.0) == pytest.approx(12.0)

    def test_format_eta(self):
        assert format_eta(None) == "unknown"
        assert format_eta(12.4) == "12s"
        assert format_eta(200) == "3m20s"
        assert format_eta(7500) == "2h05m"


class TestProgressReporter:
    def test_lines_show_coverage_and_eta(self):
        clock = iter([0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]).__next__
        stream = io.StringIO()
        reporter = ProgressReporter(4, interval=0.0, stream=stream, clock=clock)
        reporter.start(done=1, cell_seconds=5.0)
        reporter.completed(2.0)
        reporter.completed(2.0)
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("progress 1/4 cells (25.0%)")
        assert "5.0 cell-seconds recorded" in lines[0]
        assert "progress 3/4 cells (75.0%)" in lines[2]
        # Wall-clock rate: 2 fresh cells over the elapsed window, 1 left.
        assert "eta ~" in lines[2]

    def test_interval_suppresses_intermediate_lines(self):
        ticks = iter([float(i) for i in range(100)]).__next__
        stream = io.StringIO()
        reporter = ProgressReporter(50, interval=1000.0, stream=stream, clock=ticks)
        reporter.start()
        for _ in range(49):
            reporter.completed(0.1)
        lines = stream.getvalue().splitlines()
        # Opening line plus nothing until... not the final cell yet.
        assert len(lines) == 1
        reporter.completed(0.1)  # the last cell always reports
        assert stream.getvalue().splitlines()[-1].startswith("progress 50/50")

    def test_finish_prints_closing_line_despite_interval_gate(self):
        ticks = iter([float(i) for i in range(20)]).__next__
        stream = io.StringIO()
        reporter = ProgressReporter(4, interval=1000.0, stream=stream, clock=ticks)
        reporter.start()
        for _ in range(3):
            reporter.completed(0.1)
        reporter.finish(quarantined=1)
        last = stream.getvalue().splitlines()[-1]
        assert last.startswith("progress 3/4 cells (75.0%)")
        assert "1 shard(s) quarantined" in last

    def test_finish_is_noop_after_a_complete_grid(self):
        ticks = iter([float(i) for i in range(20)]).__next__
        stream = io.StringIO()
        reporter = ProgressReporter(2, interval=0.0, stream=stream, clock=ticks)
        reporter.start()
        reporter.completed()
        reporter.completed()
        before = stream.getvalue()
        reporter.finish()
        assert stream.getvalue() == before

    def test_run_sweep_progress_lines_on_stderr(self, capsys):
        run_sweep(CONFIG, progress=0.0)
        err = capsys.readouterr().err
        assert "progress 0/8 cells (0.0%)" in err
        assert "progress 8/8 cells (100.0%)" in err

    def test_progress_off_is_silent(self, capsys):
        run_sweep(CONFIG)
        assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# Status protocol
# ----------------------------------------------------------------------


def _serve_snapshot(snapshot: dict):
    """A ``--status-port`` server answering ``snapshot``, with the
    ``address`` and ``close()`` these tests use."""
    server = serve_http(("127.0.0.1", 0), StatusHandler, snapshot=lambda: snapshot)
    server.address = server.server_address
    server.close = lambda: (server.shutdown(), server.server_close())
    return server


class TestStatusProtocol:
    SNAPSHOT = {
        "format": STATUS_FORMAT,
        "elapsed": 3.5,
        "fleet": {"size": 2, "joined_total": 3, "expected": 2},
        "workers": [
            {"pid": 11, "heartbeat_age": 0.25, "chunk": 4},
            {"pid": 12, "heartbeat_age": 1.5, "chunk": None},
        ],
        "chunks": {"total": 9, "done": 5, "pending": 2, "in_flight": 2},
        "retries": 1,
        "quarantined": [3],
    }

    def test_roundtrip(self):
        server = _serve_snapshot(self.SNAPSHOT)
        try:
            assert read_status(server.address) == self.SNAPSHOT
            host, port = server.address
            assert read_status(f"{host}:{port}") == self.SNAPSHOT
        finally:
            server.close()

    def test_snapshot_is_json_for_any_http_client(self):
        """The promise to curl: a plain GET gets a 200 JSON snapshot."""
        server = _serve_snapshot(self.SNAPSHOT)
        try:
            connection = http.client.HTTPConnection(*server.address, timeout=5)
            connection.request("GET", "/status")
            response = connection.getresponse()
            body = response.read()
            connection.close()
        finally:
            server.close()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/json"
        assert json.loads(body) == self.SNAPSHOT

    def test_status_cli_on_the_work_port_fails_fast(self, capsys):
        """The classic mistake: the work port drops the GET at once, so
        ``repro status`` ends in one line well inside its timeout."""
        server = WorkServer(spawn_workers=0).start()
        try:
            host, port = server.address
            started = time.monotonic()
            assert status_main([f"{host}:{port}", "--timeout", "30"]) == 1
            elapsed = time.monotonic() - started
        finally:
            server.close()
        assert elapsed < 10, elapsed
        err = capsys.readouterr().err
        assert err.startswith("repro status: ") and err.count("\n") == 1, err

    def test_status_cli_renders_a_daemons_job_counts(self, tmp_path, capsys):
        """``repro status`` reads the daemon's HTTP port like a status port."""
        service = CampaignService(str(tmp_path / "state"), workers=0).start()
        try:
            job = service.scheduler.submit({"kind": "sweep"})
            service.scheduler.cancel(job.id)
            wait_until(lambda: job.state == "cancelled")
            host, port = service.http_address
            assert status_main([f"{host}:{port}"]) == 0
        finally:
            service.close()
        out = capsys.readouterr().out
        assert out.startswith(f"status   {STATUS_FORMAT}"), out
        assert "jobs     0 queued · 0 running · 0 done · 0 failed · 1 cancelled" in out

    def test_campaign_imports_load_no_http_machinery(self):
        """The HTTP server and client load only when a status port, the
        daemon or a client runs, so a campaign's setup does not pay for them."""
        probe = (
            "import sys, repro.cli, repro.experiments.runner, "
            "repro.experiments.fig10, repro.experiments.fleet; "
            "print(sorted({'http.server', 'urllib.request'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=repro_env(), capture_output=True,
            text=True, check=True,
        )
        assert result.stdout.strip() == "[]", result

    def test_wrong_format_rejected(self):
        server = _serve_snapshot({"format": "not-a-status"})
        try:
            with pytest.raises(ValueError, match="unknown status format"):
                read_status(server.address)
        finally:
            server.close()

    def test_v1_snapshot_rejected(self, capsys):
        """Only ``repro-status-v2`` reads; a v1 peer gets one
        ``repro status:`` line and exit 1."""
        server = _serve_snapshot({**self.SNAPSHOT, "format": "repro-status-v1"})
        try:
            with pytest.raises(ValueError, match="unknown status format"):
                read_status(server.address)
            host, port = server.address
            assert status_main([f"{host}:{port}"]) == 1
        finally:
            server.close()
        err = capsys.readouterr().err
        assert err.startswith("repro status: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fleet", []),
            ("elapsed", "soon"),
            ("workers", [1]),
            ("jobs", ["x"]),
            ("campaign", [1]),
            ("chunks", 3),
            ("history", {"t": 1.0, "done": 1}),
            ("quarantined", 3),
            ("history", [{"t": 0, "done": 0}, {"t": float("inf"), "done": 1}]),
            ("history", [{"t": 0, "done": 0}, {"t": float("nan"), "done": 1}]),
            ("elapsed", 10**400),
        ],
    )
    def test_ill_typed_snapshot_fails_in_one_line(self, field, value, capsys):
        """Every field ``render_status`` reads is type-checked first, so a
        snapshot of the right format but the wrong shape gets one
        ``repro status:`` line naming the field, not a traceback."""
        server = _serve_snapshot({**self.SNAPSHOT, field: value})
        try:
            with pytest.raises(ValueError, match=f"field '{field}"):
                read_status(server.address)
            host, port = server.address
            assert status_main([f"{host}:{port}"]) == 1
        finally:
            server.close()
        err = capsys.readouterr().err
        assert err.startswith("repro status: ") and err.count("\n") == 1, err
        assert field in err

    def test_unrenderable_snapshot_fails_in_one_line(self, capsys):
        """Finite fields whose rendition overflows (a history span past
        the float range) also end in one ``repro status:`` line."""
        history = [{"t": -1e308, "done": 0}, {"t": 1e308, "done": 1}]
        server = _serve_snapshot({**self.SNAPSHOT, "history": history})
        try:
            host, port = server.address
            assert status_main([f"{host}:{port}"]) == 1
        finally:
            server.close()
        err = capsys.readouterr().err
        assert err.startswith("repro status: ") and err.count("\n") == 1, err

    def test_nothing_listening_raises_oserror(self):
        with pytest.raises(OSError):
            read_status("127.0.0.1:9", timeout=1.0)

    def test_render_mentions_every_operational_signal(self):
        text = render_status(self.SNAPSHOT)
        assert "2 worker(s) connected" in text
        assert "3 joined in total" in text
        assert "2 expected" in text
        assert "pid 11 · chunk 4 in flight" in text
        assert "pid 12 · idle" in text
        assert "5/9 done · 2 queued · 2 in flight" in text
        assert "1 chunk requeue(s)" in text
        assert "quarantine chunk(s) 3" in text

    def test_render_shows_elastic_churn_and_auto_retry_fields(self):
        """The elastic-transport snapshot fields render; their absence
        (a pre-elastic server) must not break rendering either — the
        schema is additive."""
        snapshot = {
            **self.SNAPSHOT,
            "wire": "v1",
            "fleet": {**self.SNAPSHOT["fleet"], "left_total": 1},
            "chunks": {**self.SNAPSHOT["chunks"], "deferred": 2},
            "healed": 3,
        }
        text = render_status(snapshot)
        assert "wire v1" in text
        assert "1 drained out" in text
        assert "2 deferred for auto-retry" in text
        assert "3 shard(s) recovered" in text
        # The legacy snapshot (no churn fields) stays renderable.
        legacy = render_status(self.SNAPSHOT)
        assert "drained out" not in legacy
        assert "auto-retry" not in legacy

    def test_status_cli_renders_and_exits_zero(self, capsys):
        server = _serve_snapshot(self.SNAPSHOT)
        try:
            host, port = server.address
            assert status_main([f"{host}:{port}"]) == 0
            out = capsys.readouterr().out
            assert "fleet    2 worker(s)" in out
            assert main(["status", f"{host}:{port}", "--json"]) == 0
            assert json.loads(capsys.readouterr().out) == self.SNAPSHOT
        finally:
            server.close()

    def test_status_cli_fails_cleanly_when_unreachable(self, capsys):
        assert status_main(["127.0.0.1:9", "--timeout", "1"]) == 1
        assert "repro status:" in capsys.readouterr().err

    def test_status_cli_fails_cleanly_on_a_deeply_nested_line(self, capsys):
        """A peer that answers with JSON nested past the recursion limit
        gets one ``repro status:`` line, not a RecursionError traceback."""
        listener = socket.create_server(("127.0.0.1", 0))

        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.sendall(b"[" * 100_000 + b"\n")

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        try:
            host, port = listener.getsockname()
            assert status_main([f"{host}:{port}", "--timeout", "5"]) == 1
        finally:
            thread.join(timeout=5)
            listener.close()
        err = capsys.readouterr().err
        assert err.startswith("repro status: ") and err.count("\n") == 1, err


class TestStatusV2:
    """The repro-status-v2 fields: ``maps`` and the throughput ``history``."""

    def test_v2_maps_and_history_render(self):
        snapshot = {
            **TestStatusProtocol.SNAPSHOT,
            "maps": {"active": 2, "opened": 5},
            "history": [{"t": 1.0, "done": 2}, {"t": 31.0, "done": 8}],
        }
        text = render_status(snapshot)
        assert "maps     2 campaign(s) active · 5 opened since start" in text
        assert "history  +6 chunk(s)" in text
        assert "(~12.0/min)" in text
        assert "2 sample(s)" in text
        # A snapshot without the optional fields lacks their lines.
        legacy = render_status(TestStatusProtocol.SNAPSHOT)
        assert "maps" not in legacy
        assert "history" not in legacy

    def test_throughput_history_coalesces_and_caps(self):
        history = ThroughputHistory(maxlen=3, min_interval=1.0)
        history.record(0.0, 1)
        history.record(0.4, 2)  # within min_interval: folded into the last
        assert history.sample() == [{"t": 0.0, "done": 2}]
        for tick in (2.0, 4.0, 6.0, 8.0):
            history.record(tick, int(tick))
        assert len(history) == 3  # ring buffer, oldest samples dropped
        assert history.sample()[-1] == {"t": 8.0, "done": 8}
        assert history.sample()[0] == {"t": 4.0, "done": 4}


def _sleepy_item(value):
    time.sleep(0.25)
    return value * 2


class TestLiveStatus:
    """A socket backend's server serves real snapshots on --status-port."""

    def test_snapshot_during_live_map(self):
        with SocketBackend(spawn_workers=0, status_port=0, timeout=SOCKET_TIMEOUT) as backend:

            def worker():
                host, port = wait_for_address(backend)
                run_worker(f"{host}:{port}")

            threading.Thread(target=worker, daemon=True).start()
            iterator = backend.imap_unordered(_sleepy_item, list(range(4)), chunksize=1)
            first = next(iterator)  # map is live, at least one chunk done
            snapshot = read_status(backend.status_address)
            rest = list(iterator)
            # The status listener outlives the map: it lives with the backend.
            assert read_status(backend.status_address)["chunks"]["done"] == 4
        assert backend.status_address is None
        assert snapshot["format"] == STATUS_FORMAT
        assert snapshot["chunks"]["total"] == 4
        assert snapshot["chunks"]["done"] >= 1
        assert snapshot["fleet"]["size"] == 1
        assert snapshot["fleet"]["joined_total"] == 1
        (worker_entry,) = snapshot["workers"]
        assert worker_entry["heartbeat_age"] >= 0.0
        assert snapshot["elapsed"] > 0.0
        assert snapshot["retries"] == 0
        assert snapshot["quarantined"] == []
        assert sorted([first] + rest) == [(i, i * 2) for i in range(4)]

    def test_status_port_lives_until_the_backend_closes(self):
        """One port serves both maps and still answers after them, with
        both maps' chunks counted; closing the backend closes it."""
        with SocketBackend(spawn_workers=1, status_port=0, timeout=SOCKET_TIMEOUT) as backend:
            assert map_in_order(backend, _sleepy_item, [1], chunksize=1) == [2]
            status = backend.status_address
            assert map_in_order(backend, _sleepy_item, [2, 3], chunksize=1) == [4, 6]
            assert backend.status_address == status
            snapshot = read_status(status)
        assert backend.status_address is None
        assert (snapshot["chunks"]["total"], snapshot["chunks"]["done"]) == (3, 3)
        assert snapshot["maps"] == {"active": 0, "opened": 2}
        with pytest.raises(OSError):
            read_status(status)


# ----------------------------------------------------------------------
# Continue-past-quarantine
# ----------------------------------------------------------------------


def _exit_on_poison_item(item):
    """Hard-kills the worker process on the poison item (never returns)."""
    import os

    if item == "poison":
        os._exit(1)
    return item


class TestContinuePastQuarantine:
    def test_poison_chunk_skipped_rest_completes_keys_reported(self):
        """The acceptance scenario at the backend level: 3 workers, one
        poison chunk, budget 1 — the map must finish everything else and
        name the quarantined shard index."""
        with SocketBackend(
            spawn_workers=3,
            max_chunk_retries=1,
            continue_past_quarantine=True,
            timeout=SOCKET_TIMEOUT,
        ) as backend:
            pairs = list(
                backend.imap_unordered(
                    _exit_on_poison_item, ["ok", "poison", "fine"], chunksize=1
                )
            )
        assert sorted(pairs) == [(0, "ok"), (2, "fine")]
        assert backend.quarantined_shards == (1,)

    def test_next_map_resets_quarantine(self):
        with SocketBackend(
            spawn_workers=2,
            max_chunk_retries=0,
            continue_past_quarantine=True,
            timeout=SOCKET_TIMEOUT,
        ) as backend:
            list(backend.imap_unordered(_exit_on_poison_item, ["poison", "a"], chunksize=1))
            assert backend.quarantined_shards == (0,)
            assert map_in_order(backend, _exit_on_poison_item, ["b", "c"]) == ["b", "c"]
            assert backend.quarantined_shards == ()

    def test_default_mode_still_aborts(self):
        with SocketBackend(
            spawn_workers=3, max_chunk_retries=1, timeout=SOCKET_TIMEOUT
        ) as backend:
            with pytest.raises(RuntimeError, match="retry budget|poison"):
                map_in_order(backend, _exit_on_poison_item, ["ok", "poison"], chunksize=1)


class _QuarantiningBackend(ExecutionBackend):
    """Serial backend that sets one fixed shard index aside.

    Stands in for a socket fleet whose poison chunk exhausted its
    budget, so the *driver-level* quarantine contract (keys reported,
    markers stored, everything else bit-identical) is testable without
    spawning processes.
    """

    name = "quarantining-stub"

    def __init__(self, skip_index: int) -> None:
        self.skip_index = skip_index

    def imap_unordered(self, worker, shards, chunksize=1):
        self.quarantined_shards = ()
        for index, shard in enumerate(shards):
            if index == self.skip_index:
                self.quarantined_shards = (index,)
                continue
            yield index, worker(shard)


class TestRunSweepQuarantine:
    """run_sweep end-to-end: grid completes minus the poison cell."""

    def test_keys_reported_rest_bit_identical_and_rerun_heals(self, tmp_path):
        store_path = tmp_path / "sweep.jsonl"
        reference = run_sweep(CONFIG)
        skipped_key = shard_grid(CONFIG)[3].key

        result = run_sweep(
            CONFIG, backend=_QuarantiningBackend(3), resume=str(store_path)
        )
        assert result.quarantined == (skipped_key,)
        assert skipped_key not in result.cells
        assert set(result.cells) == set(reference.cells) - {skipped_key}
        for key in result.cells:
            assert result.cells[key].words == reference.cells[key].words, key

        # The store remembers: summary names the pending key, load skips it.
        summary = summarize(store_path)
        assert summary.quarantined == [skipped_key]
        assert summary.cells_done == len(reference.cells) - 1
        assert ShardStore(store_path).keys() == set(result.cells)

        # Targeted re-run: only the quarantined cell computes, and the
        # merged result is bit-identical to the uninterrupted reference.
        healed = run_sweep(CONFIG, resume=str(store_path))
        assert healed.quarantined == ()
        assert healed.cells.keys() == reference.cells.keys()
        for key in reference.cells:
            assert healed.cells[key].words == reference.cells[key].words, key

        # The marker is resolved: summary drops it now, compact prunes it.
        assert summarize(store_path).quarantined == []
        raw = store_path.read_text()
        assert '"quarantine"' in raw
        merge([store_path], store_path)
        assert '"quarantine"' not in store_path.read_text()
        assert summarize(store_path).cells_done == len(reference.cells)

    def test_progress_closing_line_counts_quarantined(self, capsys):
        run_sweep(CONFIG, backend=_QuarantiningBackend(0), progress=0.0)
        last = capsys.readouterr().err.splitlines()[-1]
        assert "progress 7/8 cells (87.5%)" in last
        assert "1 shard(s) quarantined" in last

    def test_quarantine_marker_survives_unresolved_compact(self, tmp_path):
        store_path = tmp_path / "sweep.jsonl"
        run_sweep(CONFIG, backend=_QuarantiningBackend(0), resume=str(store_path))
        merge([store_path], store_path)
        assert '"quarantine"' in store_path.read_text()
        assert len(summarize(store_path).quarantined) == 1

    def test_merge_resolves_marker_against_other_machines_cells(self, tmp_path):
        """The cross-machine recovery recipe: machine A quarantined a
        cell, machine B computed it; the merged store has no marker."""
        left = tmp_path / "left.jsonl"
        right = tmp_path / "right.jsonl"
        run_sweep(CONFIG, backend=_QuarantiningBackend(0), resume=str(left))
        run_sweep(CONFIG, resume=str(right))  # the healthy machine
        merged = tmp_path / "campaign.jsonl"
        merge([left, right], merged)
        summary = summarize(merged)
        assert summary.quarantined == []
        assert summary.cells_done == summary.cells_total
        assert '"quarantine"' not in merged.read_text()


class TestFig10Quarantine:
    def test_aggregation_survives_and_rerun_heals(self, tmp_path):
        store_path = tmp_path / "fig10.jsonl"
        reference = fig10.run(CASE_CONFIG)
        skipped = fig10.shard_case_study(CASE_CONFIG)[1]
        skipped_key = (skipped.probability, skipped.code_index, skipped.count)

        result = fig10.run(
            CASE_CONFIG, backend=_QuarantiningBackend(1), resume=str(store_path)
        )
        assert result.quarantined == (skipped_key,)
        # Every panel still renders (averaged over the completed words).
        assert result.before.keys() == reference.before.keys()
        fig10.render(result)

        summary = summarize(store_path)
        assert summary.quarantined == [skipped_key]

        healed = fig10.run(CASE_CONFIG, resume=str(store_path))
        assert healed == reference
        assert summarize(store_path).quarantined == []

    def test_fig10_progress_lines(self, capsys):
        fig10.run(CASE_CONFIG, progress=0.0)
        err = capsys.readouterr().err
        assert "progress 0/4 shards (0.0%)" in err
        assert "progress 4/4 shards (100.0%)" in err


class TestQuarantineReport:
    def test_names_every_key_and_the_recipe(self):
        text = quarantine_report([(2, 0.5, "Naive"), (3, 1.0, "BEEP")], unit="sweep cell")
        assert "QUARANTINED 2 sweep cell(s)" in text
        assert "(2, 0.5, 'Naive')" in text
        assert "(3, 1.0, 'BEEP')" in text
        assert "--resume" in text
        assert "docs/operations.md" in text


class TestCliFlags:
    """The new hardening flags follow the socket-only misuse rules."""

    def test_status_port_requires_socket_backend(self, capsys):
        with pytest.raises(SystemExit, match="socket"):
            main(["fig6", "--scale", "unit", "--status-port", "7072"])
        capsys.readouterr()

    def test_continue_past_quarantine_requires_socket_backend(self, capsys):
        with pytest.raises(SystemExit, match="socket"):
            main(
                [
                    "fig6",
                    "--scale",
                    "unit",
                    "--backend",
                    "process",
                    "--continue-past-quarantine",
                ]
            )
        capsys.readouterr()

    def test_flags_reach_the_socket_backend(self):
        from repro.cli import _execution_backend, build_parser

        args = build_parser().parse_args(
            [
                "fig6",
                "--backend",
                "socket",
                "--jobs",
                "2",
                "--status-port",
                "7072",
                "--continue-past-quarantine",
            ]
        )
        backend = _execution_backend(args)
        assert isinstance(backend, SocketBackend)
        assert backend._fleet.status_port == 7072
        assert backend.continue_past_quarantine is True

    def test_incomplete_grid_exits_3(self, monkeypatch, capsys):
        """A quarantining run must not exit 0: scripts chained on && would
        publish the partial exhibit as success."""
        import repro.cli as cli
        from repro.experiments.runner import SweepResult

        def quarantining_run_sweep(config, **kwargs):
            full = run_sweep(config)
            key = next(iter(full.cells))
            cells = {k: v for k, v in full.cells.items() if k != key}
            return SweepResult(
                config=config, cells=cells, timings=full.timings, quarantined=(key,)
            )

        monkeypatch.setattr(cli, "run_sweep", quarantining_run_sweep)
        assert cli.main(["fig6", "--scale", "unit"]) == cli.EXIT_INCOMPLETE_GRID
        out = capsys.readouterr().out
        assert "QUARANTINED 1 sweep cell(s)" in out
        assert "rendition skipped" in out

    def test_progress_flag_is_backend_agnostic(self, capsys):
        assert main(["fig6", "--scale", "unit", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "Fig 6 panel" in captured.out
        assert "progress 20/20 cells (100.0%)" in captured.err
        assert "progress" not in captured.out  # stdout stays the rendition
