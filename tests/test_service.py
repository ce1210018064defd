"""End-to-end tests of the ``repro serve`` campaign daemon.

Every test runs the real daemon as a subprocess (via
:class:`serviceharness.ServiceDaemon`) and talks to it over the actual
HTTP/JSON API — the same surface curl sees.  Coverage:

* the job lifecycle for all three kinds (sweep, fig10, fleet) through
  to persisted results;
* spec validation: bad submissions, and jobs past the work budget,
  get a 400 with a reason, never a traceback; hostile
  ``Content-Length`` headers get a 4xx or a closed connection; auth
  scoping on mutating calls;
* cancellation of queued vs running jobs;
* bit-identity: a service-submitted sweep equals the serial run and
  the CLI's own stdout rendition;
* two concurrent campaigns multiplexed over one shared fleet, both
  observably mid-flight at once, both bit-identical to serial;
* the crash drill: SIGKILL the daemon mid-job, restart it on the same
  state dir, and watch the job heal and complete bit-identically —
  with the worker fleet riding through the restart via a retargeted
  :class:`chaos.ChaosProxy` front.

Two in-process suites complete it: every job record and result is
fsynced before it replaces its file, and the ``repro jobs`` client ends
a bad spec or a bad reply in one line.
"""

import io
import json
import os
import socket
import threading
import time
import urllib.request

import pytest

from chaos import ChaosProxy
from repro.cli import main
from repro.experiments.backends import WorkServer
from repro.experiments.runner import run_sweep
from repro.experiments.scheduler import (
    MAX_JOB_BIT_ROUNDS,
    JobScheduler,
    JobSpecError,
    job_bit_rounds,
    job_config,
    parse_job_spec,
)
from repro.experiments.service import MAX_BODY_BYTES, REQUEST_TIMEOUT
from repro.experiments.store import sweep_to_json
from serviceharness import (
    ServiceDaemon,
    spawn_worker,
    terminate_procs,
    wait_until,
)

#: Overrides that slow the unit sweep from milliseconds to seconds per
#: campaign, so tests can observe (and interrupt) jobs mid-flight.
SLOW_SWEEP = {"num_rounds": 512, "words_per_code": 8}
SLOWER_SWEEP = {"num_rounds": 2048, "words_per_code": 8}


def _strip_timing(payload: dict) -> dict:
    """Drop the per-cell wall-clock ``seconds`` field — the only part
    of a sweep payload that legitimately differs between runs."""
    return {
        **payload,
        "cells": [
            {key: value for key, value in cell.items() if key != "seconds"}
            for cell in payload["cells"]
        ],
    }


def _serial_sweep_payload(spec: dict) -> dict:
    """The exact ``sweep`` payload the service must persist for ``spec``,
    recomputed serially in this process (the bit-identity reference)."""
    config = job_config(parse_job_spec(spec))
    return _strip_timing(json.loads(sweep_to_json(run_sweep(config))))


class TestJobLifecycle:
    """Submit → run → done → result, for every job kind."""

    def test_all_three_job_kinds_run_to_done(self, tmp_path):
        specs = [
            {"kind": "sweep", "exhibit": "fig6"},
            {"kind": "fig10"},
            {"kind": "fleet"},
        ]
        with ServiceDaemon(tmp_path / "state", workers=2) as daemon:
            ids = [daemon.submit(spec) for spec in specs]
            _, listing = daemon.get("/jobs", expect=200)
            assert [job["id"] for job in listing["jobs"]] == ids
            records = [daemon.wait_job(job_id) for job_id in ids]
            assert [record["state"] for record in records] == ["done"] * 3
            for record in records:
                assert record["started"] is not None
                assert record["finished"] is not None
                assert record["error"] is None
            sweep_result = daemon.result(ids[0])
            assert sweep_result["kind"] == "sweep"
            assert sweep_result["healed"] is False
            assert sweep_result["exhibit"] == "fig6"
            assert sweep_result["rendition"]
            assert _strip_timing(sweep_result["sweep"]) == _serial_sweep_payload(specs[0])
            for job_id, kind in zip(ids[1:], ("fig10", "fleet")):
                result = daemon.result(job_id)
                assert result["kind"] == kind
                assert result["rendition"]
            _, status = daemon.get("/status", expect=200)
            assert status["format"] == "repro-status-v2"
            assert status["jobs"]["done"] == 3
            assert status["maps"]["opened"] >= 3
            assert isinstance(status["history"], list)

    def test_service_sweep_rendition_matches_the_cli(self, tmp_path, capsys):
        """Acceptance: a service-submitted exhibit equals the CLI's own
        output byte for byte (same presets, same seed derivation)."""
        spec = {"kind": "sweep", "exhibit": "fig6"}
        with ServiceDaemon(tmp_path / "state", workers=2) as daemon:
            job_id = daemon.submit(spec)
            assert daemon.wait_job(job_id)["state"] == "done"
            result = daemon.result(job_id)
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== ")
        assert out.endswith(result["rendition"] + "\n\n")


class TestValidationAndAuth:
    """Bad submissions: a 400 with the reason, never a traceback."""

    def test_bad_specs_rejected_with_reasons(self, tmp_path):
        with ServiceDaemon(
            tmp_path / "state", workers=0, auth_token="hunter2"
        ) as daemon:
            cases = [
                ({"kind": "nope"}, "kind must be one of"),
                ({"kind": "sweep", "bogus": 1}, "bogus"),
                ({"kind": "sweep", "scale": "galactic"}, "scale must be one of"),
                ({"kind": "sweep", "config": {"no_such_field": 3}}, "no_such_field"),
                ({"kind": "sweep", "config": [1, 2]}, "config must be"),
                ({"kind": "sweep", "exhibit": "fig10"}, "exhibit must be one of"),
                ({"kind": "fig10", "exhibit": "fig6"}, "exhibit only applies"),
                ([1, 2, 3], "JSON object"),
                # Mistyped or unknown config values, caught before a job
                # thread ever runs them.
                ({"kind": "sweep", "config": {"seed": "abc"}}, "'seed'"),
                ({"kind": "sweep", "config": {"k": "64"}}, "'k'"),
                ({"kind": "fig10", "config": {"num_rounds": 2.5}}, "'num_rounds'"),
                ({"kind": "fleet", "config": {"profiler": 7}}, "'profiler'"),
                ({"kind": "sweep", "config": {"profilers": ["Nope"]}}, "unknown profiler"),
                ({"kind": "sweep", "config": {"error_counts": [2.5]}}, "'error_counts'"),
                ({"kind": "fleet", "config": {"pattern": "plaid"}}, "unknown data pattern"),
                # Values of the right type that no experiment can run:
                # empty samples, a blow-up past the enumeration bound,
                # a zero-width code, a per-bit probability outside
                # (0, 1], or a fault mix no fleet can sample.
                ({"kind": "fig10", "config": {"num_codes": 0}}, "must be positive"),
                ({"kind": "fig10", "config": {"words_per_stratum": 0}}, "must be positive"),
                ({"kind": "fig10", "config": {"num_rounds": 0}}, "must be positive"),
                ({"kind": "fig10", "config": {"max_at_risk": 30}}, "enumeration bound"),
                ({"kind": "sweep", "config": {"error_counts": [17]}}, "enumeration bound"),
                ({"kind": "sweep", "config": {"k": 0}}, "k must be positive"),
                ({"kind": "fleet", "config": {"k": 0}}, "k must be positive"),
                ({"kind": "fig10", "config": {"probabilities": [0.0]}}, "must be in (0, 1]"),
                ({"kind": "fig10", "config": {"probabilities": [1.5]}}, "must be in (0, 1]"),
                ({"kind": "fig10", "config": {"probabilities": [-0.5]}}, "must be in (0, 1]"),
                ({"kind": "fleet", "config": {"single_rate": -1.0}}, "fault rates must be >= 0"),
                (
                    {"kind": "fleet", "config": {"variability_sigma": -1}},
                    "variability_sigma must be >= 0",
                ),
                ({"kind": "fleet", "config": {"row_density": 2}}, "fault densities must be within"),
                ({"kind": "fleet", "config": {"single_rate": float("nan")}}, "must be >= 0 and finite"),
                # Past the daemon's work budget.
                ({"kind": "sweep", "config": {"num_rounds": 10**20}}, "work budget"),
                # Unhashable field values and bodies nested past the
                # recursion limit, which used to escape as a 500.
                ({"kind": ["sweep"]}, "kind must be one of"),
                ({"kind": {"a": 1}}, "kind must be one of"),
                ({"kind": "sweep", "scale": ["unit"]}, "scale must be one of"),
                ({"kind": "sweep", "exhibit": ["fig6"]}, "exhibit must be one of"),
                (b"[" * 50_000, "not valid JSON"),
            ]
            for spec, needle in cases:
                code, body = daemon.post("/jobs", spec)
                assert code == 400, (repr(spec)[:80], code, body)
                assert needle in body["error"], (repr(spec)[:80], body)
                assert "Traceback" not in body["error"]
            code, body = daemon.post("/jobs")  # empty body
            assert code == 400 and "JSON" in body["error"]
            assert daemon.get("/jobs/job-deadbeef")[0] == 404
            assert daemon.post("/jobs/job-deadbeef/cancel")[0] == 404
            assert daemon.get("/definitely/not/an/endpoint")[0] == 404
            # A job that exists but is not done: result is a 409 state
            # report, not an error page.
            job_id = daemon.submit({"kind": "sweep"})  # no workers: never done
            code, body = daemon.get(f"/jobs/{job_id}/result")
            assert code == 409
            assert body["state"] in ("queued", "running")

    def test_hostile_content_length_is_bounded(self, tmp_path):
        """A lying or absurd ``Content-Length`` gets a 4xx, or at worst a
        closed connection after the request timeout — never a 500 and
        never a handler thread parked forever."""
        with ServiceDaemon(
            tmp_path / "state", workers=0, auth_token="hunter2"
        ) as daemon:

            def raw_post(length: str, body: bytes = b"") -> tuple[bytes, float]:
                request = (
                    "POST /jobs HTTP/1.1\r\nHost: repro\r\n"
                    f"X-Auth-Token: hunter2\r\nContent-Length: {length}\r\n\r\n"
                ).encode("ascii") + body
                started = time.monotonic()
                with socket.create_connection(daemon.http, timeout=30) as sock:
                    sock.sendall(request)
                    received = b""
                    while chunk := sock.recv(65536):
                        received += chunk
                return received, time.monotonic() - started

            for length, status in (
                ("abc", b" 400 "),
                ("-5", b" 400 "),
                ("-1", b" 400 "),
                (str(MAX_BODY_BYTES + 1), b" 413 "),
            ):
                response, _ = raw_post(length)
                assert status in response.split(b"\r\n", 1)[0], (length, response)
            # A body shorter than its header says: the daemon closes the
            # connection once the request timeout passes.
            response, elapsed = raw_post("100", b'{"kind": ')
            assert response == b""
            assert REQUEST_TIMEOUT <= elapsed < REQUEST_TIMEOUT + 20
            daemon.get("/status", expect=200)  # still serving

    def test_mutating_calls_need_the_token_reads_stay_open(self, tmp_path):
        with ServiceDaemon(
            tmp_path / "state", workers=0, auth_token="hunter2"
        ) as daemon:
            saved = daemon.auth_token
            daemon.auth_token = None  # harness stops sending the header
            try:
                code, body = daemon.post("/jobs", {"kind": "sweep"})
                assert code == 401
                assert "X-Auth-Token" in body["error"]
                daemon.get("/jobs", expect=200)
                daemon.get("/status", expect=200)
            finally:
                daemon.auth_token = saved
            daemon.post("/jobs", {"kind": "sweep"}, expect=201)


class TestWorkBudget:
    """A job past the daemon's work budget is refused; every preset fits."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "sweep", "config": {"num_rounds": 10**20}},
            {"kind": "fleet", "config": {"num_chips": 10**12}},
            {"kind": "fig10", "config": {"k": 10**9}},
        ],
        ids=["sweep-rounds", "fleet-chips", "fig10-k"],
    )
    def test_refusal_names_the_estimate_and_the_bound(self, spec):
        with pytest.raises(JobSpecError, match="work budget") as refusal:
            parse_job_spec(spec)
        assert f"{job_bit_rounds(job_config(spec)):,}" in str(refusal.value)
        assert f"{MAX_JOB_BIT_ROUNDS:,}" in str(refusal.value)

    def test_every_cli_preset_fits(self):
        from repro.cli import CASE_SCALES, FLEET_SCALES, SCALES

        for kind, scales in (("sweep", SCALES), ("fig10", CASE_SCALES), ("fleet", FLEET_SCALES)):
            for scale in scales:
                parse_job_spec({"kind": kind, "scale": scale})
        # The largest preset: every word of the paper fleet's 20,000
        # chips for 64 rounds is 163,840,000 word-rounds, at k = 32.
        assert job_bit_rounds(FLEET_SCALES["paper"]) == 163_840_000 * 32


class TestCancel:
    """Queued jobs cancel instantly; running jobs abort their map."""

    def test_cancel_queued_and_running(self, tmp_path):
        with ServiceDaemon(
            tmp_path / "state", workers=0, args=("--max-concurrent", "1")
        ) as daemon:
            # No workers: the first job runs (and stalls) forever, the
            # second queues behind --max-concurrent 1.
            first = daemon.submit({"kind": "sweep", "config": SLOW_SWEEP})
            second = daemon.submit({"kind": "sweep"})
            wait_until(
                lambda: daemon.get(f"/jobs/{first}")[1]["state"] == "running",
                message="first job never started running",
            )
            assert daemon.get(f"/jobs/{second}")[1]["state"] == "queued"
            daemon.post(f"/jobs/{second}/cancel", expect=200)
            record = daemon.wait_job(second)
            assert record["state"] == "cancelled"
            assert record["started"] is None  # cancelled before dispatch
            daemon.post(f"/jobs/{first}/cancel", expect=200)
            record = daemon.wait_job(first)
            assert record["state"] == "cancelled"
            assert record["started"] is not None  # was genuinely running
            # Terminal jobs: cancel is a conflict, result reports state.
            code, body = daemon.post(f"/jobs/{first}/cancel")
            assert code == 409 and body["state"] == "cancelled"
            code, body = daemon.get(f"/jobs/{first}/result")
            assert code == 409 and body["state"] == "cancelled"


class TestConcurrentCampaigns:
    """Two campaigns share one fleet and interleave chunk dispatch."""

    def test_two_campaigns_interleave_and_finish_bit_identically(self, tmp_path):
        spec = {"kind": "sweep", "config": SLOWER_SWEEP}
        with ServiceDaemon(tmp_path / "state", workers=2) as daemon:
            first = daemon.submit(spec)
            second = daemon.submit(spec)

            def both_mid_flight() -> bool:
                _, a = daemon.get(f"/jobs/{first}")
                _, b = daemon.get(f"/jobs/{second}")
                # Round-robin fairness means neither campaign may drain
                # to completion while the other has not even started.
                assert a["state"] in ("queued", "running"), a
                assert b["state"] in ("queued", "running"), b
                if a["state"] == b["state"] == "running":
                    done_a = (a.get("coverage") or {}).get("done", 0)
                    done_b = (b.get("coverage") or {}).get("done", 0)
                    return done_a >= 1 and done_b >= 1
                return False

            wait_until(
                both_mid_flight,
                deadline=120.0,
                interval=0.05,
                message="never observed both campaigns advancing at once",
            )
            assert daemon.wait_job(first)["state"] == "done"
            assert daemon.wait_job(second)["state"] == "done"
            reference = _serial_sweep_payload(spec)
            assert _strip_timing(daemon.result(first)["sweep"]) == reference
            assert _strip_timing(daemon.result(second)["sweep"]) == reference
            _, status = daemon.get("/status", expect=200)
            assert status["maps"]["opened"] >= 2


class TestDaemonRestart:
    """The crash drill: SIGKILL mid-job, restart, heal, complete."""

    def test_unreadable_job_records_are_skipped_at_startup(self, tmp_path):
        """A torn job record, or one nested past the recursion limit,
        must not stop the daemon from starting; it lists neither."""
        jobs = tmp_path / "state" / "jobs"
        jobs.mkdir(parents=True)
        (jobs / "job-torn.json").write_text('{"id": "job-torn", "sp')
        (jobs / "job-deep.json").write_text("[" * 100_000 + "\n")
        with ServiceDaemon(tmp_path / "state", workers=0) as daemon:
            _, listing = daemon.get("/jobs", expect=200)
        assert listing["jobs"] == []
        assert not any("Traceback" in line for line in daemon.lines)

    def test_sigkill_and_restart_heals_and_completes(self, tmp_path):
        spec = {"kind": "sweep", "config": SLOWER_SWEEP}
        state = tmp_path / "state"
        workers = []
        daemon_a = ServiceDaemon(state, workers=0).start()
        try:
            # The fleet connects through a proxy front whose address
            # outlives the daemon — the restarted daemon binds a fresh
            # ephemeral work port and the proxy is retargeted at it.
            with ChaosProxy(tuple(daemon_a.work)) as proxy:
                host, port = proxy.address
                workers = [
                    spawn_worker(f"{host}:{port}", linger=120.0)
                    for _ in range(2)
                ]
                job_id = daemon_a.submit(spec)

                def mid_flight() -> bool:
                    _, record = daemon_a.get(f"/jobs/{job_id}")
                    assert record["state"] in ("queued", "running"), record
                    done = (record.get("coverage") or {}).get("done", 0)
                    return record["state"] == "running" and done >= 2
                wait_until(
                    mid_flight,
                    deadline=120.0,
                    interval=0.05,
                    message="job never got mid-flight before the kill",
                )
                daemon_a.sigkill()  # hard node loss: no cleanup runs
                with ServiceDaemon(state, workers=0) as daemon_b:
                    # The restart re-attached the state dir and said so.
                    assert job_id in daemon_b.healed
                    assert any(
                        "healed 1 interrupted job(s)" in line
                        for line in daemon_b.lines
                    )
                    proxy.retarget(daemon_b.work)
                    record = daemon_b.wait_job(job_id)
                    assert record["state"] == "done", record
                    assert record["healed"] is True
                    result = daemon_b.result(job_id)
                    assert result["healed"] is True
                    # Healing re-ran only the missing cells over the
                    # resume store — and the merged sweep is still
                    # bit-identical to a serial run.
                    assert _strip_timing(result["sweep"]) == _serial_sweep_payload(spec)
        finally:
            terminate_procs(workers)
            daemon_a.sigkill()


class TestDurableJobFiles:
    """A job the API answered with 201 survives an OS crash."""

    def test_records_and_results_are_fsynced_before_they_replace(
        self, tmp_path, monkeypatch
    ):
        calls = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def recording_replace(source, target):
            calls.append(("replace", os.stat(source).st_ino, os.path.basename(target)))
            replace(source, target)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        jobs = JobScheduler(WorkServer(), tmp_path / "state")  # the fleet never starts
        monkeypatch.setattr(jobs, "_execute", lambda job: {"job": job.id})
        cancelled = jobs.submit({"kind": "sweep"})
        jobs.cancel(cancelled.id)
        done = jobs.submit({"kind": "sweep"})
        jobs.start()
        try:
            wait_until(lambda: done.state == "done")
        finally:
            jobs.close()
        replaced = [call[2] for call in calls if call[0] == "replace"]
        assert replaced == [
            f"{cancelled.id}.json",  # submitted
            f"{cancelled.id}.json",  # cancelled
            f"{done.id}.json",  # submitted
            f"{done.id}.json",  # running
            f"{done.id}.result.json",
            f"{done.id}.json",  # done
        ]
        for index, call in enumerate(calls):
            if call[0] == "replace":
                assert calls[index - 1] == ("fsync", call[1]), calls


class _Reply(io.BytesIO):
    """What ``urlopen`` returns for a 200 carrying ``body``."""

    status = 200


class TestJobsClient:
    """``repro jobs`` ends a bad spec or reply in one line, never a traceback."""

    def test_spec_nested_past_the_recursion_limit(self, tmp_path, capsys):
        spec = tmp_path / "deep.json"
        spec.write_text("[" * 50_000)
        assert main(["jobs", "http://127.0.0.1:9", "submit", f"@{spec}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro jobs: spec is not valid JSON"), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "body", [b"[" * 50_000, b"<html>"], ids=["deep", "not-json"]
    )
    def test_bad_reply(self, body, monkeypatch, capsys):
        monkeypatch.setattr(
            urllib.request, "urlopen", lambda request, timeout: _Reply(body)
        )
        assert main(["jobs", "http://127.0.0.1:9", "list"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro jobs: bad reply from http://127.0.0.1:9/jobs"), err
        assert err.count("\n") == 1

    def test_peer_that_does_not_speak_http(self, capsys):
        listener = socket.create_server(("127.0.0.1", 0))

        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"RPW1 not http\n")

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        try:
            host, port = listener.getsockname()
            assert main(["jobs", f"http://{host}:{port}", "list"]) == 1
        finally:
            thread.join(timeout=5)
            listener.close()
        err = capsys.readouterr().err
        assert err.startswith("repro jobs: bad reply from"), err
        assert err.count("\n") == 1
