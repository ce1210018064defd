"""Tests of the pluggable execution backends.

Covers the backend contract (every shard's result paired with its
index, bit-identical across serial / process-pool / socket execution),
the worker loop, remote-error propagation, the backend spec strings the
CLI forwards, the campaign-hardening failure paths (auth rejection,
heartbeat-timeout requeue, poison-chunk retry budgets, the
workers-expected start barrier), and the multi-map work server behind
facade every socket map goes through.
"""

import random
import socket
import threading
import time

import pytest

from repro.experiments import fig10
from repro.experiments.backends import (
    AUTH_TOKEN_ENV,
    MapCancelled,
    ProcessPoolBackend,
    SerialBackend,
    SharedFleetBackend,
    SocketBackend,
    WorkerRejectedError,
    WorkServer,
    _reconnect_backoff,
    _tokens_match,
    parse_address,
    resolve_backend,
    resolve_jobs,
    run_worker,
)
from repro.experiments.wire import make_session
from repro.experiments.config import CaseStudyConfig, SweepConfig
from repro.experiments.runner import run_sweep
from serviceharness import BackgroundCampaign, map_in_order, record_spawns, wait_until
from serviceharness import wait_for_address as _wait_for_address

CONFIG = SweepConfig(
    num_codes=2,
    words_per_code=2,
    num_rounds=16,
    error_counts=(2, 3),
    probabilities=(0.5, 1.0),
    profilers=("Naive", "HARP-U"),
)

#: Worker spawns are slow; keep the socket-backed sweeps on one grid.
SOCKET_TIMEOUT = 120.0


def _identity(value):
    return value * 2


def _boom(value):
    raise ValueError(f"cannot process {value}")


def _die_once_then_succeed(item):
    """Hard-kills the first worker process that sees a ``kill-once`` item.

    The marker file distinguishes the first attempt (die mid-chunk, no
    reply frame) from the requeued retry on a surviving worker.
    """
    import os

    kind, payload = item
    if kind == "kill-once":
        if not os.path.exists(payload):
            open(payload, "w").close()
            os._exit(1)
        return ("survived", payload)
    return ("ok", payload)


def _record_frames(monkeypatch, kind: str) -> list:
    """Record the body of every ``kind`` frame this process sends."""
    from repro.experiments import wire

    bodies = []
    pack_frame = wire.pack_frame

    def recording(frame_kind, body, **kwargs):
        if frame_kind == kind:
            bodies.append(body)
        return pack_frame(frame_kind, body, **kwargs)

    monkeypatch.setattr(wire, "pack_frame", recording)
    return bodies


class TestFraming:
    def test_parse_address(self):
        assert parse_address("10.0.0.1:7071") == ("10.0.0.1", 7071)
        assert parse_address(":9") == ("127.0.0.1", 9)
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address("host:seven")


class TestResolveBackend:
    def test_none_infers_from_jobs(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend(None, jobs=1), SerialBackend)
        pool = resolve_backend(None, jobs=3)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.jobs == 3

    def test_spec_strings(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process", jobs=2), ProcessPoolBackend)
        sock = resolve_backend("socket", jobs=2)
        assert isinstance(sock, SocketBackend)
        assert sock._fleet.spawn_workers == 2

    def test_explicitly_parallel_specs_default_to_cpu_count(self):
        """--backend process/socket without --jobs must not run serial."""
        import os

        cpus = os.cpu_count() or 1
        assert resolve_backend("process").jobs == cpus
        assert resolve_backend("socket")._fleet.spawn_workers == max(1, cpus)
        assert resolve_backend("socket://127.0.0.1:7071")._fleet.spawn_workers == cpus

    def test_socket_url_binds_host(self):
        server = resolve_backend("socket://0.0.0.0:7071", jobs=0)._fleet
        assert (server.bind_host, server.bind_port) == ("0.0.0.0", 7071)
        assert server.spawn_workers == 0  # remote-only server

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    @pytest.mark.parametrize(
        "backend",
        [SerialBackend(), None, "serial", " Process "],
        ids=["instance", "none", "serial", "process"],
    )
    def test_socket_options_need_a_socket_spec(self, backend):
        """Options that would be silently dropped are refused, one way."""
        with pytest.raises(ValueError, match=r"socket options \(auth_token\) require"):
            resolve_backend(backend, jobs=2, auth_token="s3cret")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("carrier-pigeon")

    def test_worker_hint_drives_chunking(self):
        assert SerialBackend().worker_hint() == 1
        assert ProcessPoolBackend(jobs=3).worker_hint() == 3
        # Loopback spawn-only pools have an exactly-known size.
        assert SocketBackend(spawn_workers=8).worker_hint() == 8
        assert SocketBackend(spawn_workers=2).worker_hint() == 2
        # Remote-capable servers can't know the fleet size; the estimate
        # must exceed typical error-count block counts or chunking would
        # never split blocks and larger fleets would starve.
        assert SocketBackend(spawn_workers=0).worker_hint() > 4
        assert SocketBackend(bind="0.0.0.0:7071", spawn_workers=2).worker_hint() > 4

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestBackendContract:
    """Each backend maps a plain function over items, pairing every
    result with its shard index."""

    def test_empty_shards(self):
        assert list(SerialBackend().imap_unordered(_identity, [])) == []
        with SocketBackend(spawn_workers=1, timeout=SOCKET_TIMEOUT) as socket_backend:
            assert list(socket_backend.imap_unordered(_identity, [])) == []
            # An invocation whose maps are all resumed never binds or spawns.
            assert socket_backend.address is None

    @pytest.mark.parametrize(
        "backend",
        [
            SerialBackend(),
            ProcessPoolBackend(jobs=2),
            SocketBackend(spawn_workers=2, timeout=SOCKET_TIMEOUT),
        ],
        ids=["serial", "process", "socket"],
    )
    def test_imap_unordered_covers_every_shard_with_right_indices(self, backend):
        """Completion order is free; the (index, result) pairing is not."""
        values = list(range(7))
        with backend:
            pairs = list(backend.imap_unordered(_identity, values, chunksize=2))
        assert sorted(pairs) == [(i, v * 2) for i, v in enumerate(values)]

    def test_socket_error_propagates(self):
        with SocketBackend(spawn_workers=1, timeout=SOCKET_TIMEOUT) as backend:
            with pytest.raises(RuntimeError, match="cannot process"):
                map_in_order(backend, _boom, [1, 2])

    def test_worker_death_mid_chunk_requeues_to_survivor(self, tmp_path, monkeypatch):
        """The module docstring's promise: a worker that dies mid-chunk
        has that chunk requeued for the surviving workers — re-sent
        under the same task id, which is how a wire trace counts a
        requeue."""
        import os

        sent = _record_frames(monkeypatch, "task")
        marker = str(tmp_path / "killed-once")
        items = [("plain", 1), ("kill-once", marker), ("plain", 2)]
        with SocketBackend(spawn_workers=2, timeout=SOCKET_TIMEOUT) as backend:
            results = map_in_order(backend, _die_once_then_succeed, items, chunksize=1)
        assert results == [("ok", 1), ("survived", marker), ("ok", 2)]
        assert os.path.exists(marker)  # the first attempt really died
        killed = [ticket for ticket, _, chunk in sent if chunk[0][0] == "kill-once"]
        assert len(killed) == 2 and killed[0] == killed[1], sent
        assert len({ticket for ticket, _, _ in sent}) == len(items)


def _sleepy(value):
    time.sleep(0.2)
    return value * 2


class TestAuthToken:
    """The join handshake's shared secret."""

    def test_wrong_token_rejected_and_right_token_serves(self):
        rejection = {}
        with SocketBackend(
            spawn_workers=0, auth_token="s3cret", timeout=SOCKET_TIMEOUT
        ) as backend:

            def bad_worker():
                host, port = _wait_for_address(backend)
                try:
                    run_worker(f"{host}:{port}", auth_token="wrong")
                except WorkerRejectedError as error:
                    rejection["reason"] = str(error)

            def good_worker():
                host, port = _wait_for_address(backend)
                run_worker(f"{host}:{port}", auth_token="s3cret")

            threading.Thread(target=bad_worker, daemon=True).start()
            threading.Thread(target=good_worker, daemon=True).start()
            assert map_in_order(backend, _identity, [1, 2, 3], chunksize=1) == [2, 4, 6]
        assert "auth token" in rejection.get("reason", "auth token")

    def test_missing_token_rejected(self):
        outcome = {}
        with SocketBackend(
            spawn_workers=0, auth_token="s3cret", timeout=SOCKET_TIMEOUT
        ) as backend:

            def tokenless_then_good():
                host, port = _wait_for_address(backend)
                try:
                    run_worker(f"{host}:{port}")  # no token at all
                except WorkerRejectedError:
                    outcome["rejected"] = True
                run_worker(f"{host}:{port}", auth_token="s3cret")

            threading.Thread(target=tokenless_then_good, daemon=True).start()
            assert map_in_order(backend, _identity, [5], chunksize=1) == [10]
        assert outcome == {"rejected": True}

    def test_spawned_workers_inherit_token_via_env(self, monkeypatch):
        """Self-spawned workers receive the secret through the environment,
        never the command line."""
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        with SocketBackend(
            spawn_workers=1, auth_token="fleet-secret", timeout=SOCKET_TIMEOUT
        ) as backend:
            assert map_in_order(backend, _identity, [1, 2], chunksize=1) == [2, 4]

    def test_tokenless_servers_workers_ignore_an_ambient_secret(self, monkeypatch):
        """A blank REPRO_AUTH_TOKEN must not reach the workers a tokenless
        server spawns: they would refuse it and never join."""
        monkeypatch.setenv(AUTH_TOKEN_ENV, "")
        with SocketBackend(spawn_workers=1, timeout=SOCKET_TIMEOUT) as backend:
            assert map_in_order(backend, _identity, [1, 2]) == [2, 4]

    def test_tokenless_server_accepts_tokened_worker(self):
        with SocketBackend(spawn_workers=0, timeout=SOCKET_TIMEOUT) as backend:

            def worker():
                host, port = _wait_for_address(backend)
                run_worker(f"{host}:{port}", auth_token="anything")

            threading.Thread(target=worker, daemon=True).start()
            assert map_in_order(backend, _identity, [7], chunksize=1) == [14]


class TestHeartbeats:
    """Dead-worker detection and chunk requeue via heartbeat deadlines."""

    def test_silent_worker_times_out_and_chunk_requeues(self):
        """A worker that takes a task and goes silent (hard kill, network
        partition) must have its chunk requeued for the survivors."""
        hung = threading.Event()
        with SocketBackend(
            spawn_workers=1,
            workers_expected=2,
            heartbeat_timeout=1.0,
            timeout=SOCKET_TIMEOUT,
        ) as backend:

            def silent_worker():
                host, port = _wait_for_address(backend)
                session = make_session()
                with socket.create_connection((host, port)) as sock:
                    session.send(sock, ("hello", 0, None))
                    while True:
                        message = session.recv(sock)
                        if message is None:
                            return
                        if message[0] == "welcome":
                            session.campaign = str(message[2])
                            session.secure(str(message[3]))
                            continue
                        if message[0] == "task":
                            hung.set()
                            # Take the chunk, never reply, never heartbeat:
                            # exactly what a hard-killed worker looks like.
                            time.sleep(SOCKET_TIMEOUT)
                            return

            threading.Thread(target=silent_worker, daemon=True).start()
            results = map_in_order(backend, _sleepy, list(range(4)), chunksize=1)
        assert results == [v * 2 for v in range(4)]
        assert hung.is_set()  # the silent worker really owned a chunk

    def test_heartbeats_keep_slow_chunks_alive(self):
        """A chunk slower than the deadline must NOT be requeued while its
        worker heartbeats: the deadline detects death, not slowness."""
        # 0.2s per item, chunksize 4 -> ~0.8s per chunk, twice the
        # deadline; heartbeats at deadline/4 keep the connection warm.
        with SocketBackend(
            spawn_workers=1, heartbeat_timeout=0.4, timeout=SOCKET_TIMEOUT
        ) as backend:
            results = map_in_order(backend, _sleepy, list(range(4)), chunksize=4)
        assert results == [v * 2 for v in range(4)]


def _exit_on_poison(item):
    """Worker function that hard-kills its process on the poison item."""
    import os

    if item == "poison":
        os._exit(1)
    return item


class TestRetryBudget:
    """Poison chunks are quarantined instead of crash-looping the fleet."""

    def test_poison_chunk_exhausts_budget_and_aborts(self):
        with SocketBackend(
            spawn_workers=3, max_chunk_retries=1, timeout=SOCKET_TIMEOUT
        ) as backend:
            with pytest.raises(RuntimeError, match="retry budget|poison"):
                map_in_order(backend, _exit_on_poison, ["ok", "poison", "fine"], chunksize=1)

    def test_zero_budget_aborts_on_first_loss(self):
        with SocketBackend(
            spawn_workers=2, max_chunk_retries=0, timeout=SOCKET_TIMEOUT
        ) as backend:
            with pytest.raises(RuntimeError, match="retry budget|poison"):
                map_in_order(backend, _exit_on_poison, ["ok", "poison"], chunksize=1)

    def test_budget_still_allows_single_recovery(self, tmp_path):
        """The PR 3 die-once scenario stays within the default budget."""
        marker = str(tmp_path / "killed-once")
        items = [("plain", 1), ("kill-once", marker), ("plain", 2)]
        with SocketBackend(spawn_workers=2, timeout=SOCKET_TIMEOUT) as backend:
            results = map_in_order(backend, _die_once_then_succeed, items, chunksize=1)
        assert results == [("ok", 1), ("survived", marker), ("ok", 2)]


class TestStartBarrier:
    """--workers-expected holds dispatch until the fleet is up."""

    def test_map_waits_for_expected_fleet(self):
        with SocketBackend(
            spawn_workers=0, workers_expected=2, timeout=SOCKET_TIMEOUT
        ) as backend:

            def late_fleet():
                host, port = _wait_for_address(backend)
                threading.Thread(
                    target=run_worker, args=(f"{host}:{port}",), daemon=True
                ).start()
                # Second worker joins noticeably later; the barrier must have
                # held everything rather than dispatched to worker one alone.
                time.sleep(0.5)
                run_worker(f"{host}:{port}")

            threading.Thread(target=late_fleet, daemon=True).start()
            results = map_in_order(backend, _identity, list(range(6)), chunksize=1)
        assert results == [v * 2 for v in range(6)]

    def test_unmet_barrier_times_out_with_fleet_count(self):
        with SocketBackend(spawn_workers=1, workers_expected=3, timeout=3.0) as backend:
            with pytest.raises(TimeoutError, match="1 of 3 expected"):
                map_in_order(backend, _identity, [1, 2], chunksize=1)


class TestSweepBitIdentity:
    """Acceptance: serial, process-pool, and socket sweeps are bit-identical."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_sweep(CONFIG)

    @pytest.mark.parametrize("spec", ["serial", "process"], ids=["serial", "process"])
    def test_local_backends_match(self, serial, spec):
        result = run_sweep(CONFIG, jobs=2, backend=spec)
        assert result.cells.keys() == serial.cells.keys()
        for key in serial.cells:
            assert result.cells[key].words == serial.cells[key].words, key

    def test_socket_end_to_end_matches_serial(self, serial):
        """Spawn 2 local workers over the socket protocol (the CI smoke)."""
        with SocketBackend(spawn_workers=2, timeout=SOCKET_TIMEOUT) as backend:
            result = run_sweep(CONFIG, backend=backend)
        assert result.cells.keys() == serial.cells.keys()
        for key in serial.cells:
            assert result.cells[key].words == serial.cells[key].words, key

    def test_seeded_variants_match(self):
        """Property-style spot check across config variations."""
        from dataclasses import replace

        for variant in (
            replace(CONFIG, seed=7),
            replace(CONFIG, pattern="charged"),
        ):
            reference = run_sweep(variant)
            parallel = run_sweep(variant, jobs=2)
            for key in reference.cells:
                assert parallel.cells[key].words == reference.cells[key].words, key


class TestFig10OverSocket:
    def test_case_study_matches_serial(self):
        config = CaseStudyConfig(
            num_codes=2,
            words_per_stratum=2,
            num_rounds=32,
            probabilities=(0.5,),
            rbers=(1e-4,),
            max_at_risk=3,
            profilers=("Naive", "HARP-U"),
        )
        serial = fig10.run(config)
        with SocketBackend(spawn_workers=2, timeout=SOCKET_TIMEOUT) as backend:
            remote = fig10.run(config, backend=backend)
        assert remote.before == serial.before
        assert remote.after == serial.after
        assert remote.rounds_to_zero == serial.rounds_to_zero


class TestExternalWorker:
    """A worker process started by hand (the multi-machine path)."""

    def test_run_worker_serves_every_map_in_one_session(self):
        """One hand-started worker (``--linger 0``: one session) joins
        once and serves both maps of the backend; its session ends
        cleanly when the backend closes."""
        executed = {}
        with SocketBackend(spawn_workers=0, timeout=SOCKET_TIMEOUT) as backend:

            def join_when_listening():
                host, port = _wait_for_address(backend)
                executed["chunks"] = run_worker(f"{host}:{port}")

            worker = threading.Thread(target=join_when_listening, daemon=True)
            worker.start()
            first = map_in_order(backend, _identity, list(range(5)), chunksize=2)
            second = map_in_order(backend, _identity, [5, 6], chunksize=1)
            assert worker.is_alive()  # idle between maps, still connected
        worker.join(timeout=SOCKET_TIMEOUT)
        assert not worker.is_alive()
        assert first + second == [v * 2 for v in range(7)]
        assert executed["chunks"] == (5, True)  # 3 + 2 chunks, one clean session

    def test_unreachable_server_reports_not_reached(self):
        executed, reached = run_worker("127.0.0.1:9", linger=0.0)
        assert executed == 0
        assert reached is False

    def test_silent_probe_connection_does_not_stall_the_map(self):
        """A port scan / health check that connects and says nothing must
        neither hang its handler forever nor starve the real workers."""
        probes = []
        with SocketBackend(spawn_workers=1, timeout=SOCKET_TIMEOUT) as backend:

            def probe_when_listening():
                probe = socket.create_connection(_wait_for_address(backend))
                probes.append(probe)  # connect, send nothing, hold open

            threading.Thread(target=probe_when_listening, daemon=True).start()
            results = map_in_order(backend, _identity, list(range(4)), chunksize=1)
        assert results == [v * 2 for v in range(4)]
        for probe in probes:
            probe.close()

    def test_lingering_worker_serves_consecutive_backends(self, monkeypatch):
        """Consecutive invocations on one address: linger rejoins.

        One fixed port, two backends in turn (two CLI invocations), one
        external worker with a linger window: it must execute chunks of
        both, and the second backend's server welcomes it under a fresh
        campaign id, so no frame of the first session replays into it.
        """
        welcomes = _record_frames(monkeypatch, "welcome")
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        # The worker leaves after the fourth chunk instead of lingering on
        # a closed port after the test.
        worker = threading.Thread(
            target=run_worker,
            args=(f"127.0.0.1:{port}",),
            kwargs={"linger": SOCKET_TIMEOUT / 2, "max_chunks": 4},
            daemon=True,
        )
        worker.start()
        options = {"bind": f"127.0.0.1:{port}", "spawn_workers": 0, "timeout": SOCKET_TIMEOUT}
        with SocketBackend(**options) as backend:
            first = map_in_order(backend, _identity, [1, 2])
        with SocketBackend(**options) as backend:
            second = map_in_order(backend, _identity, [3, 4])
        assert first == [2, 4]
        assert second == [6, 8]
        worker.join(timeout=SOCKET_TIMEOUT)
        assert not worker.is_alive()
        # welcome = (heartbeat interval, campaign id, MAC mode)
        assert len({campaign for _, campaign, _ in welcomes}) == 2


class TestTimingSafeTokens:
    """Satellite: the join-token check must never be a bare ``==``."""

    def test_tokens_match_semantics(self):
        assert _tokens_match("secret", "secret")
        assert not _tokens_match("secrex", "secret")
        assert not _tokens_match("", "secret")
        assert not _tokens_match(None, "secret")
        assert not _tokens_match(42, "secret")
        assert not _tokens_match(["secret"], "secret")

    def test_handshake_never_compares_secret_with_equality(self):
        """Regression: ``==`` short-circuits on the first differing byte,
        leaking the token prefix to anyone who can time the handshake."""
        import inspect

        import repro.experiments.backends as backends_module

        source = inspect.getsource(backends_module)
        assert "== self.auth_token" not in source
        assert "self.auth_token ==" not in source
        assert "_tokens_match(" in source


class TestReconnectBackoff:
    """Satellite: linger reconnects use jittered exponential backoff."""

    def test_delays_double_to_cap(self):
        # rng pinned to 0.5 makes the jitter factor exactly 1.0.
        backoff = _reconnect_backoff(base=0.2, cap=5.0, rng=lambda: 0.5)
        delays = [next(backoff) for _ in range(8)]
        assert delays[0] == pytest.approx(0.2)
        for earlier, later in zip(delays, delays[1:]):
            assert later >= earlier
        assert delays[-2] == pytest.approx(5.0)
        assert delays[-1] == pytest.approx(5.0)  # capped, not still doubling

    def test_jitter_spreads_a_fleet(self):
        low = next(_reconnect_backoff(base=1.0, cap=9.0, rng=lambda: 0.0))
        high = next(_reconnect_backoff(base=1.0, cap=9.0, rng=lambda: 1.0))
        assert low == pytest.approx(0.5)
        assert high == pytest.approx(1.5)

    def test_lingering_worker_leaves_global_random_alone(self):
        """Regression: the jitter drew from the process-wide ``random``
        state, so a worker lingering on a background thread advanced it
        under whatever code was seeding it (Hypothesis warned)."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        state = random.getstate()
        assert run_worker(f"127.0.0.1:{port}", linger=1.0) == (0, False)
        assert random.getstate() == state


class TestMalformedFrames:
    """Satellite: torn/oversized/undecodable frames must not kill fleets."""

    def test_undecodable_task_frame_worker_survives_and_chunk_resends(self):
        """A task frame the worker cannot decode (here: a function
        reference that does not resolve) must draw a ``badframe`` reply,
        not kill the worker; the server resends and the chunk completes."""
        import hashlib
        import hmac as hmac_module
        import json

        from repro.experiments import wire as wire_module

        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()
        outcome = {}

        def fake_server():
            conn, _ = server.accept()
            session = make_session()
            with conn:
                conn.settimeout(SOCKET_TIMEOUT)
                hello = session.recv(conn)
                assert hello[0] == "hello"
                campaign = "feedfacefeedface"
                session.send(
                    conn, ("welcome", 5.0, campaign, session.mac_mode)
                )
                session.campaign = campaign
                session.secure()
                # Hand-build a task frame whose function reference cannot
                # resolve on the worker (pack_frame would refuse to encode
                # it, which is exactly why it must be forged by hand).
                header = json.dumps(
                    {
                        "v": 1,
                        "kind": "task",
                        "campaign": campaign,
                        "seq": session._send_seq + 1,
                        "body": [
                            "t",
                            0,
                            ["fn", "no.such.module:missing"],
                            ["l", 1],
                        ],
                        "blobs": [],
                    },
                    separators=(",", ":"),
                ).encode("utf-8")
                preamble = wire_module._PREAMBLE.pack(
                    wire_module.MAGIC, len(header), 0
                )
                data = preamble + header
                conn.sendall(
                    data
                    + hmac_module.new(
                        session._key, data, hashlib.sha256
                    ).digest()
                )
                session._send_seq += 1

                def next_reply():
                    while True:
                        reply = session.recv(conn)
                        if reply is not None and reply[0] == "heartbeat":
                            continue
                        return reply

                reply = next_reply()
                outcome["first"] = reply[0]
                # The worker survived: resend the chunk properly.
                session.send(conn, ("task", 0, _identity, [21]))
                outcome["second"] = next_reply()
                session.send(conn, ("shutdown",))

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        executed, reached = run_worker(f"{host}:{port}")
        thread.join(timeout=SOCKET_TIMEOUT)
        server.close()
        assert outcome["first"] == "badframe"
        assert outcome["second"] == ("result", 0, [42])
        assert (executed, reached) == (1, True)


class TestElasticFleet:
    """Workers join after dispatch started and leave mid-campaign."""

    def test_worker_joins_mid_campaign(self):
        late = {}
        with SocketBackend(spawn_workers=1, timeout=SOCKET_TIMEOUT) as backend:

            def late_joiner():
                host, port = _wait_for_address(backend)
                time.sleep(0.5)  # dispatch to worker one is well underway
                late["session"] = run_worker(f"{host}:{port}")

            joiner = threading.Thread(target=late_joiner, daemon=True)
            joiner.start()
            results = map_in_order(backend, _sleepy, list(range(8)), chunksize=1)
        # Its one session ends when the backend closes.
        joiner.join(timeout=SOCKET_TIMEOUT)
        assert not joiner.is_alive()
        assert results == [v * 2 for v in range(8)]
        # The late joiner really took work off the first worker's plate.
        assert late["session"][0] >= 1
        assert late["session"][1] is True

    def test_max_chunks_drains_cleanly_mid_campaign(self):
        """An elastic worker leaves after its chunk budget with a clean
        goodbye — no retry-budget charge, no lost chunks."""
        sessions = {}
        with SocketBackend(
            spawn_workers=0, max_chunk_retries=0, timeout=SOCKET_TIMEOUT
        ) as backend:

            def fleet():
                host, port = _wait_for_address(backend)
                address = f"{host}:{port}"

                def capped():
                    sessions["capped"] = run_worker(address, max_chunks=2)

                threading.Thread(target=capped, daemon=True).start()
                time.sleep(0.3)
                sessions["rest"] = run_worker(address)

            threading.Thread(target=fleet, daemon=True).start()
            # max_chunk_retries=0: any chunk lost to an unclean leave would
            # abort the whole map, so success proves the goodbye was clean.
            results = map_in_order(backend, _identity, list(range(6)), chunksize=1)
        assert results == [v * 2 for v in range(6)]
        assert sessions["capped"] == (2, True)

    def test_backpressure_bounds_in_flight_dispatch(self):
        with SocketBackend(
            spawn_workers=2, max_buffered_chunks=1, timeout=SOCKET_TIMEOUT
        ) as backend:
            results = map_in_order(backend, _identity, list(range(8)), chunksize=1)
        assert results == [v * 2 for v in range(8)]

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            SocketBackend(heartbeat_timeout=0)
        with pytest.raises(ValueError, match="max_buffered_chunks"):
            SocketBackend(max_buffered_chunks=0)
        with pytest.raises(ValueError, match="max_chunks"):
            run_worker("127.0.0.1:9", max_chunks=0)


class TestAutoRetry:
    """End-of-map auto-retry shrinks poison chunks to single shards."""

    def test_poison_chunk_shrinks_to_single_bad_shard(self, capsys):
        with SocketBackend(
            spawn_workers=6,
            max_chunk_retries=1,
            continue_past_quarantine=True,
            timeout=SOCKET_TIMEOUT,
        ) as backend:
            got = sorted(
                backend.imap_unordered(
                    _exit_on_poison, ["a", "poison", "b", "c"], chunksize=2
                )
            )
        # Chunk [a, poison] died twice, was split, and the auto-retry
        # pass healed shard 0 while isolating shard 1 as the poison.
        assert got == [(0, "a"), (2, "b"), (3, "c")]
        assert backend.quarantined_shards == (1,)
        assert backend.healed_shards == (0,)
        stderr = capsys.readouterr().err
        assert "auto-retry" in stderr


def _thread_worker(address: tuple[str, int]) -> None:
    """Serve ``address`` from an in-process worker until it is shut down."""
    host, port = address
    threading.Thread(target=run_worker, args=(f"{host}:{port}",), daemon=True).start()


def _take_a_task_and_hang_up(address: tuple[str, int]) -> tuple:
    """Join like a worker, take one task frame, then drop the connection
    without replying — a worker lost mid-chunk.  Returns the task."""
    session = make_session()
    with socket.create_connection(address, timeout=SOCKET_TIMEOUT) as sock:
        session.send(sock, ("hello", 0, None))
        _, _, campaign, mac_mode = session.recv(sock)
        session.campaign = campaign
        session.secure(mac_mode)
        return session.recv(sock)


class TestWorkServer:
    """The work server both socket facades share, driven directly.

    Apart from the poison-chunk case, the fleet is in-process:
    ``run_worker`` threads, plus raw sessions that take a task and hang
    up to play a worker lost mid-chunk.
    """

    def test_constructor_validation(self):
        for knobs in (
            {"spawn_workers": -1},
            {"workers_expected": -1},
            {"heartbeat_timeout": 0},
            {"max_chunk_retries": -1},
            {"status_port": 70000},
        ):
            (name,) = knobs
            with pytest.raises(ValueError, match=name):
                WorkServer(**knobs)

    def test_round_robin_interleaves_concurrent_maps(self, monkeypatch):
        """Two maps opened before the only worker joins share it chunk by
        chunk, each task under a ``(map_id, chunk_index)`` ticket."""
        tasks = _record_frames(monkeypatch, "task")
        server = WorkServer().start()
        try:
            first = server.submit(_identity, [1, 2, 3])
            second = server.submit(_identity, [10, 20, 30])
            _thread_worker(server.address)
            assert sorted(first.results()) == [(0, 2), (1, 4), (2, 6)]
            assert sorted(second.results()) == [(0, 20), (1, 40), (2, 60)]
        finally:
            server.close()
        assert [ticket for ticket, _, _ in tasks] == [
            (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)
        ]

    def test_remote_error_fails_only_its_map(self):
        server = WorkServer().start()
        try:
            failing = server.submit(_boom, [1, 2])
            healthy = server.submit(_identity, [1, 2, 3])
            _thread_worker(server.address)
            with pytest.raises(RuntimeError, match="cannot process 1"):
                list(failing.results())
            assert sorted(healthy.results()) == [(0, 2), (1, 4), (2, 6)]
        finally:
            server.close()

    def test_backpressure_pauses_dispatch_until_the_consumer_reads(self):
        server = WorkServer().start()
        try:
            handle = server.submit(_identity, [1, 2, 3, 4], max_buffered_chunks=1)
            _thread_worker(server.address)
            wait_until(lambda: server.snapshot()["chunks"]["done"] == 1)
            time.sleep(0.3)  # an ungated idle worker would have taken more
            chunks = server.snapshot()["chunks"]
            assert (chunks["done"], chunks["pending"], chunks["in_flight"]) == (1, 3, 0)
            assert sorted(handle.results()) == [(0, 2), (1, 4), (2, 6), (3, 8)]
        finally:
            server.close()

    def test_map_timeout_without_a_barrier_counts_outstanding_chunks(self):
        """The start-barrier clause (TestStartBarrier) appears only while
        the barrier is unmet."""
        server = WorkServer().start()
        try:
            handle = server.submit(_identity, [1, 2, 3], chunksize=2, timeout=0.3)
            with pytest.raises(TimeoutError) as raised:
                list(handle.results())
        finally:
            server.close()
        assert str(raised.value) == "socket map timed out with 2 chunk(s) outstanding"

    def test_cancel_wakes_a_blocked_consumer(self):
        server = WorkServer().start()
        try:
            handle = server.submit(_identity, [1, 2])
            consumer = BackgroundCampaign(
                lambda: list(handle.results()), name="cancelled map"
            ).start()
            time.sleep(0.2)
            assert consumer.is_alive()  # parked: no worker has joined
            handle.cancel()
            with pytest.raises(MapCancelled):
                consumer.finish(timeout=10)
            assert server.snapshot()["maps"] == {"active": 0, "opened": 1}
        finally:
            server.close()

    def test_close_fails_an_open_map_and_refuses_new_ones(self):
        server = WorkServer().start()
        handle = server.submit(_identity, [1, 2])
        consumer = BackgroundCampaign(
            lambda: list(handle.results()), name="orphaned map"
        ).start()
        server.close()
        with pytest.raises(RuntimeError, match="closed with the map incomplete"):
            consumer.finish(timeout=10)
        with pytest.raises(RuntimeError, match="work server is closed"):
            server.submit(_identity, [3])

    def test_acceptor_that_runs_after_close_returns_quietly(self):
        """A close() can land before the acceptor thread first runs; the
        thread's body must then return, not raise on the closed socket."""
        server = WorkServer().start()
        server.close()
        server._accept_loop()

    def test_snapshot_echoes_campaign_info_while_its_map_is_open(self):
        server = WorkServer()  # never started: snapshots need no fleet
        handle = server.submit(_identity, [1, 2, 3], info={"chips": 4})
        snapshot = server.snapshot()
        assert snapshot["campaign"] == {"chips": 4}
        assert snapshot["wire"] == "v1"
        assert snapshot["chunks"]["total"] == snapshot["chunks"]["pending"] == 3
        assert snapshot["maps"] == {"active": 1, "opened": 1}
        handle.cancel()
        with pytest.raises(MapCancelled):
            list(handle.results())
        snapshot = server.snapshot()
        assert "campaign" not in snapshot
        assert snapshot["maps"] == {"active": 0, "opened": 1}
        server.close()

    def test_lost_multi_shard_chunk_is_deferred_then_healed(self, capsys):
        """Continue mode: a chunk past its budget is split into single
        shards that wait for the main grid to drain, then heal."""
        server = WorkServer(max_chunk_retries=0).start()
        try:
            handle = server.submit(
                _identity, [1, 2, 3, 4], chunksize=2, continue_past_quarantine=True
            )
            task = _take_a_task_and_hang_up(server.address)
            assert task[1] == (0, 0) and task[3] == [1, 2]
            wait_until(lambda: server.snapshot()["chunks"]["deferred"] == 2)
            chunks = server.snapshot()["chunks"]
            assert (chunks["total"], chunks["pending"]) == (4, 1)
            _thread_worker(server.address)
            got = sorted(handle.results())
            snapshot = server.snapshot()
        finally:
            server.close()
        assert got == [(0, 2), (1, 4), (2, 6), (3, 8)]
        assert (handle.quarantined, sorted(handle.healed)) == ([], [0, 1])
        assert (snapshot["healed"], snapshot["quarantined"]) == (2, [])
        assert "auto-retry healed 2 of 2 shard(s)" in capsys.readouterr().err

    def test_lost_single_shard_chunk_is_quarantined_and_the_grid_completes(self):
        server = WorkServer(max_chunk_retries=0).start()
        try:
            handle = server.submit(
                _identity, [1, 2, 3], continue_past_quarantine=True
            )
            _take_a_task_and_hang_up(server.address)
            wait_until(lambda: server.snapshot()["quarantined"] == [0])
            _thread_worker(server.address)
            got = sorted(handle.results())
        finally:
            server.close()
        assert got == [(1, 4), (2, 6)]
        assert (handle.quarantined, handle.healed) == ([0], [])

    def test_poison_map_fails_alone_while_its_neighbour_completes(self):
        """A map whose poison chunk spends its retry budget raises; a
        concurrent map on the same fleet finishes bit-identically."""
        reference = run_sweep(CONFIG)
        server = WorkServer(spawn_workers=3, max_chunk_retries=1, worker_linger=0.5)
        try:
            server.start()
            poisoned = BackgroundCampaign(
                lambda: map_in_order(
                    SharedFleetBackend(server), _exit_on_poison, ["ok", "poison", "fine"]
                ),
                name="poisoned map",
            ).start()
            healthy = BackgroundCampaign(
                lambda: run_sweep(CONFIG, backend=SharedFleetBackend(server)),
                name="healthy sweep",
            ).start()
            with pytest.raises(RuntimeError, match="retry budget"):
                poisoned.finish(timeout=SOCKET_TIMEOUT)
            sweep = healthy.finish(timeout=SOCKET_TIMEOUT)
            snapshot = server.snapshot()
        finally:
            server.close()
        assert sweep.cells.keys() == reference.cells.keys()
        for key in reference.cells:
            assert sweep.cells[key].words == reference.cells[key].words, key
        assert snapshot["maps"] == {"active": 0, "opened": 2}
        assert snapshot["retries"] == 2  # two workers lost to the poison chunk


class TestSocketFacade:
    """``SocketBackend`` runs every map of its life on one server."""

    def test_maps_of_one_backend_share_its_server(self, monkeypatch):
        welcomes = _record_frames(monkeypatch, "welcome")
        with SocketBackend(spawn_workers=1, status_port=0, timeout=SOCKET_TIMEOUT) as backend:
            assert map_in_order(backend, _identity, [1, 2], chunksize=1) == [2, 4]
            address, status = backend.address, backend.status_address
            assert map_in_order(backend, _identity, [3], chunksize=1) == [6]
            assert (backend.address, backend.status_address) == (address, status)
            assert backend._fleet.snapshot()["maps"] == {"active": 0, "opened": 2}
        assert (backend.address, backend.status_address) == (None, None)
        # One session, one welcome = (heartbeat interval, campaign id, MAC mode).
        assert len(welcomes) == 1

    def test_spawned_workers_exit_cleanly_when_the_backend_closes(self, monkeypatch):
        spawned = record_spawns(monkeypatch)
        with SocketBackend(spawn_workers=2, timeout=SOCKET_TIMEOUT) as backend:
            assert map_in_order(backend, _identity, [1, 2, 3], chunksize=1) == [2, 4, 6]
            assert map_in_order(backend, _identity, [4], chunksize=1) == [8]
            assert [proc.poll() for proc in spawned] == [None, None]  # kept across maps
        # close() reaps them; a worker still lingering would be killed.
        assert [proc.returncode for proc in spawned] == [0, 0]

    def test_a_driver_given_a_spec_reaps_the_workers_it_spawned(self, monkeypatch):
        """A library call that resolves ``backend="socket"`` itself closes
        that backend before it returns."""
        spawned = record_spawns(monkeypatch)
        reference = run_sweep(CONFIG)
        result = run_sweep(CONFIG, backend="socket", jobs=2)
        assert len(spawned) == 2
        assert [proc.poll() for proc in spawned] == [0, 0]
        for key in reference.cells:
            assert result.cells[key].words == reference.cells[key].words, key
