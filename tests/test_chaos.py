"""Chaos suite: campaigns must complete bit-identically under injected
transport faults and process death.

Each test runs a real :class:`SocketBackend` campaign with real worker
processes connected *through* :class:`chaos.ChaosProxy`, which injects
one fault class per test (corruption, drops, duplicates, delays,
connection tears) from a seeded RNG.  The acceptance test combines
frame corruption, a SIGKILLed worker, and a late-joining worker over a
full sweep and diffs the result bit-for-bit against a serial run — with
the proxy simultaneously auditing that no pickle frame ever appears on
the wire.
"""

import pickle
import socket
import struct
import time

from chaos import ChaosProxy, FaultPlan, WorkerFleet
from repro.experiments.backends import SocketBackend
from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_sweep
from repro.experiments.wire import make_session
from serviceharness import (
    BackgroundCampaign,
    map_in_order,
    wait_for_address,
    wait_until,
)

SOCKET_TIMEOUT = 180.0

CONFIG = SweepConfig(
    num_codes=2,
    words_per_code=2,
    num_rounds=16,
    error_counts=(2, 3),
    probabilities=(0.5, 1.0),
    profilers=("Naive", "HARP-U"),
)


def _double(value):
    return value * 2


def _slow_double(value):
    time.sleep(0.15)
    return value * 2


def _run_map_through_proxy(
    plan,
    items,
    worker=_double,
    *,
    workers=2,
    chunksize=1,
    heartbeat=1.0,
    kill_after=None,
    join_late=None,
):
    """One campaign: backend behind the chaos proxy, external fleet."""
    with SocketBackend(
        spawn_workers=0,
        heartbeat_timeout=heartbeat,
        timeout=SOCKET_TIMEOUT,
    ) as backend:
        runner = BackgroundCampaign(
            lambda: map_in_order(backend, worker, items, chunksize=chunksize),
            name="campaign under injected faults",
        ).start()
        with ChaosProxy(wait_for_address(backend), plan) as proxy:
            host, port = proxy.address
            fleet = WorkerFleet(f"{host}:{port}", linger=SOCKET_TIMEOUT / 2)
            with fleet:
                fleet.spawn(workers)
                if kill_after is not None:
                    fleet.kill_one_after(kill_after)
                if join_late is not None:
                    fleet.join_late(join_late)
                results = runner.finish(timeout=SOCKET_TIMEOUT)
    return results, proxy


class TestFaultClasses:
    """Each fault class alone: the campaign completes bit-identically."""

    def test_corrupted_frames(self):
        items = list(range(16))
        results, proxy = _run_map_through_proxy(
            FaultPlan(corrupt=0.08, seed=11), items
        )
        assert results == [v * 2 for v in items]
        assert proxy.violations == []

    def test_dropped_frames(self):
        items = list(range(12))
        results, proxy = _run_map_through_proxy(
            FaultPlan(drop=0.05, seed=22), items
        )
        assert results == [v * 2 for v in items]
        assert proxy.violations == []

    def test_duplicated_frames(self):
        items = list(range(16))
        results, proxy = _run_map_through_proxy(
            FaultPlan(duplicate=0.2, seed=33), items
        )
        assert results == [v * 2 for v in items]
        assert proxy.stats.duplicated > 0  # replays really happened
        assert proxy.violations == []

    def test_delayed_frames(self):
        items = list(range(16))
        results, proxy = _run_map_through_proxy(
            FaultPlan(delay=0.25, delay_seconds=0.05, seed=44), items
        )
        assert results == [v * 2 for v in items]
        assert proxy.stats.delayed > 0
        assert proxy.violations == []

    def test_torn_connections(self):
        items = list(range(12))
        results, proxy = _run_map_through_proxy(
            FaultPlan(truncate=0.04, seed=55), items
        )
        assert results == [v * 2 for v in items]
        assert proxy.violations == []


class TestProxyTeardown:
    def test_pump_ends_quietly_when_its_sink_closed_first(self):
        """A frame that arrives after the opposite pump closed the pair
        ends this pump instead of escaping from its thread."""
        proxy = ChaosProxy(("127.0.0.1", 9))  # never started
        source, feeder = socket.socketpair()
        sink, sink_peer = socket.socketpair()
        with feeder, sink_peer:
            sink.close()
            make_session().send(feeder, ("hello", 0, None))
            proxy._pump(source, sink, "worker->server")
        assert proxy.stats.frames == 1
        assert proxy.violations == []


class TestProcessChaos:
    """Wire noise plus process death plus elastic membership."""

    def test_sigkill_plus_late_joiner_under_corruption(self):
        items = list(range(24))
        results, proxy = _run_map_through_proxy(
            FaultPlan(corrupt=0.05, seed=66),
            items,
            worker=_slow_double,
            workers=2,
            kill_after=0.8,
            join_late=1.2,
        )
        assert results == [v * 2 for v in items]
        assert proxy.violations == []


class TestWireAudit:
    """The proxy doubles as the no-pickle-on-the-wire assertion."""

    def test_v1_campaign_has_no_wire_violations(self):
        items = list(range(8))
        results, proxy = _run_map_through_proxy(FaultPlan(seed=77), items)
        assert results == [v * 2 for v in items]
        assert proxy.stats.frames > 0
        assert proxy.violations == []

    def test_pickle_wire_is_detected(self):
        """Negative control: bytes that are not ``RPW1`` frames — here a
        length-prefixed pickle, what pre-v1 fleets spoke — trip the
        audit as soon as they cross the proxy."""
        payload = pickle.dumps(("hello", 0, None))
        with socket.create_server(("127.0.0.1", 0)) as upstream:
            with ChaosProxy(upstream.getsockname()[:2], FaultPlan(seed=88)) as proxy:
                with socket.create_connection(proxy.address, timeout=10) as raw:
                    raw.sendall(struct.pack(">Q", len(payload)) + payload)
                    wait_until(
                        lambda: proxy.violations,
                        deadline=10.0,
                        message="the proxy never flagged the non-v1 bytes",
                    )
        assert "non-v1 bytes" in proxy.violations[0]


class TestChaosSweepBitIdentity:
    """Acceptance: a full sweep under combined chaos (5% corruption, one
    SIGKILLed worker, one late joiner) is bit-identical to serial."""

    def test_sweep_bit_identical_under_combined_chaos(self):
        serial = run_sweep(CONFIG)
        plan = FaultPlan(corrupt=0.05, seed=1234)
        with SocketBackend(
            spawn_workers=0, heartbeat_timeout=2.0, timeout=SOCKET_TIMEOUT
        ) as backend:
            runner = BackgroundCampaign(
                lambda: run_sweep(CONFIG, backend=backend), name="chaos sweep"
            ).start()
            with ChaosProxy(wait_for_address(backend), plan) as proxy:
                host, port = proxy.address
                with WorkerFleet(f"{host}:{port}", linger=SOCKET_TIMEOUT / 2) as fleet:
                    fleet.spawn(2)
                    fleet.kill_one_after(1.0)
                    fleet.join_late(1.5)
                    chaos_sweep = runner.finish(timeout=SOCKET_TIMEOUT)
        assert proxy.violations == []
        assert chaos_sweep.cells.keys() == serial.cells.keys()
        for key in serial.cells:
            assert chaos_sweep.cells[key].words == serial.cells[key].words, key
