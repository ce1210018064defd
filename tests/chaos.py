"""Fault-injection harness for the socket backend's transport layer.

:class:`ChaosProxy` sits between workers and a :class:`SocketBackend`
server as a frame-aware TCP proxy and injects the faults a long
campaign on a real fleet actually sees:

* **corrupt** — flip one byte inside a frame's body (the MAC fails on
  the far side; per-frame recovery via ``badframe``/``nack`` resends);
* **drop** — swallow a frame whole (heartbeat-deadline requeue);
* **duplicate** — deliver a frame twice (sequence numbers drop the
  replay silently);
* **delay** — stall a frame (out-of-cadence delivery);
* **truncate** — send part of a frame and tear the connection down
  (both sides see a desynchronized stream and must reconnect/requeue).

Faults are driven by a seeded :class:`random.Random` so chaos runs are
reproducible.  The proxy parses ``repro-wire-v1`` preambles to find
frame boundaries, which also makes it the wire-format auditor: any
connection whose bytes do not start with the ``RPW1`` magic is recorded
in :attr:`ChaosProxy.violations` (and pumped through blind) — the chaos
suite asserts ``violations == 0`` to prove no pickle frame ever touches
the wire.

The first ``handshake_grace`` frames of each direction of a connection
are exempt from faults: dropping a ``hello`` or ``welcome`` leaves both
sides waiting politely forever (neither has a heartbeat deadline yet),
which models a fault the real transport cannot detect rather than one
it must survive.

:class:`WorkerFleet` spawns real worker *processes* pointed at the
proxy, with a kill schedule (``SIGKILL`` after a frame count) and
late-join support, so chaos tests cover process death, not just wire
noise.

The proxy speaks plain frames, so it fronts any ``repro-wire-v1``
listener — a :class:`SocketBackend`'s server *or* the campaign
daemon's persistent one.  For daemon crash drills,
:meth:`ChaosProxy.retarget` repoints new connections at a restarted
daemon's fresh ephemeral work port while the proxy's own front address
stays fixed, so lingering workers reconnect straight through the
restart.

Usable standalone for the CI smoke leg::

    python tests/chaos.py --self-test
"""

from __future__ import annotations

import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import serviceharness

_PREAMBLE = struct.Struct(">4sIQ")
_MAGIC = b"RPW1"
_MAC_SIZE = 32
_SANE_FRAME = 1 << 26  # proxy-side guard; far below the codec's MAX_FRAME


@dataclass
class FaultPlan:
    """Per-frame fault probabilities (evaluated in this order, at most
    one fault per frame) and the RNG seed that makes a run reproducible."""

    corrupt: float = 0.0
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    truncate: float = 0.0
    delay_seconds: float = 0.05
    seed: int = 0
    #: Leading frames per direction exempt from faults (handshake).
    handshake_grace: int = 3


@dataclass
class ChaosStats:
    """Counters the proxy accumulates across all connections."""

    frames: int = 0
    corrupted: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    truncated: int = 0
    connections: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class ChaosProxy:
    """Frame-aware fault-injecting TCP proxy in front of a backend server.

    Args:
        upstream: ``(host, port)`` of the real :class:`SocketBackend`
            listener.
        plan: the :class:`FaultPlan` to apply to every proxied frame.

    Start with :meth:`start` (returns the proxy's own ``(host, port)``
    for workers to connect to), stop with :meth:`stop`.  Fault counts
    land in :attr:`stats`; non-v1 frames land in :attr:`violations`.
    """

    def __init__(self, upstream: tuple[str, int], plan: FaultPlan | None = None):
        self.upstream = upstream
        self._upstream_lock = threading.Lock()
        self.plan = plan or FaultPlan()
        self.stats = ChaosStats()
        #: One entry per connection that carried non-``RPW1`` bytes —
        #: the "no pickle on the wire" audit trail.
        self.violations: list[str] = []
        self._rng = random.Random(self.plan.seed)
        self._rng_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------

    def start(self) -> tuple[str, int]:
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(16)
        self._listener = listener
        self.address = listener.getsockname()
        accepter = threading.Thread(target=self._accept_loop, daemon=True)
        accepter.start()
        self._threads.append(accepter)
        return self.address

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    def retarget(self, upstream: tuple[str, int]) -> None:
        """Point *new* connections at a different upstream server.

        The proxy's own front address never changes, so a fleet that
        connected through it survives its server being replaced — the
        shape of a campaign daemon dying and restarting on a fresh
        ephemeral work port while lingering workers reconnect through
        the stable proxy front.  Existing pumps drain against the old
        upstream (their sockets are already torn when it died).
        """
        with self._upstream_lock:
            self.upstream = tuple(upstream)

    def __enter__(self) -> "ChaosProxy":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- proxying -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            with self._upstream_lock:
                upstream = self.upstream
            try:
                server = socket.create_connection(upstream, timeout=30)
            except OSError:
                client.close()
                continue
            with self.stats.lock:
                self.stats.connections += 1
            for source, sink, tag in (
                (client, server, "worker->server"),
                (server, client, "server->worker"),
            ):
                pump = threading.Thread(
                    target=self._pump, args=(source, sink, tag), daemon=True
                )
                pump.start()
                self._threads.append(pump)

    def _recv_exact(self, sock: socket.socket, count: int) -> bytes | None:
        chunks, remaining = [], count
        while remaining:
            try:
                chunk = sock.recv(min(remaining, 1 << 20))
            except OSError:
                return None
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _pump(self, source: socket.socket, sink: socket.socket, tag: str) -> None:
        """Forward frames from ``source`` to ``sink``, injecting faults."""
        seen = 0
        try:
            while not self._stopping.is_set():
                preamble = self._recv_exact(source, _PREAMBLE.size)
                if preamble is None:
                    break
                if preamble[:4] != _MAGIC:
                    # Not repro-wire-v1 (a pickle fleet, a port scan):
                    # record the violation and go blind for the rest of
                    # this connection.
                    self.violations.append(
                        f"{tag}: non-v1 bytes {preamble[:4]!r} on the wire"
                    )
                    sink.sendall(preamble)
                    self._pump_blind(source, sink)
                    break
                _, header_len, heap_len = _PREAMBLE.unpack(preamble)
                if header_len + heap_len > _SANE_FRAME:
                    self.violations.append(
                        f"{tag}: absurd frame announcing "
                        f"{header_len + heap_len} bytes"
                    )
                    break
                rest = self._recv_exact(
                    source, header_len + heap_len + _MAC_SIZE
                )
                if rest is None:
                    break
                frame = preamble + rest
                seen += 1
                with self.stats.lock:
                    self.stats.frames += 1
                if not self._deliver(sink, frame, seen):
                    break
        except OSError:
            pass  # the opposite pump closed the pair first (EBADF/EPIPE)
        finally:
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def _pump_blind(self, source: socket.socket, sink: socket.socket) -> None:
        while not self._stopping.is_set():
            try:
                data = source.recv(1 << 16)
            except OSError:
                return
            if not data:
                return
            try:
                sink.sendall(data)
            except OSError:
                return

    def _roll(self) -> float:
        with self._rng_lock:
            return self._rng.random()

    def _deliver(self, sink: socket.socket, frame: bytes, seen: int) -> bool:
        """Send one frame, possibly faulted.  False tears the connection."""
        plan = self.plan
        if seen <= plan.handshake_grace:
            sink.sendall(frame)
            return True
        roll = self._roll()
        threshold = plan.corrupt
        if roll < threshold:
            corrupted = bytearray(frame)
            # Flip a byte past the preamble: lengths stay sane, the
            # stream stays aligned, only the MAC check fails.
            index = _PREAMBLE.size + int(
                self._roll() * (len(frame) - _PREAMBLE.size)
            )
            corrupted[min(index, len(frame) - 1)] ^= 0x55
            with self.stats.lock:
                self.stats.corrupted += 1
            sink.sendall(bytes(corrupted))
            return True
        threshold += plan.drop
        if roll < threshold:
            with self.stats.lock:
                self.stats.dropped += 1
            return True  # swallowed whole; stream stays aligned
        threshold += plan.duplicate
        if roll < threshold:
            with self.stats.lock:
                self.stats.duplicated += 1
            sink.sendall(frame + frame)
            return True
        threshold += plan.delay
        if roll < threshold:
            with self.stats.lock:
                self.stats.delayed += 1
            time.sleep(plan.delay_seconds)
            sink.sendall(frame)
            return True
        threshold += plan.truncate
        if roll < threshold:
            with self.stats.lock:
                self.stats.truncated += 1
            sink.sendall(frame[: max(1, len(frame) // 2)])
            return False  # tear the connection mid-frame
        sink.sendall(frame)
        return True


class WorkerFleet:
    """Real worker processes pointed at an address, with a kill switch.

    Args:
        address: ``HOST:PORT`` string the workers connect to (usually a
            :class:`ChaosProxy` front).
        linger: seconds each worker retries the address after a torn
            session — chaos workers must reconnect through faults.
        auth_token: shared secret forwarded via the environment.
    """

    def __init__(
        self,
        address: str,
        linger: float = 30.0,
        auth_token: str | None = None,
    ):
        self.address = address
        self.linger = linger
        self.auth_token = auth_token
        self.procs: list[subprocess.Popen] = []

    def spawn(self, count: int = 1) -> list[subprocess.Popen]:
        started = [
            serviceharness.spawn_worker(
                self.address,
                linger=self.linger,
                auth_token=self.auth_token,
            )
            for _ in range(count)
        ]
        self.procs.extend(started)
        return started

    def kill_one_after(self, delay: float) -> threading.Thread:
        """SIGKILL the first still-running worker after ``delay`` seconds
        (a hard node loss on a schedule).  Returns the timer thread."""

        def reap() -> None:
            time.sleep(delay)
            for proc in self.procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGKILL)
                    return

        thread = threading.Thread(target=reap, daemon=True)
        thread.start()
        return thread

    def join_late(self, delay: float, count: int = 1) -> threading.Thread:
        """Spawn ``count`` extra workers after ``delay`` seconds (elastic
        scale-up mid-campaign).  Returns the timer thread."""

        def join() -> None:
            time.sleep(delay)
            self.spawn(count)

        thread = threading.Thread(target=join, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        serviceharness.terminate_procs(self.procs)

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _self_test() -> int:
    """CI smoke: a live campaign through the proxy (5% corruption, one
    worker SIGKILLed, one late joiner) must match the serial run
    bit-for-bit with zero wire-format violations."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from repro.experiments.config import SweepConfig
    from repro.experiments.backends import SocketBackend
    from repro.experiments.runner import run_sweep

    config = SweepConfig(
        num_codes=2,
        words_per_code=2,
        num_rounds=16,
        error_counts=(2, 3),
        probabilities=(0.5, 1.0),
        profilers=("Naive", "HARP-U"),
    )
    serial = run_sweep(config)
    plan = FaultPlan(corrupt=0.05, seed=1234)
    result = {}
    with SocketBackend(spawn_workers=0, heartbeat_timeout=2.0, timeout=300.0) as backend:

        def campaign() -> None:
            result["sweep"] = run_sweep(config, backend=backend)

        runner = threading.Thread(target=campaign, daemon=True)
        runner.start()
        while backend.address is None:
            time.sleep(0.01)
        with ChaosProxy(backend.address, plan) as proxy:
            host, port = proxy.address
            with WorkerFleet(f"{host}:{port}") as fleet:
                fleet.spawn(2)
                fleet.kill_one_after(1.0)
                fleet.join_late(1.5)
                runner.join(timeout=300)
    if runner.is_alive():
        print("chaos self-test: campaign did not finish", file=sys.stderr)
        return 1
    if proxy.violations:
        print(f"wire violations: {proxy.violations}", file=sys.stderr)
        return 1
    chaos = result["sweep"]
    if chaos.cells.keys() != serial.cells.keys():
        print("chaos self-test: cell set mismatch", file=sys.stderr)
        return 1
    for key in serial.cells:
        if chaos.cells[key].words != serial.cells[key].words:
            print(f"chaos self-test: cell {key} diverged", file=sys.stderr)
            return 1
    print(
        f"chaos self-test: bit-identical under faults "
        f"({proxy.stats.frames} frames, {proxy.stats.corrupted} corrupted, "
        f"1 worker SIGKILLed, 1 late joiner)"
    )
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv:
        raise SystemExit(_self_test())
    raise SystemExit("usage: python tests/chaos.py --self-test")
