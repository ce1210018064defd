"""Pluggable execution backends for the Monte-Carlo shard engine.

The paper's artifact parallelizes its Monte-Carlo jobs across machines
and aggregates raw output files afterwards (§A.7).  This module is the
"across machines" half for the Python reproduction: every exhibit's work
decomposes into self-contained, picklable shards (see
:mod:`repro.experiments.runner`), and a backend decides *where* a shard
executes.  Because shards re-derive all state from seeds, the results
are bit-identical regardless of backend, worker count, or scheduling
order.

Backends
========

* :class:`SerialBackend` — in-process loop (``--backend serial``).
* :class:`ProcessPoolBackend` — a local
  ``concurrent.futures.ProcessPoolExecutor`` (``--backend process``,
  the default whenever ``jobs > 1``).
* :class:`SocketBackend` — a TCP worker fleet (``--backend socket``).
  Shards travel to worker processes as authenticated ``repro-wire-v1``
  frames (see :mod:`repro.experiments.wire`); workers are either
  spawned locally (``spawn_workers=N``) or started on any machine with
  the repo installed via::

      python -m repro worker --connect HOST:PORT

  Workers pull chunks of shards, execute them with their own warm
  process-local caches, and stream results back; a worker that
  disconnects mid-chunk has its chunk requeued for the survivors.
* :class:`SharedFleetBackend` — one campaign's view of the ``repro
  serve`` daemon's shared fleet.

Both socket backends are thin facades over the one work-port server,
:class:`WorkServer`: ``SocketBackend`` starts a private server per map
(fresh campaign id, spawned workers that exit with the map), while the
daemon keeps one server for its lifetime and hands each job a
``SharedFleetBackend``.  The protocol, hardening, and per-map policy
below therefore hold for both.

Every backend maps through one method,
:meth:`ExecutionBackend.imap_unordered`, which yields ``(shard_index,
result)`` pairs as shards complete, so the campaign loop streams each
finished cell to a :class:`~repro.experiments.store.ShardStore` while
later shards are still in flight.

Campaign hardening
==================

Paper-scale campaigns run for hours across many machines, so the work
server carries operational safeguards on top of the base protocol (see
``docs/distributed.md`` for the runbook):

* **Auth token** — when the server is constructed with ``auth_token``
  (CLI ``--auth-token``, or the ``REPRO_AUTH_TOKEN`` environment
  variable, both read by :func:`resolve_auth_token`), the worker must
  present the same secret in its ``hello`` frame; mismatches receive a
  ``reject`` frame and are dropped before the connection is trusted
  with any work.
* **Heartbeats** — a worker streams ``heartbeat`` frames while it
  executes a chunk (the server tells it the cadence in the ``welcome``
  frame).  A server that hears nothing for ``heartbeat_timeout``
  seconds presumes the worker dead — hard-killed, network-partitioned,
  or wedged — and requeues its chunk for the survivors, instead of
  blocking forever on a TCP peer that will never answer.
* **Retry budget** — every requeue of a chunk spends one unit of its
  ``max_chunk_retries`` budget.  A chunk that keeps killing workers
  (a poison shard) is quarantined once the budget is exhausted: its map
  fails with the chunk's identity (other maps on the fleet keep
  running) instead of feeding every worker that joins into the same
  crash loop.  (With ``--resume``, every cell completed before the
  abort is already durable.)
* **Start barrier** — ``workers_expected=N`` (CLI
  ``--workers-expected N``) holds all task dispatch until ``N`` workers
  have joined, so a paper-scale campaign cannot silently start grinding
  on a single straggler while the rest of the fleet is still booting.
* **Continue past quarantine** — ``continue_past_quarantine=True``
  (CLI ``--continue-past-quarantine``) changes what budget exhaustion
  means for that map: instead of failing it, the poison chunk is set
  aside and the rest of the grid completes.  At the end of the map an
  auto-retry pass re-runs each set-aside multi-shard chunk one shard at
  a time, healing the shards that were merely collateral
  (:attr:`ExecutionBackend.healed_shards`) and narrowing the skipped
  set to exactly the poison shards
  (:attr:`ExecutionBackend.quarantined_shards`), which the drivers
  report (and record in a ``--resume`` store) for a targeted re-run.
* **Status port** — ``status_port=PORT`` (CLI ``--status-port``)
  serves a live JSON snapshot of the server — fleet size, per-worker
  heartbeat age and in-flight chunk, queue depth, completed/total
  chunks, retry and quarantine counts — over HTTP, not frames, at
  ``GET /status`` (:class:`~repro.experiments.service.StatusHandler`);
  read it with ``python -m repro status HOST:PORT`` or ``curl``.

Wire format (``repro-wire-v1``)
===============================

Every message on the **work port** is one :mod:`repro.experiments.wire`
frame: a ``RPW1`` preamble with explicit header/blob lengths, a JSON
header carrying the frame kind, the server's campaign id, a
per-direction sequence number and the tagged-node payload, binary blob
sections for bulk data, and a trailing HMAC-SHA256 verified with
:func:`hmac.compare_digest` (keyed from the shared secret when the
fleet has one, from a fixed integrity label otherwise).  The payload is
always a tuple whose first element names the frame kind:

==========  =========  ===================================================
frame       direction  payload
==========  =========  ===================================================
hello       w → s      ``("hello", worker_pid, auth_token_or_None)``
welcome     s → w      ``("welcome", heartbeat_interval, campaign_id,
                       mac_mode)`` — the worker adopts the campaign id
                       and MAC mode (``"token"``/``"default"``) from it
reject      s → w      ``("reject", reason)`` — handshake refused
task        s → w      ``("task", ticket, worker_fn, [shards...])`` —
                       the ticket is ``(map_id, chunk_index)``
heartbeat   w → s      ``("heartbeat",)`` — streamed while a task runs
result      w → s      ``("result", ticket, [results...])``
error       w → s      ``("error", ticket, traceback_text)``
badframe    w → s      ``("badframe", reason)`` — the worker received a
                       frame it could not use; the server resends the
                       in-flight task (transport retry, no budget spent)
nack        s → w      ``("nack",)`` — the server received an unusable
                       frame; the worker resends its last result
leave       w → s      ``("leave",)`` — drain goodbye: dispatch nothing
                       more, no retry-budget charge (elastic fleets)
shutdown    s → w      ``("shutdown",)`` — session over, worker may exit
==========  =========  ===================================================

A frame that fails its MAC or decode is rejected *per frame* (the
``badframe``/``nack`` recovery above) instead of killing the session;
duplicated or replayed frames are dropped by their stale sequence
numbers; only structural stream damage (bad magic, absurd lengths)
drops the connection — and then the in-flight chunk requeues and the
worker's linger loop reconnects.

Security note: the only code reference a frame can carry is a
module-level *name* (resolved by import, never pickle construction),
and every frame is authenticated — with a shared secret this blocks
work injection by peers that do not know it.  The MAC does not encrypt:
the hello's join token and the shard payloads are readable on the wire,
so confidentiality still needs network isolation or a TLS tunnel.  The
status port is read-only and carries no secrets, but binds the same
host as the work port: routable bind, routable status.

Elastic fleets and graceful degradation
=======================================

Workers may join *after* dispatch has started (the
``workers_expected`` barrier only gates the first task) and leave
mid-campaign: a worker that reaches its ``--max-chunks`` budget or
receives SIGTERM sends a ``leave`` frame, drains cleanly, and is never
charged against any retry budget; the status snapshot counts the churn
(``fleet.left_total``).  ``max_buffered_chunks`` bounds how many
completed chunks a map holds for a slow consumer before its dispatch
pauses (backpressure).
"""

from __future__ import annotations

import hmac
import os
import random
import secrets
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from repro.experiments.monitor import STATUS_FORMAT, ThroughputHistory
from repro.experiments.wire import FrameRejected, make_session

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "SocketBackend",
    "WorkServer",
    "SharedFleetBackend",
    "MapCancelled",
    "WorkerRejectedError",
    "resolve_auth_token",
    "resolve_backend",
    "resolve_jobs",
    "run_worker",
]


#: Environment variable both server and worker read for the shared secret.
AUTH_TOKEN_ENV = "REPRO_AUTH_TOKEN"

#: Seconds of silence from a busy worker before its chunk is requeued.
DEFAULT_HEARTBEAT_TIMEOUT = 60.0

#: Requeues a chunk may spend on worker deaths before being quarantined.
DEFAULT_CHUNK_RETRIES = 2

#: In-session transport retries (task resends after ``badframe``, result
#: resends after ``nack``) before the connection is declared hopeless and
#: dropped — at which point the ordinary requeue/retry-budget machinery
#: takes over.  Generous: a chaos test corrupting 5% of frames should
#: never exhaust it, while a deterministic per-frame failure (code skew)
#: exhausts it in well under a second.
_TRANSPORT_RETRIES = 8

#: Worker reconnect backoff (linger loop): first delay and growth cap.
_BACKOFF_BASE = 0.2
_BACKOFF_CAP = 5.0


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` knob: ``None``→1, ``0``→one per CPU."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def resolve_auth_token(flag: str | None = None) -> str | None:
    """The fleet secret: ``flag``, else ``REPRO_AUTH_TOKEN``, else ``None``.

    Every CLI entry point reads the secret here.  An empty one is a
    failed shell substitution, not a request for an open fleet, so it
    raises ``ValueError`` wherever it came from.
    """
    token = os.environ.get(AUTH_TOKEN_ENV) if flag is None else flag
    if token == "":
        raise ValueError(
            "the fleet auth token is empty (--auth-token \"\" or a blank "
            f"{AUTH_TOKEN_ENV}); refusing to run an unauthenticated fleet "
            "by accident — unset it or provide a real secret"
        )
    return token


class ExecutionBackend(ABC):
    """Strategy for mapping a picklable worker function over shards.

    ``worker`` must be a module-level pure function of one shard so it
    pickles by reference.  :meth:`imap_unordered` is the only mapping
    method; it pairs each result with its shard index, so the campaign
    loop (:func:`~repro.experiments.campaign.run_campaign`) files results
    the same way on every backend, whatever order they complete in.
    """

    #: Short name used by CLI ``--backend`` and reprs.
    name: str = "abstract"

    #: Shard indices (into the last map's input sequence) that were set
    #: aside instead of executed.  Only the socket backend's opt-in
    #: ``continue_past_quarantine`` mode ever populates this; the local
    #: backends execute every shard or raise, so it stays empty.
    quarantined_shards: tuple[int, ...] = ()

    #: Shard indices that exhausted a chunk's retry budget but executed
    #: successfully when the end-of-map auto-retry pass re-ran them one
    #: at a time (their results WERE yielded).  Socket backend only.
    healed_shards: tuple[int, ...] = ()

    @abstractmethod
    def imap_unordered(
        self, worker: Callable, shards: Sequence, chunksize: int = 1
    ) -> Iterator[tuple[int, object]]:
        """Yield ``(shard_index, worker(shard))`` as each shard completes.

        Results surface in completion order, so a streaming consumer
        (the shard store) can make every finished shard durable at once;
        ``chunksize`` groups contiguous shards onto one worker to keep
        their shared process-local caches together.
        """

    def worker_hint(self) -> int:
        """Expected concurrent workers (callers size chunks from this)."""
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class SerialBackend(ExecutionBackend):
    """Run every shard in the calling process (bit-identical reference)."""

    name = "serial"

    def imap_unordered(
        self, worker: Callable, shards: Sequence, chunksize: int = 1
    ) -> Iterator[tuple[int, object]]:
        for index, shard in enumerate(shards):
            yield index, worker(shard)


def _run_chunk(worker: Callable, chunk: list) -> list:
    """Pool task: execute one chunk of shards (module-level, picklable)."""
    return [worker(shard) for shard in chunk]


class ProcessPoolBackend(ExecutionBackend):
    """Fan shards out over a local ``ProcessPoolExecutor``.

    Each chunk of ``chunksize`` contiguous shards is one pool task, and
    its results surface as soon as the task completes.  With at most one
    worker or one shard there is nothing to fan out, so the map runs in
    the calling process exactly as :class:`SerialBackend` would.
    """

    name = "process"

    def __init__(
        self,
        jobs: int | None = 0,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        #: Optional per-worker initializer (module-level, picklable), run
        #: once when a pool worker starts.  The shared-cache tier uses it
        #: to attach workers to the parent's published overlay block
        #: (:func:`repro.analysis.shared_memo.attach_worker`); fork-start
        #: children detect the inherited block and return immediately.
        self.initializer = initializer
        self.initargs = tuple(initargs)

    def _pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=self.initializer,
            initargs=self.initargs,
        )

    def worker_hint(self) -> int:
        return self.jobs

    def imap_unordered(
        self, worker: Callable, shards: Sequence, chunksize: int = 1
    ) -> Iterator[tuple[int, object]]:
        if len(shards) <= 1 or self.jobs <= 1:
            yield from SerialBackend().imap_unordered(worker, shards, chunksize)
            return
        chunksize = max(1, int(chunksize))
        pool = self._pool()
        try:
            futures = {}
            for base in range(0, len(shards), chunksize):
                chunk = list(shards[base : base + chunksize])
                futures[pool.submit(_run_chunk, worker, chunk)] = base
            for future in as_completed(futures):
                for offset, result in enumerate(future.result()):
                    yield futures[future] + offset, result
        finally:
            # A consumer that stops early (e.g. the shard store hit a
            # disk error) must not wait for the rest of the grid:
            # cancel everything not yet running before joining.
            pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# Socket transport.  The framing lives in :mod:`repro.experiments.wire`;
# the worker side is :func:`run_worker`, the server side
# :class:`WorkServer`.
# ----------------------------------------------------------------------


def _tokens_match(presented, expected: str) -> bool:
    """Timing-safe join-token comparison — never ``==`` on the secret.

    A plain ``==`` short-circuits on the first differing character, so
    an attacker who can time the handshake learns the token prefix byte
    by byte; :func:`hmac.compare_digest` compares in constant time.
    ``presented`` came off the wire and may be anything.
    """
    if not isinstance(presented, str):
        return False
    return hmac.compare_digest(
        presented.encode("utf-8"), expected.encode("utf-8")
    )


def parse_address(address: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (IPv4/hostname) into a connectable tuple."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return (host or "127.0.0.1", int(port))


class WorkerRejectedError(RuntimeError):
    """The server refused this worker's join handshake (bad auth token)."""


def _worker_session(
    host: str,
    port: int,
    auth_token: str | None = None,
    budget: list | None = None,
    drain: threading.Event | None = None,
) -> tuple[int, bool]:
    """Serve one server connection until it shuts the worker down.

    Returns ``(chunks executed, session ended cleanly)``.  Chunks done
    before the server drops the connection still count — the caller's
    idle detection must not mistake a hard-killed server for a worker
    that never did anything.  Raises :class:`WorkerRejectedError` when
    the server refuses the handshake: retrying cannot help, so the
    caller must not linger.

    While a chunk executes, a companion thread streams ``heartbeat``
    frames at the cadence the server's ``welcome`` frame requested, so
    the server can tell "still computing" from "hard-killed" and
    requeue only the latter.

    Per-frame recovery: a frame this worker cannot use
    answers with ``badframe`` (the server resends the task); a ``nack``
    from the server resends this worker's cached last reply.  ``budget``
    is a mutable ``[chunks remaining]`` cell shared with the caller —
    when it reaches zero the worker sends a ``leave`` goodbye *before*
    its final result, so the server deterministically stops dispatching
    to it.  ``drain`` is an event (set by SIGTERM) that makes an idle
    worker send ``leave`` and wait for the server's ``shutdown``.
    """
    executed = 0
    session = make_session(auth_token)
    try:
        with socket.create_connection((host, port)) as sock:
            # Heartbeats interleave with result frames on one socket;
            # the lock keeps each frame atomic.
            send_lock = threading.Lock()

            def send(message: tuple) -> None:
                with send_lock:
                    session.send(sock, message)

            send(("hello", os.getpid(), auth_token))
            busy = threading.Event()
            stop = threading.Event()
            interval = [DEFAULT_HEARTBEAT_TIMEOUT / 4]

            def beat() -> None:
                while not stop.is_set():
                    if not busy.wait(timeout=0.2):
                        continue
                    try:
                        send(("heartbeat",))
                    except OSError:
                        return
                    stop.wait(interval[0])

            heartbeats = threading.Thread(target=beat, daemon=True)
            heartbeats.start()
            if drain is not None:

                def goodbye_on_drain() -> None:
                    # SIGTERM sets ``drain`` from the signal handler; a
                    # thread sends the goodbye so the handler itself
                    # never touches the socket (it could interrupt the
                    # main thread while it holds ``send_lock``).
                    while not drain.wait(timeout=0.2):
                        if stop.is_set():
                            return
                    if stop.is_set():
                        return
                    try:
                        send(("leave",))
                    except OSError:
                        pass

                threading.Thread(target=goodbye_on_drain, daemon=True).start()
            #: Last result/error frame sent, cached for ``nack`` resends.
            last_reply: list = [None]
            left = False
            try:
                while True:
                    try:
                        message = session.recv(sock)
                    except FrameRejected as error:
                        # One unusable frame on an aligned stream: ask
                        # the server to resend instead of dying (the old
                        # codec killed the session here, feeding every
                        # replacement worker the same poison frame).
                        send(("badframe", str(error)))
                        continue
                    if message is None or message[0] == "shutdown":
                        break
                    if message[0] == "welcome":
                        # The server dictates the heartbeat cadence so one
                        # knob (its timeout) governs both sides, and hands
                        # down the campaign id + MAC mode for this map.
                        if len(message) > 1:
                            interval[0] = max(0.05, float(message[1]))
                        if len(message) > 2 and message[2]:
                            session.campaign = str(message[2])
                        session.secure(str(message[3]) if len(message) > 3 else None)
                        continue
                    if message[0] == "reject":
                        reason = message[1] if len(message) > 1 else "rejected by server"
                        raise WorkerRejectedError(str(reason))
                    if message[0] == "nack":
                        # The server could not use our last frame (line
                        # corruption): resend the cached reply verbatim.
                        if last_reply[0] is not None:
                            send(last_reply[0])
                        continue
                    try:
                        kind, index, worker, chunk = message
                        if kind != "task":
                            raise ValueError(f"unexpected frame kind {kind!r}")
                    except (ValueError, TypeError):
                        # A frame of the wrong shape (protocol skew) gets
                        # the same per-frame treatment as a corrupt one.
                        send(
                            (
                                "badframe",
                                "malformed task frame (protocol skew between "
                                f"server and worker?):\n{traceback.format_exc()}",
                            )
                        )
                        continue
                    busy.set()
                    try:
                        results = [worker(shard) for shard in chunk]
                    except Exception:
                        busy.clear()
                        last_reply[0] = ("error", index, traceback.format_exc())
                        send(last_reply[0])
                    else:
                        busy.clear()
                        if budget is not None and not left:
                            budget[0] -= 1
                            if budget[0] <= 0:
                                # Goodbye *before* the final result: the
                                # server sees the leave first and will not
                                # dispatch past this chunk.
                                left = True
                                send(("leave",))
                        last_reply[0] = ("result", index, results)
                        try:
                            send(last_reply[0])
                        except TypeError:
                            # Result not expressible on this wire format:
                            # a real task failure, not a transport one.
                            last_reply[0] = (
                                "error",
                                index,
                                "result not encodable on this wire format:\n"
                                + traceback.format_exc(),
                            )
                            send(last_reply[0])
                        executed += 1
            finally:
                stop.set()
                busy.clear()
    except OSError:
        return executed, False
    return executed, True


def _reconnect_backoff(
    base: float = _BACKOFF_BASE,
    cap: float = _BACKOFF_CAP,
    rng: Callable[[], float] | None = None,
) -> Iterator[float]:
    """Jittered exponential backoff delays for the linger reconnect loop.

    A dead server with a large fleet must not be hammered in lockstep:
    each failed attempt doubles the delay up to ``cap``, and every delay
    is jittered by ±50% so the fleet's retries spread out instead of
    arriving as synchronized thundering herds.  The caller restarts the
    generator after any successful session (the next map of the same
    exhibit usually binds within moments).  The default jitter source is
    private, so a lingering worker thread never moves the global ``random``.
    """
    if rng is None:
        rng = random.Random().random
    delay = base
    while True:
        yield delay * (0.5 + rng())
        delay = min(delay * 2.0, cap)


def run_worker(
    address: str,
    linger: float = 0.0,
    auth_token: str | None = None,
    max_chunks: int | None = None,
) -> tuple[int, bool]:
    """Socket-backend worker loop: ``python -m repro worker --connect ...``.

    Connects to a :class:`WorkServer` (a ``--backend socket`` map or the
    ``repro serve`` daemon), then pulls ``task`` frames (a chunk of shards
    plus the module-level worker function, shipped by reference),
    executes them, and streams ``result`` frames
    back until the server sends ``shutdown``.  Exceptions inside a task
    are reported as ``error`` frames with the formatted traceback and do
    not kill the worker.  Returns ``(chunks executed, reached)`` where
    ``reached`` records whether any session drained cleanly — the CLI
    uses it to tell "server unreachable" (alarm) from "queue was
    legitimately empty" (healthy) when the count is zero.

    ``auth_token`` is presented in the join handshake; a server that
    requires a different secret answers with a ``reject`` frame, which
    raises :class:`WorkerRejectedError` immediately (no linger retries —
    a wrong secret will be wrong next time too).  The CLI reads the
    token with :func:`resolve_auth_token` (``--auth-token``, else the
    ``REPRO_AUTH_TOKEN`` environment variable, which is also how a
    server passes the secret to the workers it spawns itself).

    ``linger`` keeps the worker alive across *servers*: a CLI invocation
    runs one socket map per campaign and per extra grid (headline two,
    ext-patterns three, ``all`` eight), each draining its workers with
    ``shutdown``, so after a session ends the worker keeps retrying the
    address for ``linger`` seconds and joins the next map that binds it.  ``0`` exits after the
    first session (or immediately if no server is listening).  Failed
    reconnect attempts back off exponentially with jitter (capped at
    ``_BACKOFF_CAP`` seconds) so a dead server is not hammered.

    ``max_chunks`` makes the worker *elastic*: after executing that many
    chunks it sends a ``leave`` goodbye and exits cleanly, with no
    retry-budget charge on the server (scale-down, spot-instance
    reclaim, rolling restarts).  SIGTERM triggers the same drain for an
    idle or busy worker (at most the in-flight chunk completes first).
    """
    host, port = parse_address(address)
    executed = 0
    reached = False
    budget = None
    if max_chunks is not None:
        max_chunks = int(max_chunks)
        if max_chunks <= 0:
            raise ValueError("max_chunks must be positive (or None)")
        budget = [max_chunks]
    drain = threading.Event()
    try:
        # Only the main thread may install handlers; tests drive
        # run_worker from threads, where SIGTERM drain simply stays off.
        previous_handler = signal.signal(signal.SIGTERM, lambda *_: drain.set())
    except ValueError:
        previous_handler = None
    try:
        deadline = time.monotonic() + max(0.0, linger)
        backoff = _reconnect_backoff()
        while True:
            chunks, clean = _worker_session(
                host, port, auth_token=auth_token, budget=budget, drain=drain,
            )
            executed += chunks
            reached = reached or clean
            if budget is not None and budget[0] <= 0:
                return executed, reached  # drained at --max-chunks
            if drain.is_set():
                return executed, reached  # SIGTERM drain: clean exit
            if chunks or clean:
                # A session that served chunks or drained cleanly
                # refreshes the window and resets the backoff: the next
                # map of the same exhibit usually starts within moments.
                # A server that was never reachable does not — the
                # linger clock keeps running and the delays keep growing.
                deadline = time.monotonic() + max(0.0, linger)
                backoff = _reconnect_backoff()
            now = time.monotonic()
            if now >= deadline:
                return executed, reached
            time.sleep(min(next(backoff), max(0.05, deadline - now)))
            if drain.is_set():
                return executed, reached
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)


class _RemoteTaskError(RuntimeError):
    """A task raised on a worker; carries the remote traceback."""


#: Placeholder a quarantined chunk leaves in its map's completion buffer
#: (continue mode): the consumer records the chunk's shard indices and
#: moves on without yielding results for them.
_QUARANTINED = object()

#: Placeholder a *split* chunk leaves in its map's completion buffer
#: (continue mode): the chunk's shards were re-queued as single-shard
#: chunks for the end-of-map auto-retry pass, so the consumer skips the
#: placeholder — the results (or one-shard quarantines) arrive under the
#: new chunk indices.
_SPLIT = object()


class MapCancelled(RuntimeError):
    """Raised to a map's consumer when the map was cancelled mid-flight.

    Only :meth:`MapHandle.cancel` (the daemon's job cancel) triggers
    this; a CLI consumer just closes the iterator.  The service layer
    turns it into the ``cancelled`` job state instead of ``failed``.
    """


class _Map:
    """One map's dispatch and completion state on a :class:`WorkServer`.

    Every field is guarded by the server's condition variable.
    """

    def __init__(
        self,
        worker: Callable,
        shards: Sequence,
        chunksize: int,
        continue_past_quarantine: bool,
        max_buffered_chunks: int | None,
        timeout: float | None,
        info: dict | None,
    ) -> None:
        self.worker = worker
        self.shards = shards
        #: Shard indices per chunk.  Chunk identity is *this list*, not
        #: ``base + offset``: the auto-retry pass appends single-shard
        #: chunks past the original tail when it splits a poison chunk.
        self.chunk_shards = [
            list(range(i, min(i + chunksize, len(shards))))
            for i in range(0, len(shards), chunksize)
        ]
        self.original = len(self.chunk_shards)
        self.pending: deque[int] = deque(range(self.original))
        #: Split singles parked until the main grid drains (end-of-map
        #: auto-retry): re-running them early would just feed the same
        #: healthy fleet into the poison shard over and over.
        self.deferred: deque[int] = deque()
        self.completed: dict[int, object] = {}
        #: Worker deaths charged against each chunk's retry budget.
        self.attempts: dict[int, int] = {}
        self.done = 0
        self.served = 0
        self.in_flight = 0
        #: Chunks that must complete for the map to finish; grows when a
        #: poison chunk is split into auto-retry singles.
        self.expected = self.original
        self.error: BaseException | None = None
        self.cancelled = False
        self.continue_past_quarantine = continue_past_quarantine
        self.max_buffered_chunks = max_buffered_chunks
        self.deadline = None if timeout is None else time.monotonic() + timeout
        #: Driver-supplied workload fields echoed into status snapshots.
        self.info = info

    def dispatchable(self) -> bool:
        """Is a chunk ready to hand out?

        Pauses while the completion buffer is full (backpressure), and
        promotes the deferred auto-retry singles once the main grid has
        fully drained (nothing pending, nothing in flight) — the "end of
        map" in end-of-map auto-retry.
        """
        if self.cancelled or self.error is not None:
            return False
        if (
            self.max_buffered_chunks is not None
            and len(self.completed) >= self.max_buffered_chunks
        ):
            return False
        if (
            not self.pending
            and self.deferred
            and self.in_flight == 0
            and self.done >= self.expected - len(self.deferred)
        ):
            self.pending.extend(self.deferred)
            self.deferred.clear()
        return bool(self.pending)


class WorkServer:
    """The work-port server: one worker fleet, any number of maps.

    This is the only implementation of the work protocol.  It binds
    once, keeps worker sessions alive across maps, and hands out chunks
    **round-robin across all open maps**: with two campaigns sharing two
    workers, each advances at half speed instead of the second starving
    behind the first.  Two shapes use it:

    * :class:`SocketBackend` starts a private server per map (fresh
      campaign id, spawned workers at ``--linger 0`` that exit with the
      map) and closes it when the map drains.
    * The ``repro serve`` daemon keeps one server for its lifetime and
      wraps it in a :class:`SharedFleetBackend` per job.

    The campaign id in the ``welcome`` frame scopes the server lifetime,
    so a frame replayed from another server (or a previous incarnation
    of this one) is rejected per-frame.  Task frames carry a
    ``(map_id, chunk_index)`` ticket that workers echo back, so
    interleaved chunks from concurrent maps never collide, and a chunk
    requeued after a worker death is re-sent under the same ticket.

    Per-map policy is set at :meth:`submit`: heartbeat deadlines requeue
    a dead worker's chunk, each requeue spends the chunk's retry budget,
    and budget exhaustion fails *that map only* — or, with
    ``continue_past_quarantine``, sets the chunk aside for the end-of-map
    auto-retry pass.
    """

    def __init__(
        self,
        bind: str = "127.0.0.1:0",
        *,
        spawn_workers: int = 0,
        auth_token: str | None = None,
        workers_expected: int = 0,
        heartbeat_timeout: float | None = DEFAULT_HEARTBEAT_TIMEOUT,
        max_chunk_retries: int = DEFAULT_CHUNK_RETRIES,
        status_port: int | None = None,
        worker_linger: float = 5.0,
    ) -> None:
        self.bind_host, self.bind_port = parse_address(bind)
        if spawn_workers < 0:
            raise ValueError("spawn_workers must be >= 0")
        if workers_expected < 0:
            raise ValueError("workers_expected must be >= 0")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive (or None)")
        if max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        if status_port is not None and not 0 <= status_port <= 65535:
            raise ValueError("status_port must be a TCP port (or None)")
        self.spawn_workers = spawn_workers
        self.auth_token = auth_token
        self.workers_expected = workers_expected
        self.heartbeat_timeout = heartbeat_timeout
        self.max_chunk_retries = max_chunk_retries
        self.status_port = status_port
        self.worker_linger = worker_linger
        #: Resolved ``(host, port)`` of the live work listener.
        self.address: tuple[str, int] | None = None
        #: Resolved ``(host, port)`` of the live status server (if any).
        self.status_address: tuple[str, int] | None = None
        #: One fleet epoch: every worker session and every frame of
        #: every map submitted to this server is scoped to this id.
        self._campaign = secrets.token_hex(8)
        self._condition = threading.Condition()
        self._closed = threading.Event()
        self._maps: dict[int, _Map] = {}
        self._rotation: deque[int] = deque()
        self._next_map = 0
        #: Live per-worker registry for the status snapshot: handler id
        #: -> {pid, last_seen, chunk}; mutated under ``_condition``.
        self._fleet: dict[int, dict] = {}
        self._state = {
            "handlers": 0,
            "joined": 0,
            "left": 0,
            "retries": 0,
            "done": 0,
            "expected_total": 0,
            "opened": 0,
            "healed": 0,
        }
        #: Chunk indices set aside past their budget (continue mode).
        self._quarantined: list[int] = []
        self._history = ThroughputHistory()
        self._started = time.monotonic()
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._status_server = None
        self._procs: list[subprocess.Popen] = []

    def _heartbeat_interval(self) -> float:
        """Cadence workers are told to beat at (quarter of the deadline)."""
        if self.heartbeat_timeout is None:
            return DEFAULT_HEARTBEAT_TIMEOUT / 4
        return max(0.05, self.heartbeat_timeout / 4)

    def worker_hint(self) -> int:
        """Expected workers: exact for spawn-only, padded when remote-capable.

        A loopback bind with spawned workers is effectively a local pool
        of known size.  A routable bind (or a remote-only server,
        ``spawn_workers=0``) can't know how many ``--connect`` workers
        will join; a generous over-estimate keeps chunks small enough
        that late joiners still find work and a dropped worker requeues
        little — it must in particular exceed typical error-count block
        counts (~4), or :func:`~repro.experiments.runner._sweep_chunksize`
        would never split blocks and fleets larger than the block count
        would starve.
        """
        if self.spawn_workers and self.bind_host in ("127.0.0.1", "localhost", "::1"):
            return self.spawn_workers
        return max(self.spawn_workers, 16)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "WorkServer":
        """Bind the work port, start accepting, spawn the local fleet.

        On failure the caller must still :meth:`close` the server, which
        releases whatever was already bound or spawned.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.bind_host, self.bind_port))
            listener.listen()
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self.address = listener.getsockname()[:2]
        if self.status_port is not None:
            from repro.experiments.service import StatusHandler, serve_http

            self._status_server = serve_http(
                (self.bind_host, self.status_port), StatusHandler, snapshot=self.snapshot
            )
            self.status_address = self._status_server.server_address[:2]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-workserver-accept", daemon=True
        )
        self._acceptor.start()
        self._procs = self._spawn_local_workers(self.address[1])
        return self

    def _spawn_local_workers(self, port: int) -> list[subprocess.Popen]:
        """Launch the server's own workers pointed at the live listener.

        A worker must import whatever module-level function the parent
        maps — :mod:`repro` itself however it was found (installed,
        ``PYTHONPATH=src``, a pytest path hack), but also caller-defined
        workers — so the child inherits the parent's full ``sys.path``
        via ``PYTHONPATH``, matching the visibility a forked pool worker
        would have.  (Remote workers are started by hand and only need
        :mod:`repro` importable.)

        ``worker_linger`` is the workers' ``--linger``: the daemon's
        fleet outlives individual maps, so a worker that loses its
        connection retries the port for a few seconds instead of
        shrinking the fleet for good; a per-map server passes ``0`` so
        its workers exit with the map.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(entry for entry in sys.path if entry)
        # A tokenless server's workers must not pick up an ambient
        # secret (a blank one would make them refuse to start).
        env.pop(AUTH_TOKEN_ENV, None)
        if self.auth_token is not None:
            # The environment, not the command line: `ps` shows argv to
            # every user on the box, while the child's environment stays
            # private to it.
            env[AUTH_TOKEN_ENV] = self.auth_token
        command = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--linger",
            str(self.worker_linger),
            # Don't alarm when siblings drained the queue first.
            "--spawned",
        ]
        return [
            subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
            for _ in range(self.spawn_workers)
        ]

    def close(self) -> None:
        """Stop accepting, end worker sessions, reap spawned workers.

        Handlers see the closed flag, stop dispatching, and shut their
        workers down — including when a consumer abandoned its map early
        (e.g. the shard store hit a disk error), so no cluster CPU burns
        on a map nobody reads.
        """
        self._closed.set()
        with self._condition:
            self._condition.notify_all()
        if self._listener is not None:
            self._listener.close()
        if self._status_server is not None:
            self._status_server.shutdown()
            self._status_server.server_close()
            self._status_server = None
        if self._acceptor is not None:
            self._acceptor.join(timeout=5)
        for process in self._procs:
            # A lingering worker retries the (now closed) port for up to
            # worker_linger seconds before exiting cleanly; escalate
            # only past that.
            try:
                process.wait(timeout=self.worker_linger + 10)
            except subprocess.TimeoutExpired:  # pragma: no cover - cleanup
                process.kill()
        self._procs = []
        self.address = None
        self.status_address = None

    # -- map registry ---------------------------------------------------

    def submit(
        self,
        worker: Callable,
        shards: Sequence,
        chunksize: int = 1,
        *,
        continue_past_quarantine: bool = False,
        max_buffered_chunks: int | None = None,
        timeout: float | None = None,
        info: dict | None = None,
    ) -> "MapHandle":
        """Open a map over the fleet; iterate the handle's results.

        The keywords are the per-map policy :class:`SocketBackend`
        documents; the daemon's maps keep the defaults, so a spent retry
        budget fails that map only.  ``timeout`` bounds the whole map
        (``None`` waits forever); ``info`` is echoed into snapshots as
        ``campaign``.
        """
        if self._closed.is_set():
            raise RuntimeError("work server is closed")
        entry = _Map(
            worker,
            shards,
            max(1, int(chunksize)),
            continue_past_quarantine,
            max_buffered_chunks,
            timeout,
            info,
        )
        with self._condition:
            map_id = self._next_map
            self._next_map += 1
            self._maps[map_id] = entry
            self._rotation.append(map_id)
            self._state["opened"] += 1
            self._state["expected_total"] += entry.expected
            self._condition.notify_all()
        return MapHandle(self, map_id, entry)

    def _close_map(self, map_id: int) -> None:
        """Deregister a consumed/abandoned map; drop its late replies."""
        with self._condition:
            if self._maps.pop(map_id, None) is not None:
                self._rotation.remove(map_id)
                self._condition.notify_all()

    def _pick_locked(self) -> tuple[int, int] | None:
        """Under the condition: next ``(map_id, chunk_index)`` to dispatch.

        One full turn of the rotation per call, advancing the rotation
        past the map it serves — this *is* the cross-campaign fairness:
        each dispatch opportunity goes to the next open map that has
        work, so concurrent campaigns interleave chunk-by-chunk instead
        of draining in submission order.
        """
        for _ in range(len(self._rotation)):
            map_id = self._rotation[0]
            self._rotation.rotate(-1)
            entry = self._maps[map_id]
            if entry.dispatchable():
                return map_id, entry.pending.popleft()
        return None

    def _complete_locked(self, entry: _Map, chunk: int, payload) -> None:
        """Under the condition: file one chunk's results (or marker)."""
        entry.completed[chunk] = payload
        entry.done += 1
        self._state["done"] += 1
        self._history.record(time.monotonic() - self._started, self._state["done"])

    def _requeue_locked(self, entry: _Map, chunk: int) -> None:
        """Under the condition: give a lost chunk back to its map.

        Each requeue spends retry budget: a chunk that keeps killing
        workers is quarantined instead of crash-looping the whole fleet
        — failing its map with the chunk's identity by default, or (in
        continue mode) setting it aside and finishing the grid.  A
        multi-shard chunk is set aside as single-shard chunks for the
        end-of-map auto-retry pass, so only the truly poison shard(s)
        stay quarantined and the rest heal.
        """
        entry.attempts[chunk] = entry.attempts.get(chunk, 0) + 1
        self._state["retries"] += 1
        if entry.attempts[chunk] <= self.max_chunk_retries:
            entry.pending.appendleft(chunk)
        elif not entry.continue_past_quarantine:
            entry.error = RuntimeError(
                f"shard chunk {chunk} was lost by {entry.attempts[chunk]} "
                f"worker(s) in a row; retry budget ({self.max_chunk_retries}) "
                "exhausted — quarantining it as a poison chunk and failing "
                "this map (other maps on the fleet are unaffected).  "
                "Investigate the shard (or raise max_chunk_retries, or run "
                "with --continue-past-quarantine); cells already streamed "
                "to a --resume store are safe."
            )
        elif len(entry.chunk_shards[chunk]) > 1:
            for shard_index in entry.chunk_shards[chunk]:
                entry.chunk_shards.append([shard_index])
                entry.deferred.append(len(entry.chunk_shards) - 1)
            entry.expected += len(entry.chunk_shards[chunk])
            self._state["expected_total"] += len(entry.chunk_shards[chunk])
            self._complete_locked(entry, chunk, _SPLIT)
        else:
            self._quarantined.append(chunk)
            self._complete_locked(entry, chunk, _QUARANTINED)

    def _check_liveness_locked(self) -> None:
        """Fail open maps fast when every spawned worker is gone.

        Only applies when the server spawned its own workers: a server
        awaiting external ``--connect`` workers legitimately idles.
        """
        if not self._procs or self._state["handlers"] > 0:
            return
        if all(process.poll() is not None for process in self._procs):
            codes = [process.returncode for process in self._procs]
            for entry in self._maps.values():
                if entry.error is None and entry.done < entry.expected:
                    entry.error = RuntimeError(
                        "all spawned socket workers exited with "
                        f"{entry.expected - entry.done} chunk(s) outstanding "
                        f"(exit codes: {codes})"
                    )

    # -- status ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Assemble the repro-status-v2 snapshot served at ``GET /status``."""
        with self._condition:
            now = time.monotonic()
            maps = list(self._maps.values())
            info = next((entry.info for entry in maps if entry.info), None)
            return {
                **({"campaign": dict(info)} if info else {}),
                "format": STATUS_FORMAT,
                "elapsed": round(now - self._started, 3),
                "wire": "v1",
                "fleet": {
                    "size": len(self._fleet),
                    "joined_total": self._state["joined"],
                    "left_total": self._state["left"],
                    "expected": self.workers_expected,
                },
                "workers": [
                    {
                        "pid": worker["pid"],
                        "heartbeat_age": round(now - worker["last_seen"], 3),
                        "chunk": worker["chunk"],
                    }
                    for worker in self._fleet.values()
                ],
                "chunks": {
                    "total": self._state["expected_total"],
                    "done": self._state["done"],
                    "pending": sum(len(entry.pending) for entry in maps),
                    "deferred": sum(len(entry.deferred) for entry in maps),
                    "in_flight": sum(entry.in_flight for entry in maps),
                },
                "retries": self._state["retries"],
                "quarantined": sorted(self._quarantined),
                "healed": self._state["healed"],
                "maps": {"active": len(maps), "opened": self._state["opened"]},
                "history": self._history.sample(),
            }

    # -- worker sessions ------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        listener.settimeout(0.1)
        while not self._closed.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._condition:
                self._state["handlers"] += 1
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn: socket.socket) -> None:
        """Serve one worker session across every map this server hosts.

        An idle session (no dispatchable chunk right now) must *wait*,
        not dismiss its worker: another worker may still fail mid-chunk
        and requeue work that only this one can pick up, and the next
        map may arrive at any time.  While it waits it polls the socket,
        because an idle worker may still speak — a ``leave`` goodbye
        (SIGTERM drain) that must turn into a prompt ``shutdown``, not a
        task.
        """
        me: dict | None = None
        ticket: tuple[int, int] | None = None
        session = make_session(self.auth_token)

        def poll_goodbye() -> str | None:
            """Drain frames an *idle* worker sent; ``"leave"``/``"eof"``
            end the session, anything else (a straggler heartbeat) is
            ignorable."""
            while select.select([conn], [], [], 0)[0]:
                conn.settimeout(5)
                try:
                    early = session.recv(conn)
                except FrameRejected:
                    continue
                finally:
                    conn.settimeout(self.heartbeat_timeout)
                if early is None:
                    return "eof"
                if early[0] == "leave":
                    return "leave"
            return None

        try:
            with conn:
                # A connection that never speaks (port scan, health
                # probe) must not park this handler forever: while it
                # counts as a handler, the all-workers-died fail-fast is
                # suppressed.  Bound the hello.
                conn.settimeout(5)
                hello = session.recv(conn)
                if not hello or hello[0] != "hello":
                    return
                token = hello[2] if len(hello) > 2 else None
                if self.auth_token is not None and not _tokens_match(
                    token, self.auth_token
                ):
                    # Reject *before* the connection is trusted with any
                    # task frame; the worker surfaces the reason and
                    # exits instead of linger-retrying.
                    try:
                        session.send(conn, ("reject", "bad or missing auth token"))
                    except OSError:
                        pass
                    return
                # The welcome is the last handshake frame (fixed MAC
                # key); it hands the worker the campaign id and the MAC
                # mode both sides use from here on.
                session.send(
                    conn,
                    (
                        "welcome",
                        self._heartbeat_interval(),
                        self._campaign,
                        session.mac_mode,
                    ),
                )
                session.campaign = self._campaign
                session.secure()
                # While a chunk is in flight every frame — heartbeat or
                # reply — must arrive within the deadline, or the worker
                # is presumed dead and the chunk requeued.
                conn.settimeout(self.heartbeat_timeout)
                me = {"pid": hello[1], "last_seen": time.monotonic(), "chunk": None}
                with self._condition:
                    self._state["joined"] += 1
                    self._fleet[id(me)] = me
                    self._condition.notify_all()
                goodbye: str | None = None
                while not goodbye:
                    # -- wait for a chunk from any open map --------------
                    task = None
                    while task is None:
                        goodbye = poll_goodbye()
                        if goodbye:
                            break
                        with self._condition:
                            if self._closed.is_set():
                                break
                            if self._state["joined"] >= self.workers_expected:
                                ticket = self._pick_locked()
                            if ticket is None:
                                self._condition.wait(0.1)
                                continue
                            entry = self._maps[ticket[0]]
                            entry.in_flight += 1
                            me["chunk"] = ticket[1]
                            me["last_seen"] = time.monotonic()
                            task = (
                                "task",
                                ticket,
                                entry.worker,
                                [entry.shards[i] for i in entry.chunk_shards[ticket[1]]],
                            )
                    if task is None:
                        break  # server closing, or the worker said goodbye
                    # -- dispatch, then pump frames until the reply ------
                    session.send(conn, task)
                    resends = nacks = 0
                    while True:
                        try:
                            reply = session.recv(conn)
                        except FrameRejected:
                            # Corrupt-but-aligned frame from the worker:
                            # ask it to resend its reply instead of
                            # declaring it dead.
                            nacks += 1
                            if nacks > _TRANSPORT_RETRIES:
                                raise ConnectionError(
                                    "worker kept sending unusable frames; "
                                    "dropping the connection"
                                )
                            session.send(conn, ("nack",))
                            continue
                        if reply is None:
                            raise ConnectionError("worker hung up mid-task")
                        with self._condition:
                            me["last_seen"] = time.monotonic()
                        if reply[0] == "heartbeat":
                            continue
                        if reply[0] == "leave":
                            # Drain goodbye ahead of the final result
                            # (--max-chunks): take the result, then stop
                            # dispatching to this worker.
                            goodbye = "leave"
                            continue
                        if reply[0] == "badframe":
                            # The worker could not use our task frame;
                            # resend it in place (transport retry, no
                            # retry-budget charge).
                            resends += 1
                            if resends > _TRANSPORT_RETRIES:
                                detail = reply[1] if len(reply) > 1 else "unknown"
                                raise ConnectionError(
                                    "worker could not use the task frame "
                                    f"after {resends} sends: {detail}"
                                )
                            session.send(conn, task)
                            continue
                        if reply[0] in ("result", "error") and reply[1] != ticket:
                            continue  # stale resend from nack crossfire
                        break
                    kind, _, payload = reply
                    with self._condition:
                        # A closed map (consumed or abandoned) drops its
                        # late replies.
                        entry = self._maps.get(ticket[0])
                        if entry is not None:
                            entry.in_flight -= 1
                            if kind == "error":
                                entry.error = _RemoteTaskError(
                                    f"shard chunk {ticket[1]} failed on a "
                                    f"socket worker:\n{payload}"
                                )
                            elif not entry.cancelled:
                                self._complete_locked(entry, ticket[1], payload)
                        ticket = None
                        me["chunk"] = None
                        self._condition.notify_all()
                if goodbye == "leave":
                    with self._condition:
                        self._state["left"] += 1
                        self._condition.notify_all()
                try:
                    session.send(conn, ("shutdown",))
                except OSError:
                    pass
        except Exception:
            # Any session failure — a dropped connection, a missed
            # heartbeat deadline, but also a malformed reply frame —
            # must give the in-flight chunk back to its map, or the map
            # would wait forever on a chunk nobody owns.
            with self._condition:
                entry = self._maps.get(ticket[0]) if ticket is not None else None
                if entry is not None:
                    entry.in_flight -= 1
                    self._requeue_locked(entry, ticket[1])
                self._condition.notify_all()
        finally:
            with self._condition:
                self._state["handlers"] -= 1
                if me is not None:
                    self._fleet.pop(id(me), None)
                self._condition.notify_all()


class MapHandle:
    """Consumer handle for one map opened on a :class:`WorkServer`."""

    def __init__(self, server: WorkServer, map_id: int, entry: _Map) -> None:
        self._server = server
        self._map = entry
        self.map_id = map_id
        #: Shard indices set aside past their retry budget (continue
        #: mode), filled in as the consumer reaches their markers.
        self.quarantined: list[int] = []
        #: Shard indices the end-of-map auto-retry pass healed (their
        #: results *were* yielded).
        self.healed: list[int] = []

    def cancel(self) -> None:
        """Stop dispatching this map; discard in-flight results.

        Idempotent and safe from any thread; the consumer iterating
        :meth:`results` wakes promptly with :class:`MapCancelled`.
        """
        with self._server._condition:
            self._map.cancelled = True
            self._map.pending.clear()
            self._server._condition.notify_all()

    def results(self) -> Iterator[tuple[int, object]]:
        """Yield ``(shard_index, result)`` in completion order.

        Raises :class:`MapCancelled` after :meth:`cancel`, the map's
        failure (poison chunk, remote error, dead fleet), or
        :class:`TimeoutError` past the map's ``timeout``.  Closing the
        generator early deregisters the map and stops its dispatch.
        """
        server, entry = self._server, self._map
        condition = server._condition
        retries = server.max_chunk_retries
        try:
            while True:
                with condition:
                    while True:
                        if entry.cancelled:
                            raise MapCancelled(f"map {self.map_id} was cancelled")
                        if entry.error is not None:
                            raise entry.error
                        if entry.completed or entry.served >= entry.expected:
                            break
                        if server._closed.is_set():
                            raise RuntimeError(
                                "work server closed with the map incomplete"
                            )
                        if entry.deadline is not None and time.monotonic() > entry.deadline:
                            joined = server._state["joined"]
                            barrier = (
                                f" (start barrier: {joined} of "
                                f"{server.workers_expected} expected workers joined)"
                                if joined < server.workers_expected
                                else ""
                            )
                            raise TimeoutError(
                                f"socket map timed out with {entry.expected - entry.done}"
                                f" chunk(s) outstanding{barrier}"
                            )
                        server._check_liveness_locked()
                        condition.wait(0.1)
                    if not entry.completed:
                        break
                    # Pop so the map holds only the unconsumed chunks;
                    # the freed buffer slot lifts the backpressure gate.
                    index, payload = entry.completed.popitem()
                    entry.served += 1
                    shard_indices = entry.chunk_shards[index]
                    healed = index >= entry.original and payload is not _QUARANTINED
                    if healed:
                        server._state["healed"] += len(shard_indices)
                    condition.notify_all()
                if payload is _SPLIT:
                    print(
                        f"repro: chunk {index} exhausted its retry budget "
                        f"({retries}); re-running its {len(shard_indices)} "
                        "shard(s) one at a time at end of map (auto-retry)",
                        file=sys.stderr,
                    )
                elif payload is _QUARANTINED:
                    self.quarantined.extend(shard_indices)
                    print(
                        f"repro: chunk {index} quarantined after exhausting its "
                        f"retry budget ({retries}); continuing with the rest of "
                        "the grid (--continue-past-quarantine)",
                        file=sys.stderr,
                    )
                else:
                    if healed:
                        # A split single that completed: its shard was
                        # collateral damage of a poison chunk-mate.
                        self.healed.extend(shard_indices)
                    yield from zip(shard_indices, payload)
            if self.healed:
                print(
                    f"repro: auto-retry healed {len(self.healed)} of "
                    f"{len(self.healed) + len(self.quarantined)} shard(s) from "
                    "quarantined chunks; poison set narrowed to "
                    f"{len(self.quarantined)} shard(s)",
                    file=sys.stderr,
                )
        finally:
            server._close_map(self.map_id)


class _FleetFacade(ExecutionBackend):
    """An :class:`ExecutionBackend` over :class:`WorkServer` maps.

    The consumer side both socket backends share: subclasses supply
    :meth:`_map`, a context manager that submits one map and yields its
    :class:`MapHandle`.
    """

    def __init__(self, fleet: WorkServer) -> None:
        self._fleet = fleet
        #: Shards submitted by this facade (resumed cells never were).
        self.shards_total = 0
        #: Shards whose results have been yielded back to the driver.
        self.shards_done = 0

    def worker_hint(self) -> int:
        return self._fleet.worker_hint()

    def imap_unordered(
        self, worker: Callable, shards: Sequence, chunksize: int = 1
    ) -> Iterator[tuple[int, object]]:
        self.quarantined_shards = ()
        self.healed_shards = ()
        with self._map(worker, shards, chunksize) as handle:
            self.shards_total += len(shards)
            results = handle.results()
            try:
                for pair in results:
                    self.shards_done += 1
                    yield pair
            finally:
                results.close()
                self.quarantined_shards = tuple(sorted(handle.quarantined))
                self.healed_shards = tuple(sorted(handle.healed))


class SocketBackend(_FleetFacade):
    """Ship shards to worker processes over TCP, one server per map.

    Each map call starts a private :class:`WorkServer` — a fresh
    campaign id, so a lingering worker's frames from the previous map
    are rejected per-frame, and freshly spawned workers that exit with
    the map — submits the one map, and closes the server when the map
    drains or its consumer stops early.

    Args:
        bind: ``HOST:PORT`` to listen on.  Port ``0`` picks an ephemeral
            port (the resolved address is available as ``self.address``
            while a map is running).  Bind a routable host to accept
            workers from other machines.
        spawn_workers: local worker processes to launch per map call
            (each runs ``python -m repro worker --connect``); ``0``
            relies entirely on externally-started workers.
        timeout: overall seconds to wait for results before failing
            (``None`` waits forever — the distributed default, matching
            the artifact's "come back when the machines are done").
        auth_token: shared secret a worker must present in its ``hello``
            frame; ``None`` accepts every worker.  Spawned local workers
            inherit the secret through the ``REPRO_AUTH_TOKEN``
            environment variable (never the command line, which ``ps``
            would show); remote workers pass ``--auth-token`` or set the
            same variable.
        workers_expected: hold every task until this many workers have
            joined (the start barrier for paper-scale fleets); ``0``
            dispatches to the first worker that shows up.
        heartbeat_timeout: seconds of silence from a worker that owns a
            chunk before it is presumed dead and its chunk requeued.
            Workers are told to heartbeat at a quarter of this, so a
            healthy-but-slow chunk never trips it.  ``None`` disables
            the deadline (wait forever).
        max_chunk_retries: worker deaths one chunk may survive before it
            is quarantined as a poison shard and the map aborts, instead
            of crash-looping every worker that joins.
        continue_past_quarantine: opt-in quarantine semantics — a chunk
            that exhausts its retry budget is *set aside* instead of
            aborting the map, the rest of the grid completes, and an
            end-of-map auto-retry pass re-runs each set-aside multi-shard
            chunk one shard at a time.  The shards still failing are
            published on :attr:`quarantined_shards` after the map for a
            targeted re-run; the ones that succeeded alone land on
            :attr:`healed_shards` (their results are yielded normally).
            Bit-identical for every shard that does execute.
        status_port: serve a live ``repro-status-v2`` snapshot of the
            running map at ``GET /status`` on this TCP port (bound on
            the same host as the work port; ``0`` picks an ephemeral
            port, resolved as :attr:`status_address` while a map runs);
            ``None`` disables the status server entirely.
        max_buffered_chunks: backpressure bound — pause dispatching new
            chunks while this many completed chunks sit unconsumed by a
            slow consumer (a stalled store disk, a saturated pipe).
            In-flight chunks are always received, so the bound can be
            briefly exceeded and no deadlock is possible.  ``None`` (the
            default) buffers without bound.
    """

    name = "socket"

    def __init__(
        self,
        bind: str = "127.0.0.1:0",
        spawn_workers: int = 1,
        timeout: float | None = None,
        auth_token: str | None = None,
        workers_expected: int = 0,
        heartbeat_timeout: float | None = DEFAULT_HEARTBEAT_TIMEOUT,
        max_chunk_retries: int = DEFAULT_CHUNK_RETRIES,
        continue_past_quarantine: bool = False,
        status_port: int | None = None,
        max_buffered_chunks: int | None = None,
    ) -> None:
        if max_buffered_chunks is not None and max_buffered_chunks < 1:
            raise ValueError("max_buffered_chunks must be >= 1 (or None)")
        #: Keywords of each map's private server: a fresh campaign id,
        #: and spawned workers that exit with the map.
        self._server_options = dict(
            bind=bind,
            spawn_workers=spawn_workers,
            auth_token=auth_token,
            workers_expected=workers_expected,
            heartbeat_timeout=heartbeat_timeout,
            max_chunk_retries=max_chunk_retries,
            status_port=status_port,
            worker_linger=0.0,
        )
        self.timeout = timeout
        self.continue_past_quarantine = continue_past_quarantine
        self.max_buffered_chunks = max_buffered_chunks
        #: Optional driver-supplied workload fields (e.g. the fleet
        #: runner's chip/shard counts) echoed into status snapshots.
        self.campaign_info: dict | None = None
        #: Resolved ``(host, port)`` of the live listener / status
        #: server while a map runs.
        self.address: tuple[str, int] | None = None
        self.status_address: tuple[str, int] | None = None
        # Never started: it validates the server options up front and
        # sizes chunks (worker_hint).
        super().__init__(WorkServer(**self._server_options))

    @contextmanager
    def _map(self, worker: Callable, shards: Sequence, chunksize: int):
        server = WorkServer(**self._server_options)
        try:
            if len(shards):  # an empty map needs no fleet
                server.start()
                self.address, self.status_address = server.address, server.status_address
            yield server.submit(
                worker,
                shards,
                chunksize,
                continue_past_quarantine=self.continue_past_quarantine,
                max_buffered_chunks=self.max_buffered_chunks,
                timeout=self.timeout,
                info=self.campaign_info,
            )
        finally:
            server.close()
            self.address = self.status_address = None


class SharedFleetBackend(_FleetFacade):
    """Per-campaign :class:`ExecutionBackend` facade over a shared fleet.

    Each service job gets its own facade over the daemon's one
    :class:`WorkServer`, so the ordinary drivers (``run_sweep``,
    ``fig10.run``, ``fleet.run``) run unchanged — resume stores,
    progress, and bit-identity all come for free — while their chunks
    interleave with every other job's on the shared fleet.

    :meth:`cancel` (any thread) aborts the facade's in-flight map with
    :class:`MapCancelled`; :attr:`shards_done` / :attr:`shards_total`
    are the live coverage counters the service's job endpoint reports.
    """

    name = "shared-fleet"

    def __init__(self, server: WorkServer) -> None:
        super().__init__(server)
        self._handle: MapHandle | None = None
        self._cancelled = threading.Event()

    def cancel(self) -> None:
        self._cancelled.set()
        handle = self._handle
        if handle is not None:
            handle.cancel()

    @contextmanager
    def _map(self, worker: Callable, shards: Sequence, chunksize: int):
        if self._cancelled.is_set():
            raise MapCancelled("campaign cancelled before dispatch")
        self._handle = handle = self._fleet.submit(worker, shards, chunksize)
        if self._cancelled.is_set():
            # cancel() raced the submit: make sure the map dies too.
            handle.cancel()
        try:
            yield handle
        finally:
            self._handle = None


def resolve_backend(
    backend: ExecutionBackend | str | None,
    jobs: int | None = None,
    **socket_options,
) -> ExecutionBackend:
    """Materialize a backend from a spec string, instance, or ``jobs`` knob.

    Accepted specs (the CLI's ``--backend`` values):

    * ``None`` — infer from ``jobs``: serial for ``jobs in (None, 1)``,
      otherwise a process pool of ``jobs`` workers (back-compatible with
      the pre-backend ``run_sweep(jobs=...)`` contract).
    * ``"serial"`` / ``"process"`` — the corresponding local backend.
    * ``"socket"`` — loopback socket server spawning ``jobs`` local
      workers (at least one).
    * ``"socket://HOST:PORT"`` — socket server bound to ``HOST:PORT``;
      spawns ``jobs`` local workers, and *additionally* accepts external
      ``python -m repro worker --connect HOST:PORT`` processes.  With
      ``jobs=0`` it spawns none and waits entirely for remote workers.

    ``socket_options`` forwards the campaign-hardening knobs
    (``auth_token``, ``workers_expected``, ``heartbeat_timeout``,
    ``max_chunk_retries``, ``continue_past_quarantine``,
    ``status_port``, ``max_buffered_chunks``) to a socket spec's
    :class:`SocketBackend`; supplying them with anything else (another
    spec, ``None`` or a pre-built instance) is an error, because they
    would be silently dropped.
    """
    spec = (
        None
        if backend is None or isinstance(backend, ExecutionBackend)
        else str(backend).strip().lower()
    )
    if socket_options and not (spec or "").startswith("socket"):
        raise ValueError(
            f"socket options ({', '.join(socket_options)}) require a socket "
            f"backend spec, not {backend!r}"
        )
    if isinstance(backend, ExecutionBackend):
        return backend
    if spec is None:
        worker_count = resolve_jobs(jobs)
        return SerialBackend() if worker_count == 1 else ProcessPoolBackend(worker_count)
    if spec == "serial":
        return SerialBackend()
    if spec == "process":
        return ProcessPoolBackend(jobs if jobs is not None else 0)
    if spec == "socket":
        # An unset jobs knob means "use the machine" for an explicitly
        # parallel backend, matching the process-pool spec below.
        return SocketBackend(
            spawn_workers=max(1, resolve_jobs(0 if jobs is None else jobs)),
            **socket_options,
        )
    if spec.startswith("socket://"):
        address = spec[len("socket://") :]
        # jobs=0 here means "no local workers, remote only" — unlike the
        # local backends, where 0 means one worker per CPU; unset jobs
        # spawns one per CPU, matching the bare "socket" spec above.
        spawn = 0 if jobs == 0 else resolve_jobs(0 if jobs is None else jobs)
        return SocketBackend(bind=address, spawn_workers=spawn, **socket_options)
    raise ValueError(
        f"unknown backend {backend!r} (expected serial, process, socket, or socket://HOST:PORT)"
    )
