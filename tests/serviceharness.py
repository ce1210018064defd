"""Shared spawn/readiness/teardown harness for the fleet and service suites.

Four test modules used to each carry their own copy of the same three
rituals: wait for a freshly bound listener, build a child-process
environment in which ``repro`` is importable, and spawn/reap real
``python -m repro worker`` processes.  This module is the single home
for those helpers and for :func:`map_in_order`, the shard-ordered view
of a backend's one mapping method, plus the one genuinely new piece
the campaign daemon needs — :class:`ServiceDaemon`, a managed
``python -m repro serve`` subprocess with readiness-line parsing, a
JSON request helper, a SIGKILL switch for crash drills, and log
capture for post-mortems.

Importable both under pytest (the tests directory is on ``sys.path``)
and from ``tests/chaos.py`` running standalone as a script.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")

#: Header carrying the shared secret on mutating service requests
#: (kept in sync with repro.experiments.service.AUTH_HEADER).
AUTH_HEADER = "X-Auth-Token"


# ----------------------------------------------------------------------
# Readiness waits
# ----------------------------------------------------------------------


def wait_for_address(backend, deadline: float = 30.0):
    """Spin until the backend's listener is live; return (host, port).

    Works for anything exposing an ``address`` attribute that flips
    from ``None`` to ``(host, port)`` once bound: a ``SocketBackend``
    from its first map until it closes, a started ``WorkServer``.
    """
    end = time.monotonic() + deadline
    while backend.address is None:
        if time.monotonic() > end:  # pragma: no cover - debugging aid
            raise AssertionError("backend never bound its listener")
        time.sleep(0.005)
    return backend.address


def map_in_order(backend, worker, shards, chunksize: int = 1) -> list:
    """``worker`` over ``shards`` through ``backend.imap_unordered``, in shard order."""
    pairs = sorted(
        backend.imap_unordered(worker, shards, chunksize), key=lambda pair: pair[0]
    )
    return [result for _, result in pairs]


def wait_until(
    predicate,
    deadline: float = 30.0,
    interval: float = 0.02,
    message: str = "condition never became true",
) -> None:
    """Poll ``predicate`` until it returns truthy or ``deadline`` passes."""
    end = time.monotonic() + deadline
    while not predicate():
        if time.monotonic() > end:
            raise AssertionError(message)
        time.sleep(interval)


# ----------------------------------------------------------------------
# Child-process environment and worker spawning
# ----------------------------------------------------------------------


def repro_env(auth_token: str | None = None) -> dict:
    """Environment for a child process that must import ``repro``.

    ``PYTHONPATH`` is rebuilt from this interpreter's ``sys.path`` (so
    the child sees exactly what the test process can import, including
    ``src/`` and the tests directory), and the fleet secret rides along
    in ``REPRO_AUTH_TOKEN`` when given.
    """
    env = dict(os.environ)
    entries = [entry for entry in sys.path if entry]
    if SRC_DIR not in entries:
        entries.insert(0, SRC_DIR)
    env["PYTHONPATH"] = os.pathsep.join(entries)
    if auth_token is not None:
        env["REPRO_AUTH_TOKEN"] = auth_token
    return env


def spawn_worker(
    address: str,
    *,
    linger: float = 30.0,
    auth_token: str | None = None,
    quiet: bool = True,
) -> subprocess.Popen:
    """Start one real ``python -m repro worker`` process at ``address``."""
    sink = subprocess.DEVNULL if quiet else None
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            address,
            "--linger",
            str(linger),
            "--spawned",
        ],
        env=repro_env(auth_token),
        stdout=sink,
        stderr=sink,
    )


def record_spawns(monkeypatch) -> list:
    """Patch ``WorkServer`` for one test to record every worker it spawns."""
    from repro.experiments.backends import WorkServer

    spawned: list = []
    spawn = WorkServer._spawn_local_workers

    def recording(server, port):
        procs = spawn(server, port)
        spawned.extend(procs)
        return procs

    monkeypatch.setattr(WorkServer, "_spawn_local_workers", recording)
    return spawned


def terminate_procs(procs, timeout: float = 10.0) -> None:
    """Teardown-kill: SIGKILL every live process, then reap them all."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - cleanup
            pass


# ----------------------------------------------------------------------
# Background campaigns
# ----------------------------------------------------------------------


class BackgroundCampaign:
    """A campaign callable on a daemon thread, with a checked join.

    The socket suites all run ``map_in_order(backend, ...)`` (or a whole
    sweep) on a side thread so the test thread can play fleet operator; this
    wraps the thread + outcome-dict + join-and-assert ritual.  Raises
    whatever the campaign raised when :meth:`finish` is called.
    """

    def __init__(self, fn, name: str = "campaign"):
        self._fn = fn
        self._name = name
        self._outcome: dict = {}
        self._thread = threading.Thread(
            target=self._run, name=f"test-{name}", daemon=True
        )

    def _run(self) -> None:
        try:
            self._outcome["value"] = self._fn()
        except BaseException as error:  # noqa: BLE001 - re-raised in finish()
            self._outcome["error"] = error

    def start(self) -> "BackgroundCampaign":
        self._thread.start()
        return self

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def finish(self, timeout: float = 180.0):
        """Join the campaign; assert it ended; return (or raise) its outcome."""
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), f"{self._name} hung"
        if "error" in self._outcome:
            raise self._outcome["error"]
        return self._outcome["value"]


# ----------------------------------------------------------------------
# The campaign daemon as a managed subprocess
# ----------------------------------------------------------------------

#: The daemon's machine-parsed readiness line (see serve_main).
_READY_LINE = re.compile(
    r"repro serve: listening on http://(?P<host>[^:\s]+):(?P<port>\d+) . "
    r"work (?P<work_host>[^:\s]+):(?P<work_port>\d+)"
)


class ServiceDaemon:
    """A real ``python -m repro serve`` subprocess under test control.

    Spawns the daemon on an ephemeral HTTP port, parses the readiness
    line for the HTTP and work addresses, captures every output line
    (``lines``) for post-mortems, and records the job ids the daemon
    reported healing at startup (``healed``).

    Crash drills use :meth:`sigkill` (hard node loss — the state dir
    survives, spawned workers linger briefly and then exit); normal
    teardown uses :meth:`terminate` or the context manager.
    """

    def __init__(
        self,
        state_dir,
        *,
        workers: int = 2,
        auth_token: str | None = None,
        args: tuple = (),
        deadline: float = 30.0,
    ):
        self.state_dir = str(state_dir)
        self.workers = workers
        self.auth_token = auth_token
        self._extra = list(args)
        self._deadline = deadline
        self.proc: subprocess.Popen | None = None
        #: Every stdout/stderr line the daemon printed, in order.
        self.lines: list[str] = []
        self.http: tuple[str, int] | None = None
        self.work: tuple[str, int] | None = None
        #: Job ids the daemon healed when it (re)started.
        self.healed: list[str] = []
        self._ready = threading.Event()
        self._reader: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ServiceDaemon":
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--state-dir",
            self.state_dir,
            "--workers",
            str(self.workers),
        ]
        if self.auth_token is not None:
            command += ["--auth-token", self.auth_token]
        command += self._extra
        self._ready.clear()
        self.healed = []
        self.proc = subprocess.Popen(
            command,
            env=repro_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            encoding="utf-8",
        )
        self._reader = threading.Thread(
            target=self._drain, name="test-serve-log", daemon=True
        )
        self._reader.start()
        if not self._ready.wait(self._deadline):
            self.sigkill()
            raise AssertionError(
                f"daemon never reported readiness; log so far: {self.lines}"
            )
        return self

    def _drain(self) -> None:
        for raw in self.proc.stdout:
            line = raw.rstrip("\n")
            self.lines.append(line)
            match = _READY_LINE.search(line)
            if match:
                self.http = (match["host"], int(match["port"]))
                self.work = (match["work_host"], int(match["work_port"]))
                self._ready.set()
            elif "healed" in line and "job(s):" in line:
                self.healed = [
                    token.strip()
                    for token in line.split("job(s):", 1)[1].split(",")
                    if token.strip()
                ]

    @property
    def base_url(self) -> str:
        assert self.http is not None, "daemon not started"
        return f"http://{self.http[0]}:{self.http[1]}"

    @property
    def work_address(self) -> str:
        assert self.work is not None, "daemon not started"
        return f"{self.work[0]}:{self.work[1]}"

    def sigkill(self) -> None:
        """Hard-kill the daemon (models a node loss, no cleanup runs)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=10)

    def terminate(self, timeout: float = 30.0) -> None:
        """Graceful SIGTERM shutdown; escalates to SIGKILL on a hang."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - cleanup
            self.proc.kill()
            self.proc.wait(timeout=10)

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.terminate()

    # -- HTTP helpers ---------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        payload: dict | bytes | None = None,
        *,
        expect: int | None = None,
        timeout: float = 30.0,
    ) -> tuple[int, dict]:
        """One JSON request against the daemon; returns (status, body).

        A ``bytes`` payload is sent as the raw body.  4xx/5xx responses
        are returned, not raised, so tests can assert on error payloads;
        ``expect`` asserts the status code in-line.
        """
        body = payload
        if payload is not None and not isinstance(payload, bytes):
            body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method
        )
        request.add_header("Content-Type", "application/json")
        if self.auth_token is not None:
            request.add_header(AUTH_HEADER, self.auth_token)
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                code, raw = response.status, response.read()
        except urllib.error.HTTPError as error:
            code, raw = error.code, error.read()
        parsed = json.loads(raw.decode("utf-8"))
        if expect is not None:
            assert code == expect, f"{method} {path} -> {code}: {parsed}"
        return code, parsed

    def get(self, path: str, **kwargs) -> tuple[int, dict]:
        return self.request("GET", path, **kwargs)

    def post(self, path: str, payload: dict | bytes | None = None, **kwargs):
        return self.request("POST", path, payload, **kwargs)

    def submit(self, spec: dict) -> str:
        """Submit a job spec; return the new job id (asserts 201)."""
        _, job = self.post("/jobs", spec, expect=201)
        return job["id"]

    def wait_job(
        self,
        job_id: str,
        states: tuple = ("done", "failed", "cancelled"),
        deadline: float = 180.0,
    ) -> dict:
        """Poll ``GET /jobs/ID`` until the job reaches one of ``states``."""
        latest: dict = {}

        def settled() -> bool:
            _, record = self.get(f"/jobs/{job_id}", expect=200)
            latest.clear()
            latest.update(record)
            return record["state"] in states

        wait_until(
            settled,
            deadline,
            interval=0.05,
            message=f"job {job_id} never reached {states}; last: {latest}",
        )
        return latest

    def result(self, job_id: str) -> dict:
        """Fetch the persisted result payload of a done job."""
        _, payload = self.get(f"/jobs/{job_id}/result", expect=200)
        return payload
