"""Profiling-as-a-service: the ``repro serve`` campaign daemon.

Every campaign used to be one foreground CLI process.  This module is
the persistent alternative: a daemon that owns one shared worker fleet
(a multi-map :class:`~repro.experiments.backends.WorkServer`), accepts
campaign jobs over an HTTP/JSON API, and multiplexes the running jobs
over that fleet with round-robin chunk fairness.  The job state
machine, durability, and crash healing live in
:mod:`repro.experiments.scheduler`; this module is only the wire, and
the package's one HTTP surface: :class:`StatusHandler` also serves a
CLI campaign's ``--status-port``, and :func:`_http_json` is the one
client, behind both ``repro jobs`` and ``repro status``.

HTTP API (all JSON)
===================

=======================  =============================================
``POST /jobs``           submit a job spec (see
                         :func:`~repro.experiments.scheduler.parse_job_spec`);
                         201 with the job record, 400 with a reason on
                         a bad spec or one past the work budget —
                         never a traceback
``GET /jobs``            every known job, oldest first
``GET /jobs/ID``         one job, with live ``coverage`` and
                         ``eta_seconds`` while it runs
``POST /jobs/ID/cancel`` cancel: queued jobs instantly, running jobs
                         by aborting their fleet map; 409 once terminal
``GET /jobs/ID/result``  the persisted result payload; 409 with the
                         job state until it is ``done``
``GET /status``          the fleet's ``repro-status-v2`` snapshot
                         (throughput-history ring buffer included)
                         plus per-state job counts; ``python -m repro
                         status HOST:PORT`` renders it
=======================  =============================================

A ``--status-port`` answers ``GET /status`` alone.  Every reply is
JSON, errors included; another method gets a 405, and a reply that
leaves a request body unread closes the connection.

When the daemon holds an auth token (``--auth-token`` or
``REPRO_AUTH_TOKEN``; an empty one refuses to start), the same secret
scopes both planes: worker sessions authenticate their ``repro-wire-v1``
HMAC frames with it, and the mutating HTTP endpoints (``POST``) require
it in an ``X-Auth-Token`` header.  Reads stay open, like the status port.

See ``docs/service.md`` for the runbook (curl walkthrough, fairness
and restart-recovery drills).
"""

from __future__ import annotations

import argparse
import http.client
import json
import signal
import sys
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.experiments.backends import (
    AUTH_TOKEN_ENV,
    DEFAULT_HEARTBEAT_TIMEOUT,
    WorkServer,
    _tokens_match,
    resolve_auth_token,
)
from repro.experiments.scheduler import JobScheduler, JobSpecError

__all__ = [
    "CampaignService",
    "StatusHandler",
    "serve_http",
    "build_serve_parser",
    "serve_main",
    "build_jobs_parser",
    "jobs_main",
]

#: Default HTTP port of ``repro serve`` (work port stays ephemeral).
DEFAULT_HTTP_PORT = 7180

#: Header carrying the shared secret on mutating requests.
AUTH_HEADER = "X-Auth-Token"

#: Largest request body the API reads; a job spec is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may stall mid-request (or idle between requests)
#: before the server closes it, so a client that under-delivers its
#: ``Content-Length`` cannot park a handler thread.
REQUEST_TIMEOUT = 5.0


class _BodyTooLarge(JobSpecError):
    """The declared body exceeds :data:`MAX_BODY_BYTES` (HTTP 413)."""


class StatusHandler(BaseHTTPRequestHandler):
    """Answer ``GET /status`` (and ``/``) with ``server.snapshot()``.

    The server object carries ``snapshot``: a ``WorkServer``'s, or
    :meth:`CampaignService.status`.  Subclasses add routes by extending
    :meth:`_get` and :attr:`methods`.
    """

    protocol_version = "HTTP/1.1"
    #: Service identity in responses; fixed so tests can pin the API.
    server_version = "repro-serve/1"
    #: Socket timeout of every request (see :data:`REQUEST_TIMEOUT`).
    timeout = REQUEST_TIMEOUT
    #: Methods with routes; any other gets a 405 naming these.
    methods: tuple[str, ...] = ("GET",)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # a polled status port must not flood the campaign's stderr

    def parse_request(self) -> bool:
        self.body_read = False
        if not super().parse_request():
            return False
        if self.command in self.methods:
            return True
        self.send_error(405, f"method {self.command} is not allowed here")
        return False

    def send_error(self, code: int, message: str | None = None, explain=None) -> None:
        # The stdlib's own refusals would be HTML pages.
        self.close_connection = True
        self._reply(code, {"error": message or self.responses.get(code, ("error",))[0]})

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if code == 405:
            self.send_header("Allow", ", ".join(self.methods))
        if self.close_connection or not self.body_read and (
            self.headers.get("Content-Length", "0") != "0"
            or "Transfer-Encoding" in self.headers
        ):
            # An unread body would be parsed as the next request.
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._answer(self._get)

    def _get(self, path: str) -> tuple[int, dict]:
        if path in ("", "/status"):
            return 200, self.server.snapshot()
        return 404, {"error": f"unknown endpoint {self.path!r}"}

    def _answer(self, route) -> None:
        try:
            code, payload = route(self.path.rstrip("/"))
        except TimeoutError:
            # A body that stalls past REQUEST_TIMEOUT: no reply can be
            # framed, so let the server drop the connection.
            raise
        except Exception as error:  # noqa: BLE001 - HTTP boundary
            code, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        self._reply(code, payload)


def serve_http(
    bind: tuple[str, int], handler: type[StatusHandler], **state
) -> ThreadingHTTPServer:
    """Serve ``handler`` at ``bind`` from a daemon thread.

    ``state`` lands on the server object for the handlers to read.  A
    taken port fails here, before any campaign work starts; port ``0``
    resolves in ``server_address``.  Stop with ``shutdown()`` and
    ``server_close()``.
    """
    server = ThreadingHTTPServer(bind, handler)
    vars(server).update(state)
    threading.Thread(
        target=server.serve_forever, name=f"repro-{handler.__name__}", daemon=True
    ).start()
    return server


class CampaignService:
    """One daemon: shared fleet + job scheduler + HTTP API."""

    def __init__(
        self,
        state_dir: str,
        host: str = "127.0.0.1",
        http_port: int = 0,
        work_port: int = 0,
        workers: int = 2,
        auth_token: str | None = None,
        workers_expected: int = 0,
        heartbeat_timeout: float | None = None,
        max_concurrent: int = 4,
        worker_linger: float = 5.0,
    ) -> None:
        self.host = host
        self.auth_token = auth_token
        self.fleet = WorkServer(
            bind=f"{host}:{work_port}",
            spawn_workers=workers,
            auth_token=auth_token,
            workers_expected=workers_expected,
            heartbeat_timeout=(
                DEFAULT_HEARTBEAT_TIMEOUT
                if heartbeat_timeout is None
                else heartbeat_timeout
            ),
            worker_linger=worker_linger,
        )
        self.scheduler = JobScheduler(self.fleet, state_dir, max_concurrent)
        self._http_port = http_port
        self._httpd: ThreadingHTTPServer | None = None
        #: Resolved ``(host, port)`` of the live HTTP API.
        self.http_address: tuple[str, int] | None = None
        #: Jobs crash recovery re-enqueued on this start (logged once).
        self.healed_jobs: list[str] = []

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "CampaignService":
        self.fleet.start()
        self.healed_jobs = [job.id for job in self.scheduler.recover()]
        self.scheduler.start()
        self._httpd = serve_http(
            (self.host, self._http_port), _ServiceHandler,
            snapshot=self.status, service=self,
        )
        self.http_address = self._httpd.server_address[:2]
        return self

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = self.http_address = None
        self.scheduler.close()
        self.fleet.close()

    # -- snapshot -------------------------------------------------------

    def status(self) -> dict:
        """The fleet's v2 snapshot extended with job-state counts."""
        snapshot = self.fleet.snapshot()
        snapshot["jobs"] = self.scheduler.counts()
        return snapshot


class _ServiceHandler(StatusHandler):
    """The status route plus the job API of the server's ``service``."""

    methods = ("GET", "POST")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # One concise access line on stderr; the default BaseHTTPServer
        # format includes client address which is noise on loopback.
        print(f"repro serve: {format % args}", file=sys.stderr)

    def _read_json(self):
        if "Transfer-Encoding" in self.headers:
            raise JobSpecError("chunked request bodies are not supported; send Content-Length")
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise JobSpecError(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        self.body_read = True
        if not raw:
            raise JobSpecError("request body must be a JSON object")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
            raise JobSpecError(f"request body is not valid JSON: {error}") from None

    # -- routes ---------------------------------------------------------

    def _get(self, path: str) -> tuple[int, dict]:
        scheduler = self.server.service.scheduler
        if path == "/jobs":
            return 200, {"jobs": [job.describe() for job in scheduler.list()]}
        parts = path.strip("/").split("/")
        if len(parts) not in (2, 3) or parts[0] != "jobs" or parts[2:] not in ([], ["result"]):
            return super()._get(path)
        job = scheduler.get(parts[1])
        if job is None:
            return 404, {"error": f"no such job {parts[1]!r}"}
        if len(parts) == 2:
            return 200, job.describe()
        if job.state != "done":
            detail = {"error": f"job {job.id} is {job.state}, not done", "state": job.state}
            if job.error:
                detail["reason"] = job.error
            return 409, detail
        result = scheduler.result(job.id)
        if result is None:  # pragma: no cover - done implies persisted
            return 500, {"error": "result file missing"}
        return 200, result

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._answer(self._post)

    def _post(self, path: str) -> tuple[int, dict]:
        service = self.server.service
        if service.auth_token is not None and not _tokens_match(
            self.headers.get(AUTH_HEADER), service.auth_token
        ):
            return 401, {
                "error": f"missing or wrong {AUTH_HEADER} header "
                "(this daemon runs with an auth token)"
            }
        if path == "/jobs":
            try:
                job = service.scheduler.submit(self._read_json())
            except JobSpecError as error:
                return (413 if isinstance(error, _BodyTooLarge) else 400), {"error": str(error)}
            return 201, job.describe()
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            job = service.scheduler.get(parts[1])
            if job is None:
                return 404, {"error": f"no such job {parts[1]!r}"}
            if job.state in ("done", "failed", "cancelled"):
                return 409, {"error": f"job {job.id} is already {job.state}", "state": job.state}
            service.scheduler.cancel(job.id)
            return 200, job.describe()
        return 404, {"error": f"unknown endpoint {self.path!r}"}


# ----------------------------------------------------------------------
# CLI: python -m repro serve / python -m repro jobs
# ----------------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the persistent campaign daemon: one shared worker "
        "fleet, an HTTP/JSON job API, and durable per-job resume stores "
        "(runbook: docs/service.md).",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_HTTP_PORT,
        help=f"HTTP API port (default: {DEFAULT_HTTP_PORT}; 0 = ephemeral)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind host for the HTTP API and the fleet work port "
        "(default: 127.0.0.1)",
    )
    parser.add_argument(
        "--state-dir",
        default="repro-service",
        metavar="DIR",
        help="durable state: job records, per-job resume stores, results "
        "(default: ./repro-service); restarting with the same DIR "
        "re-attaches and heals interrupted jobs",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="local fleet workers to spawn (default: 2); external workers "
        "may additionally join the work port with python -m repro worker",
    )
    parser.add_argument(
        "--work-port",
        type=int,
        default=0,
        metavar="PORT",
        help="fixed fleet work port for external workers (default: ephemeral)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help="shared fleet secret; also required as the X-Auth-Token header "
        f"on mutating API calls (defaults to ${AUTH_TOKEN_ENV} when set; "
        "an empty secret is refused)",
    )
    parser.add_argument(
        "--workers-expected",
        type=int,
        default=0,
        metavar="N",
        help="hold all job dispatch until N workers joined the fleet",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="silence deadline before a worker's chunk is requeued",
    )
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        metavar="N",
        help="jobs allowed to run at once; the rest queue (default: 4)",
    )
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro serve``."""
    args = build_serve_parser().parse_args(argv)
    try:
        token = resolve_auth_token(args.auth_token)
    except ValueError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    service = CampaignService(
        state_dir=args.state_dir,
        host=args.host,
        http_port=args.port,
        work_port=args.work_port,
        workers=args.workers,
        auth_token=token,
        workers_expected=args.workers_expected,
        heartbeat_timeout=args.heartbeat_timeout,
        max_concurrent=args.max_concurrent,
    )
    try:
        service.start()
    except OSError as error:
        print(f"repro serve: cannot start: {error}", file=sys.stderr)
        return 1
    stop = threading.Event()

    def _stop(signum, frame) -> None:  # noqa: ARG001 - signal API
        stop.set()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    if service.healed_jobs:
        # Before the readiness line, so whoever waits for readiness has
        # already seen which jobs were healed.
        print(
            f"repro serve: healed {len(service.healed_jobs)} interrupted "
            f"job(s): {', '.join(service.healed_jobs)}",
            flush=True,
        )
    host, port = service.http_address
    work_host, work_port = service.fleet.address
    # The readiness line is machine-parsed (tests, tmux drills): keep
    # the `http://HOST:PORT` and `work HOST:PORT` shapes stable.
    print(
        f"repro serve: listening on http://{host}:{port} · "
        f"work {work_host}:{work_port} · state {args.state_dir}",
        flush=True,
    )
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        service.close()
    print("repro serve: stopped", flush=True)
    return 0


def build_jobs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro jobs",
        description="Thin HTTP client for a repro serve daemon "
        "(anything HTTP works too — see docs/service.md for the curl "
        "equivalents).",
    )
    parser.add_argument("url", help="daemon base URL, e.g. http://127.0.0.1:7180")
    parser.add_argument(
        "action",
        choices=["list", "submit", "show", "cancel", "result"],
        help="list jobs · submit a spec · show/cancel/fetch one job "
        "(python -m repro status HOST:PORT renders the fleet status)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="job id (show/cancel/result) or spec JSON / @file / '-' for "
        "stdin (submit)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help="X-Auth-Token for mutating calls "
        f"(defaults to ${AUTH_TOKEN_ENV} when set; an empty secret is refused)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="HTTP timeout (default: 10)",
    )
    return parser


def _http_json(
    method: str,
    url: str,
    payload: dict | None = None,
    token: str | None = None,
    timeout: float = 10.0,
) -> tuple[int, dict]:
    """One API call: ``(status, parsed JSON reply)``.

    An error status whose body is not JSON (a proxy's HTML page) comes
    back as ``{"error": body}``; a success reply that is not JSON, or is
    nested past the recursion limit, and a peer that does not speak
    HTTP are bad replies and raise ``ValueError``.
    """
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, method=method)
    request.add_header("Content-Type", "application/json")
    if token:
        request.add_header(AUTH_HEADER, token)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, _parse_reply(response.read(), url)
    except urllib.error.HTTPError as error:
        detail = error.read()
        try:
            return error.code, _parse_reply(detail, url)
        except ValueError:
            text = detail.decode("utf-8", errors="replace").strip()
            return error.code, {"error": text or str(error)}
    except http.client.HTTPException as error:
        raise ValueError(f"bad reply from {url}: {error!r}") from None


def _parse_reply(raw: bytes, url: str):
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise ValueError(f"bad reply from {url}: {error}") from None


#: ``repro jobs`` action -> HTTP method and path (``{}`` is the target).
_JOB_ACTIONS = {
    "list": ("GET", "/jobs"),
    "submit": ("POST", "/jobs"),
    "show": ("GET", "/jobs/{}"),
    "cancel": ("POST", "/jobs/{}/cancel"),
    "result": ("GET", "/jobs/{}/result"),
}


def jobs_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro jobs URL ACTION [TARGET]``."""
    args = build_jobs_parser().parse_args(argv)
    base = args.url.rstrip("/")
    if "://" not in base:
        base = f"http://{base}"
    try:
        token = resolve_auth_token(args.auth_token)
    except ValueError as error:
        print(f"repro jobs: {error}", file=sys.stderr)
        return 2
    if args.target is None and args.action != "list":
        needs = "a spec (JSON, @file, or -)" if args.action == "submit" else "a job id"
        print(f"repro jobs: {args.action} needs {needs}", file=sys.stderr)
        return 2
    method, path = _JOB_ACTIONS[args.action]
    try:
        spec = None
        if args.action == "submit":
            raw = args.target
            if raw == "-":
                raw = sys.stdin.read()
            elif raw.startswith("@"):
                with open(raw[1:], "r", encoding="utf-8") as handle:
                    raw = handle.read()
            try:
                spec = json.loads(raw)
            except (json.JSONDecodeError, RecursionError) as error:
                print(f"repro jobs: spec is not valid JSON: {error}", file=sys.stderr)
                return 2
        code, payload = _http_json(
            method, base + path.format(args.target), spec,
            token if method == "POST" else None, args.timeout,
        )
    except OSError as error:
        print(f"repro jobs: cannot reach {base}: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"repro jobs: {error}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2))
    return 0 if 200 <= code < 300 else 1
