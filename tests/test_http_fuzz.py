"""Seeded fuzz suite: the HTTP API answers every request in JSON, below 500.

The daemon's HTTP port and a campaign's ``--status-port`` are served by
one handler family (:class:`repro.experiments.service.StatusHandler`).
Each case sends one request that :func:`randcases.http_request` draws
(random method, path, headers and body, the body framed consistently)
to an in-process daemon and to a ``WorkServer`` status port.  Every
request must be answered within ``REQUEST_TIMEOUT`` with a JSON reply
below 500, so the handler's catch-all 500 branch never runs.  The
connection must then stay in step: a reply that keeps it open serves a
follow-up ``GET /status`` next, so no leftover body bytes were parsed
as a request, and a reply that says ``Connection: close`` does close it.

Targeted cases pin the hygiene rules the fuzz found missing: a reply
that leaves a body unread closes the connection (a 401 whose body is a
pipelined request, a chunked POST, a cancel with a body), and a method
without routes gets a JSON 405 naming the allowed ones.
"""

import http.client
import json
import socket
import time

import pytest

from randcases import http_request
from repro.experiments.backends import WorkServer
from repro.experiments.monitor import STATUS_FORMAT
from repro.experiments.service import REQUEST_TIMEOUT, CampaignService

TOKEN = "hunter2"
SEEDS = range(60)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    service = CampaignService(
        str(tmp_path_factory.mktemp("state")), workers=0, auth_token=TOKEN,
        max_concurrent=1,
    ).start()
    yield service.http_address
    service.close()


@pytest.fixture(scope="module")
def status_port():
    server = WorkServer(spawn_workers=0, status_port=0).start()
    yield server.status_address
    server.close()


def _response(sock: socket.socket, method: str) -> tuple[http.client.HTTPResponse, bytes]:
    response = http.client.HTTPResponse(sock, method=method)
    response.begin()
    return response, response.read()


def _closed(sock: socket.socket) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:  # closed with request bytes unread
        return True


def _exchange(address, data: bytes, method: str):
    """Send ``data``; return the reply, its body and the connection."""
    sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT)
    sock.sendall(data)
    return (*_response(sock, method), sock)


def _assert_json_reply(response, body: bytes, method: str) -> None:
    assert response.status < 500, (response.status, body)
    assert response.getheader("Content-Type") == "application/json"
    if method != "HEAD":
        assert isinstance(json.loads(body), dict), body


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("target", ["daemon", "status_port"])
def test_random_request_gets_a_json_reply_below_500(target, seed, request):
    address = request.getfixturevalue(target)
    case = http_request(seed, TOKEN if target == "daemon" else None)
    started = time.monotonic()
    response, body, sock = _exchange(address, case.data, case.method)
    with sock:
        assert time.monotonic() - started < REQUEST_TIMEOUT
        _assert_json_reply(response, body, case.method)
        if response.will_close:
            assert _closed(sock), case
            return
        sock.sendall(b"GET /status HTTP/1.1\r\nHost: repro\r\n\r\n")
        follow, follow_body = _response(sock, "GET")
    assert follow.status == 200, (case, follow_body)
    assert json.loads(follow_body)["format"] == STATUS_FORMAT


def _post(path: str, body: bytes, *headers: str) -> bytes:
    head = "".join(f"{header}\r\n" for header in ("Host: repro", *headers))
    return f"POST {path} HTTP/1.1\r\n{head}\r\n".encode() + body


PIPELINED_GET = b"GET /jobs HTTP/1.1\r\nHost: repro\r\n\r\n"


@pytest.mark.parametrize(
    "data",
    [
        # Unauthorized: the body is never read.
        _post("/jobs", PIPELINED_GET, f"Content-Length: {len(PIPELINED_GET)}"),
        # A cancel reads no body either.
        _post(
            "/jobs/job-00000000/cancel", PIPELINED_GET,
            f"X-Auth-Token: {TOKEN}", f"Content-Length: {len(PIPELINED_GET)}",
        ),
        # Chunked bodies are refused unread.
        _post(
            "/jobs", b"2\r\n{}\r\n0\r\n\r\n",
            f"X-Auth-Token: {TOKEN}", "Transfer-Encoding: chunked",
        ),
    ],
    ids=["401-with-body", "cancel-with-body", "chunked"],
)
def test_a_reply_that_leaves_the_body_unread_closes(daemon, data):
    response, body, sock = _exchange(daemon, data, "POST")
    with sock:
        assert 400 <= response.status < 500, body
        assert response.getheader("Connection") == "close"
        assert _closed(sock)  # no second reply to the body's bytes


@pytest.mark.parametrize("method", ["HEAD", "PUT", "DELETE", "OPTIONS", "BREW"])
@pytest.mark.parametrize("target", ["daemon", "status_port"])
def test_unrouted_methods_get_a_json_405(target, method, request):
    address = request.getfixturevalue(target)
    data = f"{method} /status HTTP/1.1\r\nHost: repro\r\n\r\n".encode()
    response, body, sock = _exchange(address, data, method)
    sock.close()
    assert response.status == 405
    assert response.getheader("Content-Type") == "application/json"
    allowed = "GET, POST" if target == "daemon" else "GET"
    assert response.getheader("Allow") == allowed
    if method != "HEAD":
        assert method in json.loads(body)["error"]
