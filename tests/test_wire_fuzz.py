"""Seeded fuzz suite: a damaged wire frame never escapes as a traceback.

A ``repro-wire-v1`` frame is external input: it crosses the network from
peers that may run other code, a fault injector or an attacker.  Each
case takes a real frame and damages it the way
:func:`randcases.frame_damage` draws it — truncated, bit-flipped, or
re-MAC'd around a header that is no object, has a retyped field, nests
past the recursion limit, or carries negative blob lengths, plus
preambles that announce too much.  Reading it through :func:`read_frame`
or :meth:`WireV1Session.recv` must return a message or ``None`` (clean
EOF), or raise :class:`FrameRejected` (frame lost, stream aligned) or
:class:`StreamDesync` (connection lost) — the only two errors the
worker's session loop and the server's handlers catch.
"""

import json
import socket

import pytest
from randcases import FRAME_DAMAGE, frame_damage, sealed_frame

from repro.experiments import wire
from repro.experiments.wire import (
    FrameRejected,
    StreamDesync,
    WireV1Session,
    pack_frame,
    read_frame,
)

#: The key a fresh session MACs its handshake frames with.
KEY = wire._DEFAULT_KEY

#: A task frame with blobs (an array and bytes) and a nested body.
FRAME = pack_frame(
    "task",
    (3, [(1, 2.5), {"k": frozenset({4})}], b"\x00\xff" * 8, {"pos": (5, 6)}),
    campaign="c0ffee",
    seq=7,
    key=KEY,
)

SEEDS = range(12)


def _read(data: bytes, reader):
    left, right = socket.socketpair()
    with left, right:
        left.sendall(data)
        left.shutdown(socket.SHUT_WR)
        return reader(right)


def _read_frame(sock):
    return read_frame(sock, KEY)


def _session_recv(sock):
    return WireV1Session().recv(sock)


@pytest.mark.parametrize("reader", [_read_frame, _session_recv], ids=["read_frame", "recv"])
@pytest.mark.parametrize(
    "case",
    [frame_damage(seed, FRAME, KEY, how) for how in FRAME_DAMAGE for seed in SEEDS],
    ids=str,
)
def test_damaged_frame_is_a_message_eof_or_rejection(case, reader):
    try:
        result = _read(case.data, reader)
    except (FrameRejected, StreamDesync):
        return
    assert result is None or isinstance(result, tuple)


@pytest.mark.parametrize(
    "header",
    [
        "[]",
        "1",
        '"x"',
        "null",
        json.dumps({"v": 1, "kind": "task", "seq": 1, "body": ["t"], "blobs": 5}),
        json.dumps({"v": 1, "kind": "task", "seq": 1, "body": ["t"], "blobs": ["a"]}),
        json.dumps({"v": 1, "kind": "task", "seq": 1, "body": ["t"], "blobs": [4, -4]}),
        json.dumps({"v": 1, "kind": "task", "seq": 1, "body": ["t"]}),
        "[" * 1100 + "]" * 1100,
    ],
    ids=[
        "list",
        "int",
        "string",
        "null",
        "blobs-int",
        "blobs-str",
        "blobs-negative",
        "blobs-missing",
        "nested",
    ],
)
def test_mac_valid_header_of_the_wrong_shape_is_rejected(header):
    """The MAC proves the sender, not the shape.  The first six and the
    last escaped as ``AttributeError``, ``TypeError`` or
    ``RecursionError`` before; the other two passed."""
    with pytest.raises(FrameRejected, match="unreadable frame header"):
        _read(sealed_frame(header.encode(), b"", KEY), _session_recv)
