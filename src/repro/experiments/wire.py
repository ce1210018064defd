"""``repro-wire-v1``: the socket fleet's versioned, authenticated frame codec.

The original socket transport (PR 3) shipped shards as length-prefixed
*pickles* — fine for a trusted loopback cluster, a non-starter for the
untrusted networks the service direction targets, because pickles are
code and a single corrupted frame kills the whole session.  This module
replaces it with a production-grade wire format:

* **No pickle.**  Payloads are a tagged-node encoding over a JSON
  header plus raw binary blob sections (ndarray/bytes payloads travel
  as blobs, never base64).  The only code reference a frame can carry
  is a ``module:qualname`` *name* (the worker function, dataclass
  types), resolved by import on the receiving side — exactly the
  visibility contract pickle-by-reference already required, without
  pickle's arbitrary-constructor execution.
* **Per-frame HMAC.**  Every frame ends in an HMAC-SHA256 over the
  entire frame, verified with :func:`hmac.compare_digest`.  With a
  shared secret (``--auth-token``) the MAC is keyed from it, so frames
  from a peer that does not know the secret — or frames flipped by a
  fault injector — fail closed.  Without a secret the MAC is keyed
  from a fixed label and still detects corruption (integrity only).
  The MAC authenticates; it does not encrypt — the frame body
  (including the join token inside ``hello``) is readable on the wire,
  so secrecy still needs network-level isolation or a TLS tunnel.
* **Campaign id + sequence numbers.**  Frames carry the map's campaign
  id (rejecting strays from another server) and a per-connection,
  per-direction sequence number.  A replayed or duplicated frame has a
  stale sequence number and is *silently skipped*; a corrupted frame
  raises :class:`FrameRejected` — the frame was fully consumed, so the
  stream stays aligned and the session survives.  Only structural
  damage (bad magic, an oversized or torn length field) raises
  :class:`StreamDesync`, which the transport answers by dropping the
  connection and requeueing the in-flight chunk.

Frame layout
============

::

    b"RPW1" | u32 header_len | u64 blobs_len          (preamble, >)
    header_len bytes of UTF-8 JSON                     (the header)
    blobs_len bytes of concatenated binary blobs       (the blob heap)
    32 bytes of HMAC-SHA256 over everything above      (the MAC)

The header is ``{"v": 1, "kind": ..., "campaign": ..., "seq": ...,
"body": <node>, "blobs": [len, ...]}``.  ``body`` is the tagged-node
encoding of the frame's payload tuple:

==========================  ===========================================
node                        value
==========================  ===========================================
``null/bool/number/string`` itself (floats round-trip exactly via repr)
``["t", ...]``              tuple of decoded items
``["l", ...]``              list of decoded items
``["d", [[k, v], ...]]``    dict (keys are nodes too, so tuples key)
``["set"/"fset", [...]]``   set / frozenset
``["by", i]``               ``bytes``: blob ``i`` verbatim
``["nd", i, dtype, shape]`` ``numpy.ndarray`` from blob ``i``
``["ns", i, dtype]``        numpy scalar from blob ``i``
``["dc", "mod:qual", [[field, v], ...]]``  dataclass instance
``["fn", "mod:qual"]``      module-level function/class, by reference
==========================  ===========================================

``decode_node`` refuses a ``dc`` target that is not a dataclass and a
``fn`` target that is not callable, and never calls anything during
decoding — construction happens only for verified dataclass types.

See :mod:`repro.experiments.backends` for the frame *kinds* and the
session protocol built on top, and ``docs/distributed.md`` for the
operator view.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import importlib
import json
import socket
import struct
from typing import Sequence

import numpy as np

__all__ = [
    "WIRE_FORMAT",
    "MAGIC",
    "MAX_FRAME",
    "FrameRejected",
    "StreamDesync",
    "encode_node",
    "decode_node",
    "pack_frame",
    "read_frame",
    "recv_exact",
    "WireV1Session",
    "make_session",
]

#: Format tag of the v1 frame codec (docs, status, CLI).
WIRE_FORMAT = "repro-wire-v1"

#: First four bytes of every v1 frame.
MAGIC = b"RPW1"

#: Preamble: magic, header byte length, blob-heap byte length.
_PREAMBLE = struct.Struct(">4sIQ")

#: Trailing HMAC-SHA256 size.
_MAC_SIZE = 32

#: Upper bound on one frame's header + blobs.  Anything larger is not a
#: frame this protocol would ever produce — it is a desynchronized or
#: hostile stream, and must fail before a multi-GiB allocation.
MAX_FRAME = 1 << 30

#: MAC key used when no shared secret is configured, and for the
#: handshake frames (hello/welcome/reject) always — the worker cannot
#: key on the secret before the server's welcome tells it whether this
#: server enforces one.
_DEFAULT_KEY = hashlib.sha256(b"repro-wire-v1:integrity").digest()


def _derive_key(secret: str) -> bytes:
    """Session MAC key from the fleet's shared secret."""
    return hashlib.sha256(b"repro-wire-v1:auth:" + secret.encode("utf-8")).digest()


class FrameRejected(Exception):
    """One frame was unusable (bad MAC, undecodable body, wrong campaign).

    The frame was fully consumed, so the stream is still aligned: the
    receiver may answer with a retry frame (``badframe``/``nack``) and
    keep the session — per-frame rejection, not session death.
    """


class StreamDesync(ConnectionError):
    """The byte stream itself is unusable (bad magic, torn or absurd
    length fields).  Frame boundaries are lost, so the only recovery is
    dropping the connection; it subclasses :class:`ConnectionError` so
    every existing requeue-and-reconnect path already handles it."""


# ----------------------------------------------------------------------
# Tagged-node payload encoding
# ----------------------------------------------------------------------


def _reference(obj) -> str:
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise TypeError(
            f"cannot encode {obj!r} by reference: it must be a module-level "
            "name (the same restriction pickle-by-reference has)"
        )
    return f"{module}:{qualname}"


def _resolve(reference: str):
    module_name, _, qualname = reference.partition(":")
    if not module_name or not qualname:
        raise FrameRejected(f"malformed object reference {reference!r}")
    try:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except Exception as error:
        raise FrameRejected(
            f"cannot resolve {reference!r} on this side (code skew between "
            f"server and worker?): {error}"
        ) from None
    return target


def encode_node(value, blobs: list[bytes]):
    """Encode ``value`` into a JSON-safe node, appending binary blobs."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value  # json repr round-trips doubles (NaN/inf included)
    if isinstance(value, tuple):
        return ["t", *(encode_node(item, blobs) for item in value)]
    if isinstance(value, list):
        return ["l", *(encode_node(item, blobs) for item in value)]
    if isinstance(value, dict):
        return [
            "d",
            [
                [encode_node(key, blobs), encode_node(item, blobs)]
                for key, item in value.items()
            ],
        ]
    if isinstance(value, frozenset):
        return ["fset", [encode_node(item, blobs) for item in value]]
    if isinstance(value, set):
        return ["set", [encode_node(item, blobs) for item in value]]
    if isinstance(value, (bytes, bytearray)):
        blobs.append(bytes(value))
        return ["by", len(blobs) - 1]
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        blobs.append(array.tobytes())
        return ["nd", len(blobs) - 1, array.dtype.str, list(array.shape)]
    if isinstance(value, np.generic):
        blobs.append(value.tobytes())
        return ["ns", len(blobs) - 1, value.dtype.str]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [
            [field.name, encode_node(getattr(value, field.name), blobs)]
            for field in dataclasses.fields(value)
        ]
        return ["dc", _reference(type(value)), fields]
    if callable(value):
        return ["fn", _reference(value)]
    raise TypeError(
        f"repro-wire-v1 cannot encode {type(value).__name__!r} values; "
        "shard payloads must be JSON atoms, containers, bytes, numpy "
        "arrays, dataclasses, or module-level callables"
    )


def decode_node(node, blobs: Sequence[bytes]):
    """Decode a node produced by :func:`encode_node`.

    Raises :class:`FrameRejected` for anything malformed — the caller
    has already consumed the frame, so decoding failures must not kill
    the session.
    """
    try:
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        tag = node[0]
        if tag == "t":
            return tuple(decode_node(item, blobs) for item in node[1:])
        if tag == "l":
            return [decode_node(item, blobs) for item in node[1:]]
        if tag == "d":
            return {
                decode_node(key, blobs): decode_node(item, blobs)
                for key, item in node[1]
            }
        if tag == "set":
            return {decode_node(item, blobs) for item in node[1]}
        if tag == "fset":
            return frozenset(decode_node(item, blobs) for item in node[1])
        if tag == "by":
            return blobs[node[1]]
        if tag == "nd":
            _, index, dtype, shape = node
            return np.frombuffer(blobs[index], dtype=np.dtype(dtype)).reshape(
                shape
            ).copy()
        if tag == "ns":
            _, index, dtype = node
            return np.frombuffer(blobs[index], dtype=np.dtype(dtype))[0]
        if tag == "dc":
            _, reference, fields = node
            cls = _resolve(reference)
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
                raise FrameRejected(
                    f"{reference!r} is not a dataclass type; refusing to "
                    "construct it from the wire"
                )
            return cls(**{name: decode_node(item, blobs) for name, item in fields})
        if tag == "fn":
            target = _resolve(node[1])
            if not callable(target):
                raise FrameRejected(f"{node[1]!r} is not callable")
            return target
    except FrameRejected:
        raise
    except Exception as error:
        raise FrameRejected(f"malformed payload node: {error}") from None
    raise FrameRejected(f"unknown payload node tag {node[0]!r}")


# ----------------------------------------------------------------------
# Frame pack/read
# ----------------------------------------------------------------------


def recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes, ``None`` on a clean EOF at byte 0."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise StreamDesync("socket closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def pack_frame(kind: str, body, *, campaign: str, seq: int, key: bytes) -> bytes:
    """Serialize one authenticated v1 frame."""
    blobs: list[bytes] = []
    node = encode_node(body, blobs)
    header = json.dumps(
        {
            "v": 1,
            "kind": kind,
            "campaign": campaign,
            "seq": seq,
            "body": node,
            "blobs": [len(blob) for blob in blobs],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    heap = b"".join(blobs)
    preamble = _PREAMBLE.pack(MAGIC, len(header), len(heap))
    data = preamble + header + heap
    return data + hmac.new(key, data, hashlib.sha256).digest()


def read_frame(sock: socket.socket, key: bytes) -> tuple[dict, list[bytes]] | None:
    """Read and authenticate one v1 frame; ``(header, blobs)`` or ``None``
    on clean EOF.

    Raises :class:`StreamDesync` when the stream cannot possibly be at a
    frame boundary (bad magic, absurd lengths, mid-frame EOF) and
    :class:`FrameRejected` when the frame parsed but failed its MAC or
    its header — the stream is aligned, only this frame is lost.  A MAC
    proves who sent a header, not its shape: anything but an object with
    ``v == 1``, a string ``kind`` and ``blobs`` as non-negative integers
    summing to the heap size is rejected too.
    """
    preamble = recv_exact(sock, _PREAMBLE.size)
    if preamble is None:
        return None
    magic, header_len, heap_len = _PREAMBLE.unpack(preamble)
    if magic != MAGIC:
        raise StreamDesync(
            f"bad frame magic {magic!r} (peer speaking another protocol, "
            "or a pre-v1 worker or server?)"
        )
    if header_len + heap_len > MAX_FRAME:
        raise StreamDesync(
            f"frame announces {header_len + heap_len} bytes "
            f"(> {MAX_FRAME}); stream is desynchronized or hostile"
        )
    rest = recv_exact(sock, header_len + heap_len + _MAC_SIZE)
    if rest is None:
        raise StreamDesync("socket closed between preamble and frame body")
    data, mac = rest[: header_len + heap_len], rest[header_len + heap_len :]
    expected = hmac.new(key, preamble + data, hashlib.sha256).digest()
    if not hmac.compare_digest(mac, expected):
        raise FrameRejected("frame failed HMAC verification")
    try:
        header = json.loads(data[:header_len].decode("utf-8"))
        if (
            not isinstance(header, dict)
            or header.get("v") != 1
            or not isinstance(header.get("kind"), str)
        ):
            raise ValueError("not a v1 header")
        lengths = header.get("blobs")
        if not isinstance(lengths, list) or not all(
            type(length) is int and length >= 0 for length in lengths
        ):
            raise ValueError("blob lengths are not a list of non-negative integers")
        if sum(lengths) != heap_len:
            raise ValueError("blob lengths disagree with the heap size")
    except (ValueError, RecursionError) as error:
        # MAC passed but the header is garbage: a peer bug, not line
        # noise.  The frame is consumed either way.
        raise FrameRejected(f"unreadable frame header: {error}") from None
    blobs = []
    offset = header_len
    for length in lengths:
        blobs.append(data[offset : offset + length])
        offset += length
    return header, blobs


# ----------------------------------------------------------------------
# Per-connection sessions (the codec objects the backend speaks through)
# ----------------------------------------------------------------------


class WireV1Session:
    """Framing state for one connection: MAC key, campaign id, seq counters.

    The handshake frames (``hello``/``welcome``/``reject``) are MAC'd
    with the fixed default key — the worker cannot know whether this
    server keys on a secret until the ``welcome`` says so.  After the
    handshake, :meth:`secure` switches both directions to the
    token-derived key (``mac mode "token"``) or keeps the default key
    (mode ``"default"``, the tokenless fleet).  A tokenless server
    therefore still accepts a worker that was *given* a token, exactly
    like the legacy handshake: the welcome tells it not to use it.

    Sequence numbers are per-direction and strictly increasing; a
    received frame with a stale number (a duplicate, a replay) is
    skipped silently inside :meth:`recv`.
    """

    name = "v1"

    def __init__(self, secret: str | None = None) -> None:
        self._token_key = _derive_key(secret) if secret else _DEFAULT_KEY
        self._key = _DEFAULT_KEY
        #: Campaign id frames must carry; ``""`` accepts any (handshake).
        self.campaign = ""
        self.mac_mode = "token" if secret else "default"
        self._send_seq = 0
        self._recv_seq = 0

    def secure(self, mode: str | None = None) -> str:
        """Leave the handshake phase; returns the active MAC mode."""
        if mode is not None:
            self.mac_mode = mode
        self._key = self._token_key if self.mac_mode == "token" else _DEFAULT_KEY
        return self.mac_mode

    def send(self, sock: socket.socket, message: tuple) -> None:
        kind, body = message[0], tuple(message[1:])
        self._send_seq += 1
        sock.sendall(
            pack_frame(
                kind, body, campaign=self.campaign, seq=self._send_seq, key=self._key
            )
        )

    def recv(self, sock: socket.socket) -> tuple | None:
        """One ``(kind, *payload)`` message, ``None`` on clean EOF.

        Duplicated/replayed frames (stale seq) are skipped silently;
        unusable single frames raise :class:`FrameRejected`; a broken
        stream raises :class:`StreamDesync`.
        """
        while True:
            frame = read_frame(sock, self._key)
            if frame is None:
                return None
            header, blobs = frame
            seq = header.get("seq")
            if not isinstance(seq, int) or seq <= self._recv_seq:
                continue  # duplicate or replay: drop without a fuss
            self._recv_seq = seq
            campaign = header.get("campaign", "")
            if self.campaign and campaign and campaign != self.campaign:
                raise FrameRejected(
                    f"frame belongs to campaign {campaign!r}, this session is "
                    f"{self.campaign!r}"
                )
            body = decode_node(header.get("body"), blobs)
            if not isinstance(body, tuple):
                raise FrameRejected("frame body is not a payload tuple")
            return (header["kind"], *body)


def make_session(secret: str | None = None) -> WireV1Session:
    """A fresh per-connection session, MAC-keyed from ``secret`` if any."""
    return WireV1Session(secret)
