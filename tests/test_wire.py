"""Tests of the ``repro-wire-v1`` frame codec (`repro.experiments.wire`).

Covers the tagged-node payload encoding (atoms, containers, bytes,
numpy arrays and scalars, dataclasses, callables by reference), the
authenticated frame format (HMAC rejection, bad magic, oversized and
torn frames), the per-connection session semantics (sequence-number
replay suppression, campaign scoping, MAC re-keying after the
handshake).
"""

import dataclasses
import hashlib
import hmac
import socket
import struct

import numpy as np
import pytest

from repro.experiments import wire
from repro.experiments.wire import (
    MAGIC,
    MAX_FRAME,
    WIRE_FORMAT,
    FrameRejected,
    StreamDesync,
    WireV1Session,
    decode_node,
    encode_node,
    make_session,
    pack_frame,
    read_frame,
)


def _roundtrip(value):
    blobs: list[bytes] = []
    node = encode_node(value, blobs)
    return decode_node(node, blobs)


def _module_fn(value):
    return value + 1


@dataclasses.dataclass
class _Point:
    x: int
    y: float
    label: str


class TestNodeCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            1 << 80,
            3.5,
            "grüße",
            "",
            (1, 2, ("nested", None)),
            [1, [2, [3]]],
            {"a": 1, 2: "b", (3, 4): [5]},
            {1, 2, 3},
            frozenset({"x", "y"}),
            b"\x00\xffbinary",
            bytearray(b"mutable"),
        ],
        ids=repr,
    )
    def test_roundtrip_atoms_and_containers(self, value):
        result = _roundtrip(value)
        if isinstance(value, bytearray):
            assert result == bytes(value)
        else:
            assert result == value
            assert type(result) is type(value) or isinstance(value, bool)

    def test_roundtrip_ndarray_bit_identical(self):
        array = np.arange(24, dtype=np.uint64).reshape(2, 3, 4) * 977
        result = _roundtrip(array)
        assert result.dtype == array.dtype
        assert result.shape == array.shape
        assert np.array_equal(result, array)

    def test_roundtrip_numpy_scalar(self):
        scalar = np.float64(0.1) + np.float64(0.2)
        result = _roundtrip(scalar)
        assert isinstance(result, np.float64)
        assert result == scalar  # bit-exact, not approx

    def test_roundtrip_nonfinite_floats(self):
        assert _roundtrip(float("inf")) == float("inf")
        assert _roundtrip(float("nan")) != _roundtrip(float("nan"))  # NaN

    def test_roundtrip_dataclass(self):
        point = _Point(x=3, y=2.5, label="corner")
        assert _roundtrip(point) == point

    def test_roundtrip_module_level_callable(self):
        assert _roundtrip(_module_fn) is _module_fn

    def test_local_callable_rejected_at_encode(self):
        def local(value):
            return value

        with pytest.raises(TypeError, match="module-level"):
            encode_node(local, [])

    def test_lambda_rejected_at_encode(self):
        with pytest.raises(TypeError, match="module-level"):
            encode_node(lambda v: v, [])

    def test_unknown_type_rejected_at_encode(self):
        with pytest.raises(TypeError, match="cannot encode"):
            encode_node(object(), [])

    def test_unresolvable_reference_rejected_at_decode(self):
        with pytest.raises(FrameRejected, match="cannot resolve"):
            decode_node(["fn", "no.such.module:missing"], [])

    def test_non_dataclass_reference_refused(self):
        """A forged frame must not conjure arbitrary types via the
        dataclass path."""
        with pytest.raises(FrameRejected, match="not a dataclass"):
            decode_node(["dc", "os:system", [["command", "true"]]], [])

    def test_non_callable_reference_refused(self):
        with pytest.raises(FrameRejected, match="not callable"):
            decode_node(["fn", "os:sep"], [])

    def test_unknown_tag_rejected(self):
        with pytest.raises(FrameRejected, match="unknown payload node"):
            decode_node(["zz", 1], [])

    def test_malformed_node_rejected_not_crash(self):
        with pytest.raises(FrameRejected):
            decode_node(["nd", 0, "not-a-dtype", [2]], [b"1234"])


KEY = hashlib.sha256(b"test-key").digest()


class TestFrameFormat:
    def _pipe(self):
        return socket.socketpair()

    def test_frame_roundtrip(self):
        frame = pack_frame(
            "task", (7, [1, 2], b"blob"), campaign="c0ffee", seq=3, key=KEY
        )
        left, right = self._pipe()
        with left, right:
            left.sendall(frame)
            header, blobs = read_frame(right, KEY)
        assert header["kind"] == "task"
        assert header["campaign"] == "c0ffee"
        assert header["seq"] == 3
        assert decode_node(header["body"], blobs) == (7, [1, 2], b"blob")

    def test_clean_eof_returns_none(self):
        left, right = self._pipe()
        left.close()
        with right:
            assert read_frame(right, KEY) is None

    def test_wrong_key_rejects_frame_but_keeps_stream(self):
        """A MAC failure loses one frame, not the session: the next
        frame on the same stream still reads."""
        other = hashlib.sha256(b"other-key").digest()
        left, right = self._pipe()
        with left, right:
            left.sendall(pack_frame("heartbeat", (), campaign="", seq=1, key=other))
            left.sendall(pack_frame("heartbeat", (), campaign="", seq=2, key=KEY))
            with pytest.raises(FrameRejected, match="HMAC"):
                read_frame(right, KEY)
            header, _ = read_frame(right, KEY)
        assert header["seq"] == 2

    def test_corrupted_byte_fails_mac(self):
        frame = bytearray(
            pack_frame("result", (0, [1]), campaign="", seq=1, key=KEY)
        )
        frame[len(frame) // 2] ^= 0x40
        left, right = self._pipe()
        with left, right:
            left.sendall(bytes(frame))
            with pytest.raises(FrameRejected, match="HMAC"):
                read_frame(right, KEY)

    def test_bad_magic_is_desync(self):
        left, right = self._pipe()
        with left, right:
            # A length-prefixed pickle frame is not RPW1: a pre-v1 peer's
            # connection must die with a pointed message.
            left.sendall(b"\x00\x00\x00\x00\x00\x00\x00\x2a" + b"x" * 64)
            with pytest.raises(StreamDesync, match="bad frame magic"):
                read_frame(right, KEY)

    def test_oversized_lengths_are_desync_before_allocation(self):
        left, right = self._pipe()
        with left, right:
            left.sendall(struct.pack(">4sIQ", MAGIC, 1 << 28, MAX_FRAME))
            with pytest.raises(StreamDesync, match="desynchronized"):
                read_frame(right, KEY)

    def test_torn_preamble_is_desync(self):
        left, right = self._pipe()
        with left:
            left.sendall(MAGIC + b"\x00\x00")  # 6 of 16 preamble bytes
            left.shutdown(socket.SHUT_WR)
            with pytest.raises(StreamDesync, match="mid-frame"):
                read_frame(right, KEY)
        right.close()

    def test_truncated_body_is_desync(self):
        frame = pack_frame("task", (1,), campaign="", seq=1, key=KEY)
        left, right = self._pipe()
        with left:
            left.sendall(frame[:-10])
            left.shutdown(socket.SHUT_WR)
            with pytest.raises(StreamDesync):
                read_frame(right, KEY)
        right.close()

    def test_garbage_header_with_valid_mac_is_frame_rejection(self):
        """MAC passed but the JSON is broken: peer bug, frame consumed,
        stream aligned."""
        header = b"not json at all"
        preamble = struct.pack(">4sIQ", MAGIC, len(header), 0)
        data = preamble + header
        frame = data + hmac.new(KEY, data, hashlib.sha256).digest()
        left, right = self._pipe()
        with left, right:
            left.sendall(frame)
            with pytest.raises(FrameRejected, match="header"):
                read_frame(right, KEY)


class TestWireV1Session:
    def _linked(self, secret=None):
        a, b = socket.socketpair()
        return a, b, WireV1Session(secret), WireV1Session(secret)

    def test_send_recv_roundtrip(self):
        left, right, tx, rx = self._linked()
        with left, right:
            tx.send(left, ("hello", 123, None))
            assert rx.recv(right) == ("hello", 123, None)

    def test_duplicate_frame_skipped_silently(self):
        """A duplicated frame (chaos proxy, retransmit) must not surface
        twice — stale sequence numbers are dropped inside recv."""
        left, right, tx, rx = self._linked()
        with left, right:
            frame = pack_frame("result", (0, [5]), campaign="", seq=1, key=tx._key)
            left.sendall(frame)
            left.sendall(frame)  # exact duplicate
            tx._send_seq = 1
            tx.send(left, ("result", 1, [7]))
            assert rx.recv(right) == ("result", 0, [5])
            # The duplicate is invisible; the next message comes through.
            assert rx.recv(right) == ("result", 1, [7])

    def test_campaign_mismatch_rejects_frame(self):
        left, right, tx, rx = self._linked()
        tx.campaign = "campaign-a"
        rx.campaign = "campaign-b"
        with left, right:
            tx.send(left, ("task", 0, None, []))
            with pytest.raises(FrameRejected, match="campaign"):
                rx.recv(right)

    def test_handshake_then_token_rekey(self):
        """hello/welcome ride the default key; after ``secure()`` both
        sides MAC with the token-derived key, and a tokenless
        eavesdropper's session can no longer read the frames."""
        left, right, tx, rx = self._linked(secret="s3cret")
        snoop = WireV1Session(None)
        assert tx.mac_mode == "token"
        with left, right:
            tx.send(left, ("hello", 1, "s3cret"))
            assert rx.recv(right)[0] == "hello"  # default key: readable
            tx.secure()
            rx.secure()
            tx.send(left, ("heartbeat",))
            assert rx.recv(right) == ("heartbeat",)
            tx.send(left, ("heartbeat",))
            snoop._recv_seq = 0
            with pytest.raises(FrameRejected, match="HMAC"):
                snoop.recv(right)

    def test_tokenless_server_downgrades_tokened_worker(self):
        """The welcome's mac mode tells a tokened worker the server does
        not key on a secret; ``secure(mode)`` adopts the server's mode so
        both sides stay in sync (legacy handshake parity)."""
        worker = WireV1Session("optimistic-token")
        assert worker.secure("default") == "default"
        assert worker._key == wire._DEFAULT_KEY

    def test_non_tuple_body_rejected(self):
        left, right, tx, rx = self._linked()
        with left, right:
            frame = pack_frame("task", [1, 2], campaign="", seq=1, key=tx._key)
            left.sendall(frame)
            with pytest.raises(FrameRejected, match="payload tuple"):
                rx.recv(right)


class TestMakeSession:
    def test_factory(self):
        assert isinstance(make_session(), WireV1Session)
        assert make_session().name == "v1"
        assert make_session("tok").mac_mode == "token"
        assert make_session(None).mac_mode == "default"

    def test_constants(self):
        assert WIRE_FORMAT == "repro-wire-v1"
        assert len(MAGIC) == 4
