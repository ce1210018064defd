"""Seeded random-case streams shared by the property-style suites.

The batched-kernel and charge-system suites both grew ad-hoc
``_random_cell`` / ``_random_case`` helpers: draw a randomized fixture
from a ``numpy`` generator, unpack it, assert a property.  This module
is their shared home, and the fuzz suites': :func:`store_damage` damages
one record of a JSONL shard store, :func:`frame_damage` one
``repro-wire-v1`` frame, and :func:`http_request` draws one request to
the HTTP API.  Every generator takes an explicit integer seed
(or an already-seeded ``Generator``) and returns a small frozen case
object whose ``label`` names the generating parameters — so a failing
parametrized test identifies its exact case from the pytest id alone,
and re-running it needs nothing but the same seed.  The case also
carries the advanced ``rng``, letting a test keep drawing follow-on
values (shuffles, extra constraint positions) deterministically from
where the case generator left off.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.ecc.hamming import canonical_sec_code, random_sec_code
from repro.experiments.wire import _PREAMBLE, MAGIC, MAX_FRAME
from repro.memory.error_model import WordErrorProfile

__all__ = [
    "CellCase",
    "ChargeCase",
    "FRAME_DAMAGE",
    "FrameDamage",
    "HttpRequest",
    "STORE_DAMAGE",
    "StoreDamage",
    "charge_case",
    "charge_cases",
    "conflicting_charges",
    "frame_damage",
    "http_request",
    "random_cell",
    "sealed_frame",
    "store_damage",
]


def _as_rng(seed) -> tuple[np.random.Generator, str]:
    """Accept an int seed or a live ``Generator``; label the source."""
    if isinstance(seed, np.random.Generator):
        return seed, "rng"
    return np.random.default_rng(seed), str(seed)


@dataclass(frozen=True)
class CellCase:
    """A rectangular profiling cell: parallel codes/profiles/seeds.

    Unpacks like the old ad-hoc 3-tuple (``codes, profiles, seeds``),
    so ported call sites keep their shape.
    """

    label: str
    codes: tuple
    profiles: tuple[WordErrorProfile, ...]
    seeds: tuple[int, ...]
    rng: np.random.Generator = field(repr=False, compare=False)

    def __iter__(self) -> Iterator:
        return iter((list(self.codes), list(self.profiles), list(self.seeds)))

    def __str__(self) -> str:  # pytest id for parametrized streams
        return self.label


def random_cell(seed, num_words: int, max_count: int = 6) -> CellCase:
    """A cell of ``num_words`` words over two codes, some words empty.

    Each word gets 0 to ``max_count - 1`` at-risk positions on its code
    with per-bit probabilities in [0.05, 1.0), plus a word seed — the
    exact distribution the batched-kernel suite always pinned its
    scalar-equivalence property over.
    """
    rng, source = _as_rng(seed)
    codes = [canonical_sec_code(16), random_sec_code(32, np.random.default_rng(5))]
    profiles, cell_codes = [], []
    for index in range(num_words):
        code = codes[index % len(codes)]
        count = int(rng.integers(0, max_count))
        positions = tuple(
            sorted(rng.choice(code.n, size=count, replace=False).tolist())
        )
        probabilities = tuple(float(p) for p in rng.uniform(0.05, 1.0, size=count))
        profiles.append(WordErrorProfile(positions, probabilities))
        cell_codes.append(code)
    seeds = [int(s) for s in rng.integers(0, 2**31, size=num_words)]
    return CellCase(
        label=f"cell-seed{source}-w{num_words}-c{max_count}",
        codes=tuple(cell_codes),
        profiles=tuple(profiles),
        seeds=tuple(seeds),
        rng=rng,
    )


@dataclass(frozen=True)
class ChargeCase:
    """A random SEC code with anchor constraints and a candidate pair.

    Unpacks like the old ad-hoc 3-tuple (``code, anchors, pair``).
    """

    label: str
    code: object
    anchors: frozenset
    pair: tuple
    rng: np.random.Generator = field(repr=False, compare=False)

    def __iter__(self) -> Iterator:
        return iter((self.code, self.anchors, self.pair))

    def __str__(self) -> str:  # pytest id for parametrized streams
        return self.label


def charge_case(seed) -> ChargeCase:
    """A random (8-63 data bits) SEC code, 0-5 anchors, one test pair."""
    rng, source = _as_rng(seed)
    code = random_sec_code(int(rng.integers(8, 64)), rng)
    anchors = frozenset(
        int(x) for x in rng.choice(code.k, size=int(rng.integers(0, 6)), replace=False)
    )
    pair = tuple(int(x) for x in rng.choice(code.n, size=2, replace=False))
    return ChargeCase(
        label=f"charge-seed{source}-k{code.k}-a{len(anchors)}",
        code=code,
        anchors=anchors,
        pair=pair,
        rng=rng,
    )


def charge_cases(seeds) -> list[ChargeCase]:
    """One labeled :func:`charge_case` per seed, for ``parametrize``."""
    return [charge_case(seed) for seed in seeds]


def conflicting_charges(code) -> tuple[int, ...]:
    """Cells no dataword charges at once: the data bits an even-weight row
    of ``P`` covers, and that row's parity cell, whose charge (their XOR)
    is 0 when they all store 1."""
    row_index, row = next(
        (j, row) for j, row in enumerate(code.parity_row_ints) if row.bit_count() % 2 == 0
    )
    return (*(i for i in range(code.k) if row >> i & 1), code.k + row_index)


#: The ways :func:`store_damage` damages a record.
STORE_DAMAGE = ("truncate", "garble", "strip", "retype", "retype-nested", "non-object", "deep")

#: Nesting depth past the interpreter's default recursion limit.
_DEEP = 1100

#: One value of every JSON type, so any field meets one it does not hold.
_JSON_VALUES = (None, True, 0, -3, 1.5, "x", [], [1, 2], {}, {"kind": "cell"})


@dataclass(frozen=True)
class StoreDamage:
    """The lines of a JSONL store, one of them damaged."""

    label: str
    lines: tuple[bytes, ...]
    rng: np.random.Generator = field(repr=False, compare=False)

    def __str__(self) -> str:  # pytest id for parametrized streams
        return self.label


def _nested(record: dict) -> dict:
    """A record's first nested object (a config, a word's metrics, a chip)."""
    for value in record.values():
        if isinstance(value, dict) and value:
            return value
        if isinstance(value, list) and value and isinstance(value[0], dict):
            return value[0]
    return record


def store_damage(seed, lines: list[bytes], how: str) -> StoreDamage:
    """``lines`` (newline-terminated) with one line damaged ``how``.

    * ``truncate`` cuts the line short — a torn write if it is the last;
    * ``garble`` overwrites 1-3 bytes with random ones (not always UTF-8);
    * ``strip`` deletes one field;
    * ``retype`` gives one field a value of another JSON type;
    * ``retype-nested`` does that one level down;
    * ``non-object`` replaces the line with valid JSON that is no object;
    * ``deep`` nests the line, or one of its fields, deeper than the
      recursion limit.
    """
    rng, source = _as_rng(seed)
    index = int(rng.integers(len(lines)))
    line = lines[index].rstrip(b"\n")
    deep = b"[" * _DEEP + b"]" * _DEEP
    if how == "truncate":
        line = line[: int(rng.integers(1, len(line)))]
    elif how == "garble":
        start = int(rng.integers(len(line)))
        noise = bytes(int(b) for b in rng.integers(0, 256, size=int(rng.integers(1, 4))))
        line = line[:start] + noise + line[start + len(noise) :]
    elif how == "non-object":
        scalars = [value for value in _JSON_VALUES if not isinstance(value, dict)]
        line = json.dumps(scalars[int(rng.integers(len(scalars)))]).encode()
    elif how == "deep" and rng.integers(2):
        line = deep
    elif how == "deep":
        record = json.loads(line)
        record[sorted(record)[int(rng.integers(len(record)))]] = "@"
        line = json.dumps(record).encode().replace(b'"@"', deep)
    else:
        record = json.loads(line)
        target = _nested(record) if how == "retype-nested" else record
        name = sorted(target)[int(rng.integers(len(target)))]
        if how == "strip":
            del target[name]
        else:
            others = [v for v in _JSON_VALUES if type(v) is not type(target[name])]
            target[name] = others[int(rng.integers(len(others)))]
        line = json.dumps(record).encode()
    damaged = list(lines)
    damaged[index] = line + b"\n"
    return StoreDamage(
        label=f"{how}-seed{source}-line{index}", lines=tuple(damaged), rng=rng
    )


#: The ways :func:`frame_damage` damages a frame.
FRAME_DAMAGE = ("truncate", "flip", "non-object", "retype", "nest", "negative", "oversized")


@dataclass(frozen=True)
class FrameDamage:
    """The bytes of one damaged ``repro-wire-v1`` frame."""

    label: str
    data: bytes
    rng: np.random.Generator = field(repr=False, compare=False)

    def __str__(self) -> str:  # pytest id for parametrized streams
        return self.label


def sealed_frame(header: bytes, heap: bytes, key: bytes) -> bytes:
    """A frame around raw ``header`` and ``heap`` bytes, MAC'd with ``key``."""
    data = _PREAMBLE.pack(MAGIC, len(header), len(heap)) + header + heap
    return data + hmac.new(key, data, hashlib.sha256).digest()


def frame_damage(seed, frame: bytes, key: bytes, how: str) -> FrameDamage:
    """``frame`` (one packed frame, MAC'd with ``key``) damaged ``how``.

    * ``truncate`` cuts it short, anywhere from the preamble to the MAC;
    * ``flip`` flips 1-3 bits anywhere;
    * ``non-object`` re-MACs it with a JSON header that is no object;
    * ``retype`` re-MACs it with another JSON value (of another type,
      or a list of strings) in one header field;
    * ``nest`` re-MACs it with the header, or its body, nested deeper
      than the recursion limit;
    * ``negative`` re-MACs it with blob lengths that include a negative
      one yet sum to the heap size;
    * ``oversized`` announces more than ``MAX_FRAME`` bytes, or more
      header bytes than the stream holds.
    """
    rng, source = _as_rng(seed)
    _, header_len, heap_len = _PREAMBLE.unpack(frame[: _PREAMBLE.size])
    header = json.loads(frame[_PREAMBLE.size : _PREAMBLE.size + header_len])
    heap = frame[_PREAMBLE.size + header_len : _PREAMBLE.size + header_len + heap_len]
    if how == "truncate":
        data = frame[: int(rng.integers(1, len(frame)))]
    elif how == "flip":
        damaged = bytearray(frame)
        for bit in rng.choice(len(frame) * 8, size=int(rng.integers(1, 4)), replace=False):
            damaged[bit // 8] ^= 1 << (bit % 8)
        data = bytes(damaged)
    elif how == "non-object":
        scalars = [value for value in _JSON_VALUES if not isinstance(value, dict)]
        scalar = scalars[int(rng.integers(len(scalars)))]
        data = sealed_frame(json.dumps(scalar).encode(), heap, key)
    elif how == "retype":
        name = sorted(header)[int(rng.integers(len(header)))]
        others = [v for v in (*_JSON_VALUES, ["a"]) if json.dumps(v) != json.dumps(header[name])]
        header[name] = others[int(rng.integers(len(others)))]
        data = sealed_frame(json.dumps(header).encode(), heap, key)
    elif how == "nest":
        if rng.random() < 0.5:
            text = "[" * _DEEP + "]" * _DEEP
        else:
            text = json.dumps({**header, "body": "@"}).replace('"@"', "[" * _DEEP + "]" * _DEEP)
        data = sealed_frame(text.encode(), heap, key)
    elif how == "negative":
        excess = int(rng.integers(1, 1 << 20))
        header["blobs"] = [heap_len + excess, -excess]
        data = sealed_frame(json.dumps(header).encode(), heap, key)
    elif how == "oversized":
        announced = (
            (int(rng.integers(1, 1 << 32)), MAX_FRAME)
            if rng.random() < 0.5
            else (header_len + int(rng.integers(1, 1 << 16)), heap_len)
        )
        data = _PREAMBLE.pack(MAGIC, *announced) + frame[_PREAMBLE.size :]
    else:
        raise ValueError(f"unknown frame damage {how!r}; expected one of {FRAME_DAMAGE}")
    return FrameDamage(label=f"{how}-seed{source}", data=data, rng=rng)


#: Methods :func:`http_request` draws, past the routed GET and POST:
#: the other standard ones, and tokens no server routes.
_HTTP_METHODS = ("HEAD", "PUT", "DELETE", "OPTIONS", "PATCH", "TRACE", "get", "FROB")

#: Paths :func:`http_request` draws, besides random ones: every route,
#: near misses, and forms a router might mishandle.
_HTTP_PATHS = (
    "/", "/status", "/status/", "//status", "/status?x=1", "/jobs", "/jobs/",
    "/jobs/job-00000000", "/jobs/job-00000000/result", "/jobs/job-00000000/cancel",
    "/jobs/job-00000000/result/x", "/jobs//cancel", "/metrics", "/%00", "*", "jobs",
)

#: Bodies :func:`http_request` draws, besides random bytes: specs the
#: daemon runs, specs past its work budget, and JSON that is no spec.
_HTTP_BODIES = (
    b"",
    b'{"kind": "sweep"}',
    b'{"kind": "fleet", "config": {"num_chips": 1000000000000}}',
    b'{"kind": "fig10", "config": {"k": 1000000000}}',
    b'{"kind": "sweep", "config": {"num_rounds": 100000000000000000000}}',
    b"[1, 2, 3]",
    b"null",
    b"[" * _DEEP,
    b'{"kind": ',
)


@dataclass(frozen=True)
class HttpRequest:
    """One request to a repro HTTP server, ready to send."""

    label: str
    method: str
    data: bytes
    rng: np.random.Generator = field(repr=False, compare=False)

    def __str__(self) -> str:  # pytest id for parametrized streams
        return self.label


def _token(rng: np.random.Generator, alphabet: bytes, low: int, high: int) -> str:
    size = int(rng.integers(low, high))
    return bytes(alphabet[int(i)] for i in rng.integers(len(alphabet), size=size)).decode()


_PATH_CHARS = b"abcdefghijklmnopqrstuvwxyz0123456789-._~%/?=&"
_VALUE_CHARS = b"abcdefghijklmnopqrstuvwxyz0123456789 -_.,;:=/*()"


def http_request(seed, token: str | None = None) -> HttpRequest:
    """A random request to the daemon or a ``--status-port``.

    Draws the method (GET or POST four times in five, else one of
    :data:`_HTTP_METHODS`), the path (``/jobs`` for half the POSTs, else
    one of :data:`_HTTP_PATHS` or a random one), the HTTP/1.0 or /1.1
    version, a random subset of headers (the right, a wrong or an empty
    auth token when ``token`` is set; ``Connection``, ``Expect`` and
    junk ones), and a body: none (for most GETs), a job spec (runnable,
    or past the work budget), JSON that is no spec, or random bytes.  A
    body is framed by a ``Content-Length`` that matches it, or as chunks.
    """
    rng, source = _as_rng(seed)
    if rng.random() < 0.8:
        method = ("GET", "POST")[int(rng.integers(2))]
    else:
        method = _HTTP_METHODS[int(rng.integers(len(_HTTP_METHODS)))]
    if method == "POST" and rng.random() < 0.5:
        path = "/jobs"
    elif rng.random() < 0.75:
        path = _HTTP_PATHS[int(rng.integers(len(_HTTP_PATHS)))]
    else:
        path = "/" + _token(rng, _PATH_CHARS, 0, 40)
    version = "HTTP/1.1" if rng.random() < 0.8 else "HTTP/1.0"
    headers = []
    if rng.random() < 0.9:
        headers.append("Host: repro")
    if token is not None and rng.random() < 0.8:
        headers.append(f"X-Auth-Token: {(token, token, 'wrong', '')[int(rng.integers(4))]}")
    for name, values in (
        ("Content-Type", ("application/json", "text/plain", "")),
        ("Connection", ("keep-alive", "close")),
        ("Accept", ("*/*", "application/json")),
        ("Expect", ("100-continue",)),
    ):
        if rng.random() < 0.3:
            headers.append(f"{name}: {values[int(rng.integers(len(values)))]}")
    for index in range(int(rng.integers(3))):
        headers.append(f"X-Fuzz-{index}: {_token(rng, _VALUE_CHARS, 0, 60)}")
    if method == "GET" and rng.random() < 0.7:
        body = b""
    elif rng.random() < 0.3:
        body = bytes(int(b) for b in rng.integers(0, 256, size=int(rng.integers(1, 200))))
    else:
        body = _HTTP_BODIES[int(rng.integers(len(_HTTP_BODIES)))]
    framing = "none"
    if body and rng.random() < 0.2:
        framing = "chunked"
        headers.append("Transfer-Encoding: chunked")
        cut = int(rng.integers(1, len(body) + 1))
        body = b"".join(
            b"%x\r\n%s\r\n" % (len(part), part) for part in (body[:cut], body[cut:]) if part
        ) + b"0\r\n\r\n"
    elif body or rng.random() < 0.5:
        framing = "length"
        headers.append(f"Content-Length: {len(body)}")
    order = rng.permutation(len(headers))
    head = "".join(f"{headers[int(i)]}\r\n" for i in order)
    data = f"{method} {path} {version}\r\n{head}\r\n".encode("latin-1") + body
    return HttpRequest(
        label=f"{method}-{framing}-seed{source}", method=method, data=data, rng=rng
    )
