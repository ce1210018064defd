"""Seeded random-case streams shared by the property-style suites.

The batched-kernel and charge-system suites both grew ad-hoc
``_random_cell`` / ``_random_case`` helpers: draw a randomized fixture
from a ``numpy`` generator, unpack it, assert a property.  This module
is their shared home, and the store fuzz suite's: :func:`store_damage`
damages one record of a JSONL shard store.  Every generator takes an explicit integer seed
(or an already-seeded ``Generator``) and returns a small frozen case
object whose ``label`` names the generating parameters — so a failing
parametrized test identifies its exact case from the pytest id alone,
and re-running it needs nothing but the same seed.  The case also
carries the advanced ``rng``, letting a test keep drawing follow-on
values (shuffles, extra constraint positions) deterministically from
where the case generator left off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.ecc.hamming import canonical_sec_code, random_sec_code
from repro.memory.error_model import WordErrorProfile

__all__ = [
    "CellCase",
    "ChargeCase",
    "STORE_DAMAGE",
    "StoreDamage",
    "charge_case",
    "charge_cases",
    "random_cell",
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


#: The ways :func:`store_damage` damages a record.
STORE_DAMAGE = ("truncate", "garble", "strip", "retype", "retype-nested", "non-object")

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
    * ``non-object`` replaces the line with valid JSON that is no object.
    """
    rng, source = _as_rng(seed)
    index = int(rng.integers(len(lines)))
    line = lines[index].rstrip(b"\n")
    if how == "truncate":
        line = line[: int(rng.integers(1, len(line)))]
    elif how == "garble":
        start = int(rng.integers(len(line)))
        noise = bytes(int(b) for b in rng.integers(0, 256, size=int(rng.integers(1, 4))))
        line = line[:start] + noise + line[start + len(noise) :]
    elif how == "non-object":
        scalars = [value for value in _JSON_VALUES if not isinstance(value, dict)]
        line = json.dumps(scalars[int(rng.integers(len(scalars)))]).encode()
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
