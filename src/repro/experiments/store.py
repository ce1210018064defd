"""Serialization and streaming persistence of campaign results.

The paper's artifact parallelizes Monte-Carlo jobs across machines and
aggregates raw output files afterwards (§A.7).  This module provides the
equivalent for the Python reproduction, in two layers:

* **Documents** — :func:`sweep_to_json` writes a whole
  :class:`SweepResult` as one ``repro-sweep-v2`` JSON object (cells,
  per-cell timings and the sweep config); the daemon's sweep job result
  carries it.  Each document cell is a ``cell`` record without its
  ``kind``, so :data:`SWEEP_STORE` decodes it.
* **Streams** — :class:`ShardStore` appends each completed work unit to
  a JSONL file the moment it finishes, so a killed campaign loses
  nothing.  One store class serves ``run_sweep``, ``fig10.run`` and
  ``fleet.run`` (``resume=PATH``); what its records hold is one row of
  :data:`STORE_FORMATS`.  The drivers' one campaign loop
  (:func:`~repro.experiments.campaign.run_campaign`) skips
  already-persisted keys on restart, so an interrupted run resumes
  bit-identically.  Downstream consumers can read the records line by
  line without loading a full result — that is what the
  ``python -m repro store`` toolbox (:mod:`repro.experiments.storetools`)
  does to summarize, compact, and merge stores; its rewrites, like the
  daemon's job records, go through :func:`write_atomically`.  (The
  drivers still assemble the complete in-memory result they return — the
  store bounds *loss*, not driver memory.)  A record is one line; a crash mid-append
  leaves at most one damaged final line, which loading tolerates and
  appending repairs or trims.

On-disk record kinds (one JSON object per line):

==========  =======================================================
kind        contents
==========  =======================================================
header      file format tag + the config that produced the records
cell        one completed sweep cell
fig10       one completed case-study shard
fleet       one completed fleet shard — a chip range or a heavy
            chip's cell slice
quarantine  key of a shard a ``--continue-past-quarantine`` run set
            aside (all stores); loading ignores it, so a rerun
            recomputes exactly those shards, and ``store summary``
            reports the ones not yet resolved by a completed record
==========  =======================================================

Record field reference (beyond ``kind``):

* ``header`` — ``{"format": "repro-sweep-v2" | "repro-fig10-v1" |
  "repro-fleet-v1", "config": {...} | null}``; the config dict
  round-trips the frozen :class:`~repro.experiments.config.SweepConfig`
  / :class:`~repro.experiments.config.CaseStudyConfig` /
  :class:`~repro.experiments.config.FleetConfig` field for field.
* ``cell`` — the cell key (``error_count`` int, ``probability`` float,
  ``profiler`` str), ``words`` (list of per-word metric dicts, one per
  Monte-Carlo word), and optional ``seconds`` (the cell's recorded
  compute wall-clock, used for progress lines and the summary's ETA).
  ``kind`` is the last field, after ``seconds``.
* ``fig10`` — the shard key (``probability`` float, ``code_index``
  int, ``count`` int = at-risk stratum), the per-profiler ``before`` /
  ``after`` / ``to_zero`` trajectory dicts, and optional ``seconds``.
* ``fleet`` — the shard key (``start`` / ``stop`` chip range plus
  ``slice_index`` / ``num_slices`` for sub-cell slices), the per-chip
  ``chips`` payload (word coordinates, at-risk positions, identified
  positions), and optional ``seconds``.
* ``quarantine`` — exactly the key fields of the ``cell`` / ``fig10`` /
  ``fleet`` record it stands in for, nothing else; the store's header
  says which.

Duplicate keys always resolve **last-wins** on load; the
``python -m repro store`` toolbox compacts superseded records away and
prunes quarantine markers that a later completed record resolved.  A
record that is not an object, lacks a field, has a field of the wrong
JSON type, or holds a payload of the wrong shape fails as
``ValueError("PATH: corrupt shard record on line N")``: every reader
(load, resume, ``summary``, ``compact``, ``merge``) runs the same
checks.  Payload shapes are checked per format — a fleet chip must lie
in its record's ``[start, stop)`` range, once, with well-formed word
triples; a Fig 10 record's ``before`` / ``after`` / ``to_zero`` must
share one profiler set with equal word counts — and :meth:`ShardStore.load`
also checks each record against the header's config (a Fig 10 record's
profilers and trajectory length must be the config's).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple

from repro.experiments.config import CaseStudyConfig, FleetConfig, SweepConfig
from repro.experiments.reporting import log_round_ticks
from repro.experiments.runner import SweepCell, SweepResult, WordMetrics

__all__ = [
    "sweep_to_json",
    "config_to_dict",
    "config_from_dict",
    "StoreFormat",
    "SWEEP_STORE",
    "FIG10_STORE",
    "FLEET_STORE",
    "STORE_FORMATS",
    "StoreContents",
    "ShardStore",
    "write_atomically",
]

#: Sweep format tag (sweep documents and sweep stores).
FORMAT_V2 = "repro-sweep-v2"

#: The key :meth:`ShardStore.iter_records` gives a header record.
HEADER = ("header",)

#: What :meth:`ShardStore._lines` yields for a torn final line.
_TORN = object()


def _typed(value, kind: type):
    """``value`` if JSON decoded it as a ``kind`` (an int passes as a float)."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return float(value) if kind is float else value


_METRIC_FIELDS = tuple(spec.name for spec in fields(WordMetrics))


def _metrics_to_dict(metrics: WordMetrics) -> dict:
    """JSON-ready fields of one word's metrics (tuples dump as lists)."""
    return {name: getattr(metrics, name) for name in _METRIC_FIELDS}


def _metrics_from_dict(payload: dict) -> WordMetrics:
    values = {name: tuple(v) if isinstance(v, list) else v for name, v in payload.items()}
    return WordMetrics(**values)


def config_to_dict(config, config_class: type = SweepConfig) -> dict | None:
    """JSON-safe dict of a ``config_class`` config (``None`` if not one).

    Drivers may run with any hashable config-like object; only the
    library's own frozen dataclasses get a guaranteed round-trip.
    """
    if not isinstance(config, config_class):
        return None
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(config).items()
    }


def config_from_dict(payload, config_class: type = SweepConfig):
    """Inverse of :func:`config_to_dict` (``None`` passes through).

    Each field (and each item of a sequence field) must have the JSON
    type of its default and the class must accept the values, or this
    raises ``ValueError``: a store header, like a daemon job spec, is
    external input.
    """
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ValueError("config is not a JSON object")
    defaults = {spec.name: spec.default for spec in fields(config_class)}
    kwargs = {}
    for name, value in payload.items():
        if name not in defaults:
            raise ValueError(f"{config_class.__name__} has no field {name!r}")
        try:
            if isinstance(defaults[name], tuple):
                items = _typed(value, list)
                for item in items:
                    _typed(item, type(defaults[name][0]))
                kwargs[name] = tuple(items)
            else:
                kwargs[name] = _typed(value, type(defaults[name]))
        except TypeError as error:
            raise ValueError(f"config field {name!r}: {error}") from None
    try:
        return config_class(**kwargs)
    except (TypeError, ValueError) as error:
        raise ValueError(f"invalid {config_class.__name__}: {error}") from None


@dataclass(frozen=True)
class StoreFormat:
    """One store format: its header tag and the one record kind it holds.

    :data:`STORE_FORMATS` has one entry per driver; the store, the
    campaign loop and the ``repro store`` toolbox all read it, so a
    record is encoded, keyed and checked in one place.
    """

    #: Header ``format`` tag.
    tag: str
    #: ``kind`` of a completed-shard record.
    kind: str
    #: Workload name (status snapshots, ``store summary``).
    name: str
    #: What the records complete, plural (progress lines, ``store summary``).
    unit: str
    #: The workload as refusal messages name it.
    label: str
    #: Key fields in record order, with their JSON types.
    keys: tuple[tuple[str, type], ...]
    #: Payload fields in record order, with their JSON types.
    payload: tuple[tuple[str, type], ...]
    #: The library config class the header round-trips.
    config: type
    #: Shard result -> payload fields.
    encode: Callable[[Any], dict]
    #: ``(key, record)`` -> shard result.
    decode: Callable[[tuple, dict], Any]
    #: Sweep cells predate the other kinds and write ``kind`` last.
    kind_last: bool = False
    #: ``(key, record)`` -> ``None``: raises ``TypeError``/``ValueError``
    #: on a payload whose inner shape is wrong (no config needed).
    check: Callable[[tuple, dict], None] | None = None
    #: ``(config, record)`` -> ``None``: raises ``ValueError`` on a
    #: record that does not fit the header's config (load only).
    check_config: Callable[[Any, dict], None] | None = None

    def key_fields(self, key: tuple) -> dict:
        """A shard key as the typed fields its records (and markers) carry."""
        return {name: kind(value) for (name, kind), value in zip(self.keys, key)}

    def record(self, key: tuple, result, seconds: float | None = None) -> dict:
        """The record of one completed shard, fields in on-disk order."""
        record = {} if self.kind_last else {"kind": self.kind}
        record.update(self.key_fields(key))
        record.update(self.encode(result))
        if seconds is not None:
            record["seconds"] = seconds
        if self.kind_last:
            record["kind"] = self.kind
        return record

    def key_of(self, record: dict, marker: bool = False) -> tuple:
        """A record's typed key; ``KeyError``/``TypeError``/``ValueError`` if malformed.

        A completed-shard record's payload and ``seconds`` types, and the
        format's payload :attr:`check`, are checked too; a quarantine
        ``marker`` holds key fields only.
        """
        key = tuple(_typed(record[name], kind) for name, kind in self.keys)
        if not marker:
            for name, kind in self.payload:
                _typed(record[name], kind)
            if "seconds" in record and not 0 <= _typed(record["seconds"], float) < math.inf:
                raise TypeError("seconds is not a finite duration")
            if self.check is not None:
                self.check(key, record)
        return key


SWEEP_STORE = StoreFormat(
    tag=FORMAT_V2,
    kind="cell",
    name="sweep",
    unit="cells",
    label="sweep",
    keys=(("error_count", int), ("probability", float), ("profiler", str)),
    payload=(("words", list),),
    config=SweepConfig,
    encode=lambda cell: {"words": [_metrics_to_dict(m) for m in cell.words]},
    decode=lambda key, record: SweepCell(
        *key, words=[_metrics_from_dict(m) for m in record["words"]]
    ),
    kind_last=True,
)


def _check_fig10(key: tuple, record: dict) -> None:
    """``before``/``after``/``to_zero`` share one profiler set and word count.

    Each profiler's ``before`` and ``after`` entries are per-word
    trajectories (lists of numbers, all of one length) and its
    ``to_zero`` entry is per-word rounds (an int or null).
    """
    before, after, to_zero = record["before"], record["after"], record["to_zero"]
    if not before.keys() == after.keys() == to_zero.keys():
        raise ValueError("before, after and to_zero name different profilers")
    ticks = set()
    for name in before:
        words = {len(_typed(table[name], list)) for table in (before, after, to_zero)}
        if len(words) != 1:
            raise ValueError(f"profiler {name!r} has unequal word counts")
        for table in (before, after):
            for trajectory in table[name]:
                ticks.add(len(_typed(trajectory, list)))
                for value in trajectory:
                    _typed(value, float)
        for rounds in to_zero[name]:
            if rounds is not None:
                _typed(rounds, int)
    if len(ticks) > 1:
        raise ValueError("trajectories of unequal length")


def _check_fig10_config(config: CaseStudyConfig, record: dict) -> None:
    """The record's profilers and trajectory length are the config's."""
    if set(record["before"]) != set(config.profilers):
        raise ValueError("profilers differ from the header config's")
    ticks = len(log_round_ticks(config.num_rounds))
    for table in (record["before"], record["after"]):
        if any(len(trajectory) != ticks for words in table.values() for trajectory in words):
            raise ValueError(f"trajectories are not {ticks} ticks long")


#: A case-study shard result is ``(before, after, to_zero)``, as
#: :func:`repro.experiments.fig10.run_case_shard` returns it.
FIG10_STORE = StoreFormat(
    tag="repro-fig10-v1",
    kind="fig10",
    name="fig10",
    unit="shards",
    label="Fig 10 case-study",
    keys=(("probability", float), ("code_index", int), ("count", int)),
    payload=(("before", dict), ("after", dict), ("to_zero", dict)),
    config=CaseStudyConfig,
    encode=lambda result: dict(zip(("before", "after", "to_zero"), result)),
    decode=lambda key, record: (record["before"], record["after"], record["to_zero"]),
    check=_check_fig10,
    check_config=_check_fig10_config,
)


def _check_fleet(key: tuple, record: dict) -> None:
    """Each entry is ``{"chip": int, "words": [[int, [int...], [int...]], ...]}``.

    Chips lie in the record's ``[start, stop)`` range, each at most once.
    """
    start, stop = key[0], key[1]
    seen: set[int] = set()
    for entry in record["chips"]:
        chip = _typed(_typed(entry, dict)["chip"], int)
        if not start <= chip < stop or chip in seen:
            raise ValueError(f"chip {chip} is outside [{start}, {stop}) or repeated")
        seen.add(chip)
        for word in _typed(entry["words"], list):
            if len(_typed(word, list)) != 3:
                raise ValueError("a word is not [word, positions, identified]")
            _typed(word[0], int)
            for bit in _typed(word[1], list) + _typed(word[2], list):
                _typed(bit, int)


#: A fleet shard result is :func:`repro.experiments.fleet.run_fleet_shard`'s
#: ``{"chips": [...]}`` payload.
FLEET_STORE = StoreFormat(
    tag="repro-fleet-v1",
    kind="fleet",
    name="fleet",
    unit="shards",
    label="fleet",
    keys=(("start", int), ("stop", int), ("slice_index", int), ("num_slices", int)),
    payload=(("chips", list),),
    config=FleetConfig,
    encode=lambda payload: {"chips": payload["chips"]},
    decode=lambda key, record: {"chips": record["chips"]},
    check=_check_fleet,
)

#: Every store format, by header tag.
STORE_FORMATS = {fmt.tag: fmt for fmt in (SWEEP_STORE, FIG10_STORE, FLEET_STORE)}
_BY_KIND = {fmt.kind: fmt for fmt in STORE_FORMATS.values()}


def sweep_to_json(sweep: SweepResult) -> str:
    """Serialize a sweep — cells, per-cell timings, and config — to JSON.

    Emits the self-describing ``repro-sweep-v2`` document: when the
    sweep's config is the library's :class:`SweepConfig` it rides along
    (:func:`config_from_dict` restores it).  A cell's wall-clock seconds
    ride along as its ``seconds`` field when the engine recorded them.
    A document cell is a store ``cell`` record without its ``kind``.
    """
    cells = []
    for key, cell in sorted(sweep.cells.items()):
        entry = SWEEP_STORE.record(key, cell, sweep.timings.get(key))
        del entry["kind"]
        cells.append(entry)
    return json.dumps(
        {"format": FORMAT_V2, "config": config_to_dict(sweep.config), "cells": cells}
    )


class StoreContents(NamedTuple):
    """What :meth:`ShardStore.load` reads: the winning record per key."""

    config: Any
    #: Shard key -> shard result, as the store format decodes it.
    results: dict
    #: Shard key -> recorded compute seconds (records that carry them).
    seconds: dict


class ShardStore:
    """Append-only, torn-tail-tolerant JSONL stream of completed shards.

    Layout: the first line is a header record carrying the format tag
    and the config; every following line is one completed shard (or a
    quarantine marker).  Appends flush and fsync per record, so after a
    crash the file holds every fully-reported record plus at most one
    truncated tail line, which reading skips and appending repairs or
    trims.

    ``store_format`` is the :data:`STORE_FORMATS` entry this store must
    hold: a driver passes its own, and a header of another format is
    refused.  Without one (the ``repro store`` toolbox) the header
    decides; appending needs a format.
    """

    def __init__(
        self, path: str | os.PathLike, store_format: StoreFormat | None = None
    ) -> None:
        self.path = Path(path)
        self.format = store_format
        self._handle: IO[str] | None = None

    # -- reading --------------------------------------------------------

    def exists(self) -> bool:
        return self.path.exists()

    def _lines(self, include_torn: bool) -> Iterator[tuple[int, Any]]:
        """Stream ``(line_number, parsed JSON)`` without loading the file.

        A torn write only ever affects the last line (appends are
        sequential), so a JSON error on the final line is silently
        dropped — an interrupted append, recomputed on resume — while
        an error anywhere earlier means real corruption and raises.
        With ``include_torn``, the torn final line is yielded as
        ``(line_number, _TORN)`` instead of dropped, so a streaming
        consumer (the ``repro store`` toolbox) can report it from the
        same single pass.  A line nested past the recursion limit is
        corrupt wherever it sits: no prefix of a record this module
        writes nests that deep, so it cannot be a torn append.
        """
        if not self.path.exists():
            return
        held: tuple[int, bytes] | None = None
        # Bytes, not text: a damaged line that is not UTF-8 must fail as
        # that line (json.loads raises a ValueError for it), not abort
        # the read.
        with open(self.path, "rb") as handle:
            for number, raw in enumerate(handle):
                if not raw.strip():
                    continue
                if held is not None:
                    try:
                        record = json.loads(held[1])
                    except (ValueError, RecursionError):
                        raise self._corrupt(held[0]) from None
                    yield held[0], record
                held = (number, raw)
            if held is not None:
                try:
                    record = json.loads(held[1])
                except RecursionError:
                    raise self._corrupt(held[0]) from None
                except ValueError:
                    if include_torn:
                        yield held[0], _TORN
                    return  # torn tail from an interrupted append
                yield held[0], record

    def _corrupt(self, number: int) -> ValueError:
        return ValueError(f"{self.path}: corrupt shard record on line {number + 1}")

    def iter_records(
        self, include_torn: bool = False
    ) -> Iterator[tuple[int, tuple | None, dict | None]]:
        """Stream ``(line_number, key, record)``, checking every record.

        The key is :data:`HEADER` for a header, ``(kind, *key fields)``
        for a completed shard, and ``("quarantine", kind, *key fields)``
        for a quarantine marker — so dropping a marker key's first
        element gives the key of the record that resolves it.  A torn
        tail comes as ``(line_number, None, None)`` with
        ``include_torn`` and is skipped otherwise; a record the store
        cannot hold raises ``ValueError``.
        """
        store_format = self.format
        for number, record in self._lines(include_torn):
            if record is _TORN:
                yield number, None, None
                continue
            key, store_format = self._check(number, record, store_format)
            yield number, key, record

    def _check(self, number: int, record, store_format: StoreFormat | None):
        """One record's key, and the store format it implies."""
        if not isinstance(record, dict):
            raise self._corrupt(number)
        kind = record.get("kind")
        if kind == "header":
            tag = record.get("format")
            found = STORE_FORMATS.get(tag) if isinstance(tag, str) else None
            if found is None:
                raise ValueError(
                    f"{self.path}: unknown store format {tag!r} "
                    f"(expected one of {', '.join(STORE_FORMATS)})"
                )
            if store_format not in (None, found):
                raise ValueError(
                    f"{self.path} is a {found.label} store, not a "
                    f"{store_format.label} store; give each exhibit its own "
                    "--resume path"
                )
            try:
                config_from_dict(record.get("config"), found.config)
            except ValueError:
                raise self._corrupt(number) from None
            return HEADER, found
        if record.get("format") == FORMAT_V2 and "cells" in record:
            # A whole sweep_to_json document, not a store: resuming onto
            # it would ignore its cells and append records that corrupt
            # it — refuse loudly instead.
            raise ValueError(
                f"{self.path} is a sweep_to_json document, not a JSONL "
                "shard store; give --resume its own path"
            )
        if not isinstance(kind, str):
            raise self._corrupt(number)
        if kind == "quarantine":
            # The marker's fields are the key of the store's own kind.
            if store_format is None:
                raise self._corrupt(number)
            try:
                key = store_format.key_of(record, marker=True)
            except (KeyError, TypeError, ValueError):
                raise self._corrupt(number) from None
            return ("quarantine", store_format.kind, *key), store_format
        found = _BY_KIND.get(kind)
        if found is None or store_format not in (None, found):
            raise ValueError(f"{self.path}: unknown shard record on line {number + 1}")
        try:
            key = found.key_of(record)
        except (KeyError, TypeError, ValueError):
            raise self._corrupt(number) from None
        return (found.kind, *key), found

    def load(self) -> StoreContents:
        """Read the winning record per key; tolerate a torn final line.

        Quarantine markers are skipped: a continue-past-quarantine run
        set those shards aside, never computed them, so a resume must
        recompute them.  ``store summary`` is what reports unresolved
        markers to operators.  Each record is also checked against the
        header's config, when the format has such a check.
        """
        config = None
        results: dict = {}
        seconds: dict = {}
        for number, key, record in self.iter_records():
            if key == HEADER:
                config = config_from_dict(
                    record.get("config"), STORE_FORMATS[record["format"]].config
                )
            elif key[0] != "quarantine":
                shard = key[1:]
                store_format = _BY_KIND[key[0]]
                try:
                    if config is not None and store_format.check_config is not None:
                        store_format.check_config(config, record)
                    # Duplicate keys: last append wins.
                    results[shard] = store_format.decode(shard, record)
                except (KeyError, TypeError, ValueError, AttributeError):
                    raise self._corrupt(number) from None
                if "seconds" in record:
                    seconds[shard] = float(record["seconds"])
        return StoreContents(config, results, seconds)

    def keys(self) -> set:
        """Keys of every intact persisted shard."""
        return set(self.load().results)

    # -- writing --------------------------------------------------------

    def open(self, config=None) -> "ShardStore":
        """Open for appending, writing the header record on a new file.

        An existing file first has any torn tail line removed (records
        are written newline-terminated in one call, so an interrupted
        append is exactly a final line with no ``\\n``); appending after
        the fragment without trimming would otherwise fuse the next
        record onto it and corrupt both.
        """
        if self._handle is not None:
            return self
        if self.format is None:
            raise ValueError(f"{self.path}: appending needs the store format")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self._trim_torn_tail()
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_record(
                {
                    "format": self.format.tag,
                    "kind": "header",
                    "config": config_to_dict(config, self.format.config),
                }
            )
        return self

    def _trim_torn_tail(self) -> None:
        """Truncate an interrupted final append.

        Mirrors exactly what :meth:`load` keeps, so nothing ever gets
        appended *after* a record that loading would skip, and nothing
        loading would *keep* is dropped: a final line missing its
        newline is repaired in place when it still parses (the tear hit
        only the terminator — ``load`` counts that record, so the disk
        must too) and truncated otherwise; a newline-terminated final
        line that does not parse (a crash between flush and fsync can
        persist the trailing page, newline included, while losing an
        earlier one) is truncated as well.
        """
        with open(self.path, "rb+") as handle:
            size = handle.seek(0, os.SEEK_END)
            if not size:
                return
            # A tear only ever affects the tail, so inspect a window off
            # the end instead of reading a paper-scale store whole; the
            # window grows until it spans the last few (possibly huge)
            # records or the file start.
            window = 1 << 16
            while True:
                start = max(0, size - window)
                handle.seek(start)
                data = handle.read(size - start)
                if start == 0 or data.count(b"\n") >= 3:
                    break
                window <<= 1
            if not data.endswith(b"\n"):
                tail_start = data.rfind(b"\n") + 1  # 0 on a header-only tear
                try:
                    json.loads(data[tail_start:])
                except ValueError:
                    data = data[:tail_start]
                    handle.truncate(start + tail_start)
                else:
                    handle.seek(0, os.SEEK_END)
                    handle.write(b"\n")
                    data += b"\n"
            if not data:
                return
            last_start = data.rfind(b"\n", 0, len(data) - 1) + 1
            if last_start == 0 and start > 0:
                return  # one intact giant record fills the window: valid
            try:
                json.loads(data[last_start:])
            except ValueError:
                handle.truncate(start + last_start)

    def append(self, key: tuple, result, seconds: float | None = None) -> None:
        """Durably append one completed shard (opens the store if needed).

        ``seconds`` (the shard's recorded compute wall-clock) feeds a
        resumed run's progress lines and the summary's ETA; results
        never depend on it.
        """
        if self._handle is None:
            self.open()
        self._write_record(self.format.record(key, result, seconds))

    def append_quarantine(self, key: tuple) -> None:
        """Durably record that a run set this shard aside.

        The marker never shadows data: :meth:`load` ignores it (so a
        resume recomputes the shard) and the toolbox prunes it once a
        completed record with the same key lands.
        """
        if self._handle is None:
            self.open()
        self._write_record({"kind": "quarantine", **self.format.key_fields(key)})

    def _write_record(self, record: dict) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ShardStore":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_atomically(destination: str | os.PathLike, chunks: Iterable[str]) -> int:
    """Durably replace ``destination`` with ``chunks``; return how many.

    The chunks go to a temporary sibling that is flushed and fsynced
    before it is renamed over the destination, so after a crash the
    destination holds the old contents or the new, never a torn mix or
    an empty file — the rewrite counterpart of :meth:`ShardStore.append`,
    which fsyncs every record.
    """
    destination = Path(destination)
    temporary = destination.with_name(destination.name + ".tmp")
    count = 0
    with open(temporary, "w", encoding="utf-8") as handle:
        for chunk in chunks:
            handle.write(chunk)
            count += 1
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, destination)
    return count
