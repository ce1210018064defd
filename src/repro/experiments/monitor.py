"""Campaign control plane: live status snapshots, grid coverage, and ETA.

A paper-scale campaign runs for hours across machines (PR 3/4 made it
distributed and resumable); this module makes it *observable*.  It is
deliberately read-only with respect to results — nothing here touches
the result path, so every piece stays bit-identical whether or not a
campaign is being watched.

Three instruments, one per operational question:

* "Is the fleet alive?" — a :class:`~repro.experiments.backends.WorkServer`
  constructed with ``status_port=`` (CLI ``--status-port``) serves its
  live snapshot at ``GET /status``, and the ``repro serve`` daemon
  serves the same snapshot with its job counts on its HTTP port;
  :func:`read_status` / ``python -m repro status HOST:PORT`` fetch
  either, and :func:`render_status` renders it.
* "How far along is the grid?" — :class:`ProgressReporter` prints
  periodic stderr progress/ETA lines from inside every driver's
  campaign loop (:func:`~repro.experiments.campaign.run_campaign`, CLI
  ``--progress``), and :func:`grid_shape` / :func:`estimate_eta` are
  the same coverage math the ``repro store PATH summary`` toolbox uses
  on a store at rest.
* "What did the campaign skip?" — :func:`quarantine_report` renders
  the shard keys a ``--continue-past-quarantine`` run set aside, with
  the targeted re-run recipe.

Status snapshot (``repro-status-v2``)
=====================================

A ``--status-port`` and the daemon's HTTP port both answer ``GET
/status`` with this JSON object (:class:`~repro.experiments.service.StatusHandler`);
any HTTP client reads it (``python -m repro status``, ``curl``):

.. code-block:: json

    {"format": "repro-status-v2",
     "elapsed": 12.3,
     "wire": "v1",
     "fleet": {"size": 2, "joined_total": 3, "left_total": 1, "expected": 2},
     "workers": [{"pid": 4242, "heartbeat_age": 0.4, "chunk": 7},
                 {"pid": 4243, "heartbeat_age": 1.2, "chunk": null}],
     "chunks": {"total": 9, "done": 5, "pending": 2, "deferred": 0,
                "in_flight": 2},
     "retries": 1,
     "quarantined": [3],
     "healed": 0,
     "history": [{"t": 2.0, "done": 1}, {"t": 7.1, "done": 5}]}

Field semantics:

========================  ==============================================
field                     meaning
========================  ==============================================
``elapsed``               seconds since the work server started
``wire``                  frame codec on the work port (always ``v1``)
``fleet.size``            workers connected *right now*
``fleet.joined_total``    workers that ever joined (deaths included) —
                          elastic fleets grow this past ``size``
``fleet.left_total``      workers that drained out cleanly (``leave``
                          goodbye: ``--max-chunks``, SIGTERM) — churn,
                          not deaths
``fleet.expected``        the ``--workers-expected`` start barrier
``workers[].pid``         worker's reported process id
``workers[].heartbeat_age`` seconds since the worker's last frame
``workers[].chunk``       chunk index in flight, ``null`` when idle
``chunks.total``          chunks in this map (grows when the auto-retry
                          pass splits a poison chunk into singles)
``chunks.done``           chunks completed (quarantined ones included)
``chunks.pending``        queue depth: chunks waiting for a worker
``chunks.deferred``       single-shard retry chunks parked for the
                          end-of-map auto-retry pass
``chunks.in_flight``      chunks currently executing somewhere
``retries``               requeues charged against retry budgets so far
``quarantined``           chunk indices set aside past their budget
``healed``                shards recovered by the auto-retry pass
``campaign``              the driver's workload fields: ``workload``
                          (``sweep`` / ``fig10`` / ``fleet``) and
                          ``shards``, plus the fleet's ``chips`` /
                          ``cell_slices``; absent on the daemon's
                          shared fleet
``history``               ring buffer of ``{"t", "done"}`` throughput
                          samples (``t`` seconds since serving started,
                          ``done`` chunks completed by then) — at most
                          one sample per second, oldest evicted past
                          :data:`HISTORY_SAMPLES`; lets clients compute
                          *trends*, not just the instantaneous state
``maps``                  ``{"active", "opened"}`` concurrent-map
                          counters (a ``--backend socket`` server hosts
                          one map)
``jobs``                  the daemon's job count per state (``queued``,
                          ``running``, ``done``, ``failed``,
                          ``cancelled``); absent on a ``--status-port``
========================  ==============================================

Optional fields are additive: clients must tolerate their absence
(``repro status`` renders a snapshot without churn/healed lines rather
than failing).  :func:`read_status` accepts only ``repro-status-v2``,
and only with every field it renders holding the type above.

See ``docs/operations.md`` for the monitoring runbook.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import deque
from collections.abc import Mapping
from typing import Callable, Iterable, Sequence

__all__ = [
    "STATUS_FORMAT",
    "HISTORY_SAMPLES",
    "ThroughputHistory",
    "read_status",
    "render_status",
    "build_status_parser",
    "status_main",
    "ProgressReporter",
    "grid_shape",
    "format_grid",
    "estimate_eta",
    "format_eta",
    "quarantine_report",
]

#: Format tag of the JSON status snapshot.
STATUS_FORMAT = "repro-status-v2"

#: Ring-buffer depth of the throughput history (one sample per second
#: at most, so this is roughly the last minute of the campaign).
HISTORY_SAMPLES = 60

_INT = (int, "an integer")
_NUMBER = ((int, float), "a number")
#: The JSON type of every snapshot field :func:`render_status` reads: a
#: ``(types, name)`` leaf (booleans never count as numbers, and a number
#: must be finite and fit a float), a nested object's fields, or
#: ``[schema]`` for an array of them.  Absent fields pass (the schema is
#: additive); only a worker's ``pid`` and ``chunk`` may be null.
_STATUS_SCHEMA = {
    "elapsed": _NUMBER,
    "wire": (str, "a string"),
    "campaign": (dict, "an object"),
    "fleet": {"size": _INT, "joined_total": _INT, "left_total": _INT, "expected": _INT},
    "workers": [
        {
            "pid": ((int, type(None)), "an integer or null"),
            "heartbeat_age": _NUMBER,
            "chunk": ((int, type(None)), "an integer or null"),
        }
    ],
    "chunks": {"total": _INT, "done": _INT, "pending": _INT, "deferred": _INT, "in_flight": _INT},
    "jobs": {state: _INT for state in ("queued", "running", "done", "failed", "cancelled")},
    "maps": {"active": _INT, "opened": _INT},
    "history": [{"t": _NUMBER, "done": _INT}],
    "retries": _INT,
    "quarantined": [_INT],
    "healed": _INT,
}


class ThroughputHistory:
    """Ring buffer of ``(t, done)`` throughput samples for status v2.

    The snapshot producer (:class:`~repro.experiments.backends.WorkServer`)
    calls :meth:`record` on every chunk completion; the buffer keeps at
    most one sample per ``min_interval`` seconds (coalescing bursts into
    the newest sample) and evicts past ``maxlen``, so a week-long
    campaign costs the same memory as a minute-long one.  :meth:`sample`
    returns the JSON-safe list the ``history`` snapshot field carries.

    Thread safety is the caller's: producers already hold their own
    condition lock around completion bookkeeping and snapshot assembly.
    """

    def __init__(self, maxlen: int = HISTORY_SAMPLES, min_interval: float = 1.0) -> None:
        if maxlen <= 0:
            raise ValueError("maxlen must be >= 1")
        self._samples: deque[tuple[float, int]] = deque(maxlen=maxlen)
        self._min_interval = max(0.0, float(min_interval))

    def record(self, elapsed: float, done: int) -> None:
        """Record ``done`` chunks completed ``elapsed`` seconds in."""
        elapsed = float(elapsed)
        done = int(done)
        if self._samples and elapsed - self._samples[-1][0] < self._min_interval:
            # Burst within the sampling interval: fold into the newest
            # sample so the buffer spans wall-clock, not completions.
            self._samples[-1] = (self._samples[-1][0], done)
            return
        self._samples.append((elapsed, done))

    def sample(self) -> list[dict]:
        """JSON-safe rendition for the snapshot's ``history`` field."""
        return [{"t": round(t, 3), "done": done} for t, done in self._samples]

    def __len__(self) -> int:
        return len(self._samples)


# ----------------------------------------------------------------------
# Grid coverage and ETA math (shared by --progress and `store summary`)
# ----------------------------------------------------------------------


def grid_shape(config) -> tuple[list[tuple[str, int]], int] | None:
    """Dimensions and total cell count of a campaign config's grid.

    Accepts either a config object (:class:`~repro.experiments.config.SweepConfig`
    / :class:`~repro.experiments.config.CaseStudyConfig`) or the plain
    dict a store header records, so the same logic serves live drivers
    and stores at rest.  Returns ``([(label, count), ...], total)`` —
    sweep grids are error counts x probabilities x profilers, case-study
    grids are probabilities x codes x at-risk strata — or ``None`` for
    an unrecognized config shape.
    """
    if config is None:
        return None
    if isinstance(config, Mapping):
        get = config.get
    else:
        def get(key, default=None):
            return getattr(config, key, default)

    if get("error_counts") is not None:
        dims = [
            ("error counts", len(get("error_counts"))),
            ("probabilities", len(get("probabilities") or ())),
            ("profilers", len(get("profilers") or ())),
        ]
    elif get("max_at_risk") is not None:
        dims = [
            ("probabilities", len(get("probabilities") or ())),
            ("codes", int(get("num_codes") or 0)),
            ("strata", max(0, int(get("max_at_risk")) - 1)),
        ]
    elif get("num_chips") is not None:
        # Fleet campaigns: the grid is the population itself — shard
        # records subdivide it (ranges, cell slices), but coverage is
        # counted in whole chips.
        dims = [("chips", int(get("num_chips")))]
    else:
        return None
    total = 1
    for _, count in dims:
        total *= count
    return dims, total


def format_grid(dims: Sequence[tuple[str, int]], total: int) -> str:
    """Human rendition of :func:`grid_shape`'s dimensions.

    ``"4 error counts × 4 probabilities × 5 profilers = 80 cells"`` —
    two stores whose grids disagree are diagnosed from this line alone.
    """
    product = " × ".join(f"{count} {label}" for label, count in dims)
    return f"{product} = {total} cells"


def estimate_eta(done: int, total: int, seconds: float) -> float | None:
    """Remaining seconds, extrapolated from ``seconds`` spent on ``done``.

    The rate is whatever ``seconds`` measures: feed it recorded per-cell
    compute seconds (as ``store summary`` does) and the estimate is
    *single-worker compute* remaining — divide by the fleet size for
    wall-clock; feed it wall-clock elapsed (as :class:`ProgressReporter`
    does) and the estimate is wall-clock directly, fleet included.
    Returns ``0.0`` when the grid is complete and ``None`` when there is
    no rate to extrapolate from (nothing done, or no seconds recorded).
    """
    if total <= done:
        return 0.0
    if done <= 0 or seconds <= 0:
        return None
    return (total - done) * (seconds / done)


def format_eta(seconds: float | None) -> str:
    """Coarse human rendition of an ETA (``"unknown"`` for ``None``)."""
    if seconds is None:
        return "unknown"
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    minutes, rest = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{rest:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressReporter:
    """Periodic stderr progress/ETA lines for a running campaign grid.

    The campaign loop (:func:`~repro.experiments.campaign.run_campaign`)
    calls :meth:`start` with the resumed head start (cells and their
    recorded seconds) and :meth:`completed` per finished cell; the
    reporter prints at most one line per ``interval`` seconds (plus the
    first and last).  The ETA extrapolates this run's *wall-clock*
    completion rate, so a parallel fleet's speedup is priced in — while
    recorded cell-seconds (also shown) stay comparable with what
    ``repro store PATH summary`` reports for the store at rest.

    Lines go to ``stream`` (default: ``sys.stderr``, resolved at write
    time) so stdout stays exactly the exhibit rendition.
    """

    def __init__(
        self,
        total: int,
        unit: str = "cells",
        interval: float = 10.0,
        stream=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if total < 0:
            raise ValueError("total must be >= 0")
        self.total = int(total)
        self.unit = unit
        self.interval = max(0.0, float(interval))
        self._stream = stream
        self._clock = clock
        self.done = 0
        self.cell_seconds = 0.0
        self._fresh = 0  # completed this run (excludes resumed head start)
        self._started = clock()
        self._last_report: float | None = None

    def start(self, done: int = 0, cell_seconds: float = 0.0) -> "ProgressReporter":
        """Record the resumed head start and print the opening line."""
        self.done = int(done)
        self.cell_seconds = float(cell_seconds)
        self._started = self._clock()
        self._report()
        return self

    def completed(self, seconds: float | None = None) -> None:
        """Count one finished cell (``seconds`` = its recorded compute)."""
        self.done += 1
        self._fresh += 1
        if seconds:
            self.cell_seconds += float(seconds)
        now = self._clock()
        if (
            self.done >= self.total
            or self._last_report is None
            or now - self._last_report >= self.interval
        ):
            self._report()

    def finish(self, quarantined: int = 0) -> None:
        """Print the closing line when :meth:`completed` could not.

        A fully-computed grid already reported its last cell, so this is
        a no-op there — but a continue-past-quarantine run never reaches
        ``done == total``, and without a closing line an operator
        tailing stderr sees the log stop at a stale interval-gated
        count.  ``quarantined`` annotates how many shards were set
        aside.
        """
        if self.done >= self.total and not quarantined:
            return
        suffix = f" · {quarantined} shard(s) quarantined" if quarantined else ""
        self._report(suffix=suffix)

    def eta_seconds(self) -> float | None:
        """Wall-clock ETA from this run's completion rate (fleet-aware)."""
        if self.total <= self.done:
            return 0.0
        if self._fresh <= 0:
            return None
        return estimate_eta(self._fresh, self._fresh + (self.total - self.done),
                            self._clock() - self._started)

    def _report(self, suffix: str = "") -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        share = (100.0 * self.done / self.total) if self.total else 100.0
        line = f"progress {self.done}/{self.total} {self.unit} ({share:.1f}%)"
        if self.cell_seconds:
            line += f" · {self.cell_seconds:.1f} cell-seconds recorded"
        if self.done < self.total and not suffix:
            eta = self.eta_seconds()
            if eta is not None:
                line += f" · eta ~{format_eta(eta)}"
        print(line + suffix, file=stream, flush=True)
        self._last_report = self._clock()


def quarantine_report(keys: Iterable, unit: str = "shard") -> str:
    """Operator-facing rendition of quarantined shard keys.

    Printed by the CLI after a ``--continue-past-quarantine`` run and
    mirrored by ``repro store PATH summary``; the keys name exactly the
    cells a targeted re-run (same command, same ``--resume`` path) will
    recompute.
    """
    keys = list(keys)
    lines = [
        f"QUARANTINED {len(keys)} {unit}(s) — the rest of the grid completed; "
        "cells streamed to a --resume store stay durable:"
    ]
    for key in keys:
        lines.append(f"  {tuple(key)}")
    lines.append(
        "Re-run the same command with the same --resume PATH to retry just "
        "these (runbook: docs/operations.md)."
    )
    return "\n".join(lines)


def read_status(address: str | tuple[str, int], timeout: float = 5.0) -> dict:
    """``GET /status`` from a ``--status-port`` or a daemon's HTTP port.

    ``address`` is ``HOST:PORT`` or a ``(host, port)`` tuple.  Raises
    ``OSError`` when nothing answers and ``ValueError`` on anything but
    a :data:`STATUS_FORMAT` snapshot whose fields :func:`render_status`
    reads all hold their schema types (the error names the first field
    that does not).  The *work* port, the classic mistake, drops the
    request at once, so that fails fast too.
    """
    from repro.experiments.backends import parse_address
    from repro.experiments.service import _http_json

    host, port = parse_address(address) if isinstance(address, str) else address
    url = f"http://{host}:{port}/status"
    code, snapshot = _http_json("GET", url, timeout=timeout)
    found = snapshot.get("format") if isinstance(snapshot, dict) else None
    if code != 200 or found != STATUS_FORMAT:
        raise ValueError(
            f"{url} answered {code} with an unknown status format {found!r} "
            f"(expected {STATUS_FORMAT})"
        )
    try:
        _check_schema(snapshot, _STATUS_SCHEMA, "")
    except ValueError as error:
        raise ValueError(f"{url} answered a malformed status snapshot: {error}") from None
    return snapshot


def _check_schema(value, schema, path: str) -> None:
    """Raise ``ValueError`` naming the first field of ``value`` off ``schema``."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ValueError(f"field {path!r} is not an object")
        for key, field in schema.items():
            if key in value:
                _check_schema(value[key], field, f"{path}.{key}" if path else key)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ValueError(f"field {path!r} is not an array")
        for index, item in enumerate(value):
            _check_schema(item, schema[0], f"{path}[{index}]")
    elif isinstance(value, bool) or not isinstance(value, schema[0]):
        raise ValueError(f"field {path!r} is not {schema[1]}")
    elif isinstance(value, (int, float)) and not _fits_float(value):
        raise ValueError(f"field {path!r} is not a finite number")


def _fits_float(number: int | float) -> bool:
    """Whether ``number`` is finite and within the float range."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an int past the float range
        return False


def render_status(snapshot: dict) -> str:
    """Operator-facing text rendition of a status snapshot."""
    lines = [
        f"status   {snapshot.get('format', '?')} · "
        f"{float(snapshot.get('elapsed', 0.0)):.1f}s elapsed"
    ]
    if snapshot.get("wire"):
        lines[0] += f" · wire {snapshot['wire']}"
    campaign = snapshot.get("campaign") or {}
    if campaign:
        # Driver-supplied workload fields (e.g. the fleet runner's chip
        # and cell-slice counts); render whatever the driver reported.
        detail = " · ".join(f"{key} {value}" for key, value in campaign.items())
        lines.append(f"campaign {detail}")
    fleet = snapshot.get("fleet", {})
    expected = fleet.get("expected") or 0
    barrier = f", {expected} expected" if expected else ""
    churn = ""
    if fleet.get("left_total"):
        churn = f", {fleet['left_total']} drained out"
    lines.append(
        f"fleet    {fleet.get('size', 0)} worker(s) connected "
        f"({fleet.get('joined_total', 0)} joined in total{churn}{barrier})"
    )
    for worker in snapshot.get("workers", []):
        chunk = worker.get("chunk")
        doing = f"chunk {chunk} in flight" if chunk is not None else "idle"
        lines.append(
            f"worker   pid {worker.get('pid', '?')} · {doing} · "
            f"last frame {float(worker.get('heartbeat_age', 0.0)):.1f}s ago"
        )
    chunks = snapshot.get("chunks", {})
    chunk_line = (
        f"chunks   {chunks.get('done', 0)}/{chunks.get('total', 0)} done · "
        f"{chunks.get('pending', 0)} queued · {chunks.get('in_flight', 0)} in flight"
    )
    if chunks.get("deferred"):
        chunk_line += f" · {chunks['deferred']} deferred for auto-retry"
    lines.append(chunk_line)
    if snapshot.get("jobs"):
        counts = " · ".join(f"{count} {state}" for state, count in snapshot["jobs"].items())
        lines.append(f"jobs     {counts}")
    maps = snapshot.get("maps") or {}
    if maps.get("opened"):
        lines.append(
            f"maps     {maps.get('active', 0)} campaign(s) active · "
            f"{maps['opened']} opened since start"
        )
    history = snapshot.get("history") or []
    if len(history) >= 2:
        # Trend over the ring buffer's window: how fast is the fleet
        # actually moving *lately*, as opposed to the lifetime average
        # the chunks line implies.
        span = float(history[-1].get("t", 0.0)) - float(history[0].get("t", 0.0))
        delta = int(history[-1].get("done", 0)) - int(history[0].get("done", 0))
        trend = f"history  +{delta} chunk(s) in the last {format_eta(span)}"
        if span > 0:
            trend += f" (~{60.0 * delta / span:.1f}/min)"
        lines.append(trend + f" · {len(history)} sample(s)")
    if snapshot.get("healed"):
        lines.append(
            f"healed   {snapshot['healed']} shard(s) recovered by the "
            "end-of-map auto-retry pass"
        )
    if snapshot.get("retries"):
        lines.append(f"retries  {snapshot['retries']} chunk requeue(s) so far")
    quarantined = snapshot.get("quarantined") or []
    if quarantined:
        listed = ", ".join(str(index) for index in quarantined)
        lines.append(
            f"quarantine chunk(s) {listed} set aside past their retry budget "
            "(--continue-past-quarantine)"
        )
    return "\n".join(lines)


def build_status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro status",
        description="Read one live status snapshot (GET /status) from a "
        "campaign's --status-port or a repro serve daemon, and render it for "
        "operators.",
    )
    parser.add_argument(
        "address", help="HOST:PORT of a --status-port or of a daemon's HTTP port"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="connection/read timeout (default: 5)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON snapshot instead of the rendered view "
        "(for scripts and dashboards)",
    )
    return parser


def status_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro status HOST:PORT``."""
    args = build_status_parser().parse_args(argv)
    try:
        snapshot = read_status(args.address, timeout=args.timeout)
        # Well-typed fields can still overflow in the rendition's
        # arithmetic (a history spanning -1e308..1e308 seconds).
        text = json.dumps(snapshot) if args.json else render_status(snapshot)
    except (OSError, ValueError, ArithmeticError) as error:
        print(f"repro status: {error}", file=sys.stderr)
        return 1
    print(text)
    return 0
