"""Campaign job scheduler: the state machine behind ``repro serve``.

The service layer (:mod:`repro.experiments.service`) is deliberately
thin — HTTP in, JSON out — and everything stateful lives here: job
specs are validated against the library configs, accepted jobs run the
CLI's campaigns (:data:`repro.cli.CAMPAIGNS`: the preset sweep, the
Fig 10 case study and the fleet, with the CLI's own presets and
drivers) over one shared :class:`~repro.experiments.backends.WorkServer`
fleet, and every job's lifecycle survives a daemon crash.  A job's
``rendition`` is the CLI view of its result (:data:`repro.cli.COMMANDS`),
so it is the text the equivalent command prints.

Job state machine
=================

::

    queued ──────────► running ──────────► done
       │                  │  └───────────► failed
       └──► cancelled ◄───┘  (cancel)

* ``queued`` — accepted, persisted, waiting for a concurrency slot.
* ``running`` — a driver thread is consuming the shared fleet through
  its own :class:`~repro.experiments.backends.SharedFleetBackend`
  facade; chunks interleave round-robin with every other running job.
* ``done`` / ``failed`` — terminal; the result (or the failure reason)
  is persisted next to the job record.
* ``cancelled`` — terminal; a queued job cancels instantly, a running
  job aborts its in-flight map (:class:`~repro.experiments.backends.MapCancelled`)
  and keeps whatever cells its resume store already holds.

Durability and healing
======================

Every job owns three files under ``STATE_DIR/jobs/``:

* ``ID.json`` — the job record (spec, state, timestamps), rewritten
  on every transition;
* ``ID.store.jsonl`` — the job's own resume store (a
  :class:`~repro.experiments.store.ShardStore` in the job kind's
  sweep, Fig 10 or fleet format), streamed while the job runs;
* ``ID.result.json`` — the result payload, written once on completion.

The record and the result go through
:func:`~repro.experiments.store.write_atomically` (fsync, then rename),
so a job the API answered with 201 survives an OS crash or power loss.

On daemon start :meth:`JobScheduler.recover` re-reads the directory:
terminal jobs come back queryable, and ``queued``/``running`` records —
what a SIGKILL leaves behind — are re-enqueued.  A re-enqueued
``running`` job is marked **healed**: when it runs again, its resume
store skips every cell that was durable before the crash, so the
completed result is bit-identical to an uninterrupted run and its
record says the daemon died mid-flight.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.cli import CAMPAIGNS, COMMANDS, INPUTS
from repro.experiments.backends import (
    MapCancelled,
    SharedFleetBackend,
    WorkServer,
)
from repro.experiments.config import FleetConfig, SweepConfig
from repro.experiments.monitor import (
    estimate_eta,
    format_grid,
    grid_shape,
)
from repro.experiments.store import (
    config_from_dict,
    config_to_dict,
    sweep_to_json,
    write_atomically,
)

__all__ = [
    "JOB_STATES",
    "JobSpecError",
    "Job",
    "JobScheduler",
    "parse_job_spec",
    "job_config",
    "job_bit_rounds",
    "MAX_JOB_BIT_ROUNDS",
]

#: Every state a job record may carry, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: The daemon's work budget: the most simulated bit-rounds one job may
#: ask for (:func:`job_bit_rounds`).  Every CLI scale preset fits; the
#: largest, the paper fleet, needs 163,840,000 word-rounds at k = 32,
#: about 5.2e9.  Library and CLI calls are not bounded.
MAX_JOB_BIT_ROUNDS = 10**10


class JobSpecError(ValueError):
    """A submitted job spec failed validation (HTTP 400, with reason)."""


def parse_job_spec(spec) -> dict:
    """Validate and normalize a submitted job spec.

    A spec is a JSON object::

        {"kind": "sweep" | "fig10" | "fleet",
         "scale": "unit" | "bench" | "full" | "paper",   # default unit
         "config": {...field overrides...},              # optional
         "exhibit": "fig6" | "fig7" | "fig8" | "fig9"}   # sweep only

    ``config`` overrides individual fields of the scale preset's
    :class:`~repro.experiments.config.SweepConfig` /
    :class:`~repro.experiments.config.CaseStudyConfig` /
    :class:`~repro.experiments.config.FleetConfig`; unknown fields,
    mistyped or invalid values and unknown profiler or pattern names are
    rejected (:func:`job_config`), and so is a job past the work budget
    (:data:`MAX_JOB_BIT_ROUNDS`).
    Raises :class:`JobSpecError` on any problem — the service maps it
    to a 400 with the reason, never a traceback.
    """
    if not isinstance(spec, dict):
        raise JobSpecError(f"job spec must be a JSON object, got {type(spec).__name__}")
    unknown = set(spec) - {"kind", "scale", "config", "exhibit"}
    if unknown:
        raise JobSpecError(f"unknown job spec field(s): {sorted(unknown)}")
    # A kind is a CLI campaign and a scale one of its presets, so a spec
    # means exactly what the equivalent command line means — the root
    # of the service's bit-identity guarantee.
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in CAMPAIGNS:
        raise JobSpecError(f"kind must be one of {sorted(CAMPAIGNS)}, got {kind!r}")
    presets = CAMPAIGNS[kind][0]
    scale = spec.get("scale", "unit")
    if not isinstance(scale, str) or scale not in presets:
        raise JobSpecError(f"scale must be one of {sorted(presets)}, got {scale!r}")
    overrides = spec.get("config", {})
    if not isinstance(overrides, dict):
        raise JobSpecError("config must be a JSON object of field overrides")
    exhibit = spec.get("exhibit")
    if exhibit is not None:
        if kind != "sweep":
            raise JobSpecError(f"exhibit only applies to sweep jobs, not {kind!r}")
        views = sorted(name for name, reads in INPUTS.items() if reads == ("sweep",))
        if not isinstance(exhibit, str) or exhibit not in views:
            raise JobSpecError(f"exhibit must be one of {views}, got {exhibit!r}")
    normalized = {"kind": kind, "scale": scale, "config": dict(overrides)}
    if exhibit is not None:
        normalized["exhibit"] = exhibit
    # Constructing the dataclass is the full validation.
    bit_rounds = job_bit_rounds(job_config(normalized))
    if bit_rounds > MAX_JOB_BIT_ROUNDS:
        raise JobSpecError(
            f"job needs {bit_rounds:,} simulated bit-rounds (words x rounds x k), "
            f"past the daemon's work budget of {MAX_JOB_BIT_ROUNDS:,}; "
            "run it through the CLI or the library instead"
        )
    return normalized


def job_bit_rounds(config) -> int:
    """Simulated bit-rounds a job config asks for: words x rounds x k.

    A sweep simulates every word of every cell once per profiler, the
    case study every word of every stratum; a fleet's profiled words
    are bounded by all the words of all its chips.
    """
    if isinstance(config, FleetConfig):
        words = config.num_chips * config.rows * config.words_per_row
    elif isinstance(config, SweepConfig):
        words = (
            config.num_codes * config.words_per_code * len(config.error_counts)
            * len(config.probabilities) * len(config.profilers)
        )
    else:  # CaseStudyConfig
        words = (
            config.num_codes * config.words_per_stratum * (config.max_at_risk - 1)
            * len(config.probabilities) * len(config.profilers)
        )
    return words * config.num_rounds * config.k


def job_config(spec: dict):
    """Materialize a normalized spec's config dataclass (or raise).

    The overrides go through the store's JSON-to-config decoder
    (:func:`~repro.experiments.store.config_from_dict`) on top of the
    preset's own encoding, so a job spec is checked exactly like a
    store header, its profiler and pattern names included.
    """
    preset = CAMPAIGNS[spec["kind"]][0][spec.get("scale", "unit")]
    config_class = type(preset)
    try:
        return config_from_dict(
            {**config_to_dict(preset, config_class), **spec.get("config", {})}, config_class
        )
    except ValueError as error:
        known = ", ".join(f.name for f in fields(config_class))
        raise JobSpecError(
            f"invalid {spec['kind']} config: {error} (known fields: {known})"
        ) from None


@dataclass
class Job:
    """One campaign job: durable record plus runtime attachments."""

    id: str
    spec: dict
    state: str = "queued"
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    #: True when this job was re-enqueued by crash recovery: it was
    #: ``running`` when the previous daemon died, and completed by
    #: re-attaching its resume store.
    healed: bool = False
    error: str | None = None
    #: Runtime-only: the job's facade over the shared fleet.
    backend: SharedFleetBackend | None = None
    #: Runtime-only: cancel was requested while the job ran.
    cancel_requested: bool = False
    #: Runtime-only: monotonic clock at the running transition (ETA).
    started_monotonic: float | None = None

    def record(self) -> dict:
        """The durable, JSON-safe job record (no runtime attachments)."""
        return {
            "id": self.id,
            "spec": self.spec,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "healed": self.healed,
            "error": self.error,
        }

    def describe(self) -> dict:
        """The live API view: the record plus coverage/ETA while running."""
        view = self.record()
        view["kind"] = self.spec.get("kind")
        shape = grid_shape(job_config(self.spec))
        if shape is not None:
            view["grid"] = format_grid(*shape)
        backend = self.backend
        if backend is not None and self.state == "running":
            done, total = backend.shards_done, backend.shards_total
            view["coverage"] = {"done": done, "total": total, "unit": "shards"}
            if self.started_monotonic is not None:
                elapsed = time.monotonic() - self.started_monotonic
                view["eta_seconds"] = estimate_eta(done, total, elapsed)
        return view


class JobScheduler:
    """Run submitted jobs over one shared fleet, a few at a time.

    ``max_concurrent`` bounds how many driver threads consume the fleet
    at once — admission control, not parallelism control: the fleet's
    workers are shared either way, and the
    :class:`~repro.experiments.backends.WorkServer` rotation keeps the
    admitted jobs advancing evenly.
    """

    def __init__(
        self,
        server: WorkServer,
        state_dir: str | os.PathLike,
        max_concurrent: int = 4,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.server = server
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.max_concurrent = max_concurrent
        self._jobs: dict[str, Job] = {}
        self._queue: list[str] = []
        self._running = 0
        self._lock = threading.Condition()
        self._closed = threading.Event()
        self._dispatcher: threading.Thread | None = None

    # -- persistence ----------------------------------------------------

    def _record_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _store_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.store.jsonl"

    def _result_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.result.json"

    def _persist(self, job: Job) -> None:
        """Durably rewrite the job record (fsync, rename, never truncate)."""
        write_atomically(
            self._record_path(job.id), [json.dumps(job.record(), indent=2) + "\n"]
        )

    # -- lifecycle ------------------------------------------------------

    def recover(self) -> list[Job]:
        """Re-read the state directory; re-enqueue interrupted jobs.

        Returns the jobs that were healed (were ``running`` when the
        previous daemon died) so the caller can log them.
        """
        healed: list[Job] = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            if path.name.endswith(".result.json") or path.name.endswith(".json.tmp"):
                continue
            try:
                record = json.loads(path.read_text())
                job = Job(
                    id=record["id"],
                    spec=record["spec"],
                    state=record.get("state", "queued"),
                    created=record.get("created", 0.0),
                    started=record.get("started"),
                    finished=record.get("finished"),
                    healed=bool(record.get("healed")),
                    error=record.get("error"),
                )
            except (OSError, ValueError, KeyError, TypeError, RecursionError):
                continue  # a torn record is not worth refusing to start over
            with self._lock:
                self._jobs[job.id] = job
                if job.state in ("queued", "running"):
                    if job.state == "running":
                        # The daemon died mid-job: its resume store holds
                        # every cell that completed before the kill.
                        job.healed = True
                        job.started = None
                        healed.append(job)
                    job.state = "queued"
                    self._persist(job)
                    self._queue.append(job.id)
                    self._lock.notify_all()
        return healed

    def start(self) -> "JobScheduler":
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-scheduler", daemon=True
        )
        self._dispatcher.start()
        return self

    def close(self) -> None:
        """Stop admitting jobs.  Running drivers are abandoned to the
        process teardown — by design: their resume stores make a daemon
        restart heal them, which is cheaper and better tested than a
        graceful in-process drain."""
        self._closed.set()
        with self._lock:
            self._lock.notify_all()
        if self._dispatcher is not None and self._dispatcher.ident is not None:
            self._dispatcher.join(timeout=5)

    # -- API surface ----------------------------------------------------

    def submit(self, spec) -> Job:
        """Validate a spec, persist the job, and enqueue it."""
        normalized = parse_job_spec(spec)
        with self._lock:
            while True:
                job_id = f"job-{secrets.token_hex(4)}"
                if job_id not in self._jobs:
                    break
            job = Job(id=job_id, spec=normalized)
            self._jobs[job_id] = job
            self._persist(job)
            self._queue.append(job_id)
            self._lock.notify_all()
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.created)

    def counts(self) -> dict[str, int]:
        """Jobs per state, for the fleet status snapshot."""
        with self._lock:
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def result(self, job_id: str) -> dict | None:
        path = self._result_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a job; returns the job, or ``None`` when unknown.

        A queued job transitions immediately; a running job gets its
        fleet map aborted and transitions when the driver thread
        unwinds.  Terminal jobs are left untouched (the caller turns
        that into a 409).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == "queued":
                self._queue.remove(job_id)
                job.state = "cancelled"
                job.finished = time.time()
                self._persist(job)
                self._lock.notify_all()
            elif job.state == "running":
                job.cancel_requested = True
                if job.backend is not None:
                    job.backend.cancel()
            return job

    # -- execution ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._closed.is_set():
            with self._lock:
                while not self._closed.is_set() and (
                    not self._queue or self._running >= self.max_concurrent
                ):
                    self._lock.wait(0.2)
                if self._closed.is_set():
                    return
                job = self._jobs[self._queue.pop(0)]
                job.state = "running"
                job.started = time.time()
                job.started_monotonic = time.monotonic()
                job.backend = SharedFleetBackend(self.server)
                if job.cancel_requested:
                    job.backend.cancel()
                self._running += 1
                self._persist(job)
            threading.Thread(
                target=self._run_job,
                args=(job,),
                name=f"repro-{job.id}",
                daemon=True,
            ).start()

    def _run_job(self, job: Job) -> None:
        try:
            payload = self._execute(job)
        except MapCancelled:
            self._finish(job, "cancelled")
        except Exception as error:  # noqa: BLE001 - the job IS the boundary
            if job.cancel_requested:
                # The cancel surfaced as a driver error (e.g. the map
                # died before MapCancelled propagated); the operator
                # asked for cancelled, not failed.
                self._finish(job, "cancelled")
            else:
                self._finish(job, "failed", error=f"{type(error).__name__}: {error}")
        else:
            write_atomically(
                self._result_path(job.id), [json.dumps(payload, indent=2) + "\n"]
            )
            self._finish(job, "done")

    def _finish(self, job: Job, state: str, error: str | None = None) -> None:
        with self._lock:
            job.state = state
            job.error = error
            job.finished = time.time()
            job.backend = None
            self._running -= 1
            self._persist(job)
            self._lock.notify_all()

    def _execute(self, job: Job) -> dict:
        """Run one job's campaign through the CLI's driver; return the payload.

        The driver streams to the job's own resume store, so this is
        exactly the CLI path with ``--resume`` — including after crash
        recovery, where the store's surviving cells are skipped and the
        merged result is bit-identical to an uninterrupted run.  The
        rendition is the CLI view named by the spec's ``exhibit``, or by
        its kind (fig10, fleet); a sweep job without an exhibit has none.
        """
        spec = job.spec
        _, run = CAMPAIGNS[spec["kind"]]
        result = run(job_config(spec), backend=job.backend, resume=str(self._store_path(job.id)))
        payload: dict = {
            "job": job.id,
            "kind": spec["kind"],
            "spec": spec,
            "healed": job.healed,
        }
        view = spec.get("exhibit", spec["kind"])
        if "exhibit" in spec:
            payload["exhibit"] = view
        if view in COMMANDS:
            payload["rendition"] = COMMANDS[view][1](result)
        if spec["kind"] == "sweep":
            payload["sweep"] = json.loads(sweep_to_json(result))
        return payload
