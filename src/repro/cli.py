"""Command-line interface: regenerate any paper exhibit from a terminal.

Usage::

    python -m repro fig6 --scale unit
    python -m repro fig10 --seed 7
    python -m repro all --scale unit
    python -m repro fig6 --scale full --jobs 4 --timings
    python -m repro fig6 --scale paper --backend socket://0.0.0.0:7071 \\
        --jobs 0 --workers-expected 8 --resume fig6.shards.jsonl \\
        --status-port 7072 --continue-past-quarantine --progress
    python -m repro fig10 --scale paper --resume fig10.shards.jsonl
    python -m repro worker --connect HOST:7071
    python -m repro status HOST:7072
    python -m repro store fig6.shards.jsonl summary

Each exhibit subcommand prints the exhibit's text rendition (the same
output the benchmark harness saves under ``benchmarks/results/``).

Most simulated exhibits are views of one campaign, as the paper draws
every §7.2-7.3 figure from one simulated population (§7.1.2): fig6,
fig7, fig8, fig9 and headline render the preset sweep, fig10 and
headline the case study, and fleet the fleet simulation
(:data:`CAMPAIGNS`).  An invocation resolves one execution backend, runs
each campaign its exhibits read exactly once, and only then prints, so
``all`` prints the concatenation of the single-exhibit runs.
ext-patterns and ext-codelength run grids of their own on that backend;
the closed-form exhibits need no backend at all.

Execution knobs (every choice is bit-identical to a serial run):

* ``--jobs N`` fans the Monte-Carlo work out over ``N`` worker processes
  (``0`` = one per CPU).  It applies to every sweep-based exhibit
  (fig6/7/8/9, ext-patterns, ext-codelength, headline) and to the
  sharded fig10 case study, and is ignored by the closed-form ones.
* ``--backend`` picks where shards execute: ``serial`` (in-process),
  ``process`` (local worker pool, the default for ``--jobs > 1``),
  ``socket`` (loopback socket server spawning ``--jobs`` local worker
  processes), or ``socket://HOST:PORT`` (socket server that also
  accepts remote workers started on other machines with
  ``python -m repro worker --connect HOST:PORT``; ``--jobs 0`` spawns
  no local workers and waits entirely for remote ones).
* ``--resume PATH`` streams each completed work unit to a JSONL shard
  store and, on restart, skips everything already persisted there — an
  interrupted paper-scale run continues where it stopped.  One rule
  names the stores: an invocation that runs one campaign (fig6/7/8/9,
  fig10 or fleet) stores it at ``PATH``; one that runs several
  (headline, ``all``) keeps ``PATH`` for the sweep cells and gives the
  case-study shards ``PATH.fig10`` and the fleet shards ``PATH.fleet``.
  Exhibits that run no campaign ignore it.
* ``--shared-cache`` precomputes the sweep's cache artifacts (word
  contexts with ground truths, aliasing tables) once in the parent
  and publishes them in a shared-memory block that local pool
  workers map zero-copy instead of re-deriving (fig6/7/8/9 and
  headline; socket workers keep their own warm-up).
* ``--timings`` appends the engine's per-cell wall-clock table for the
  exhibits that expose a sweep result (fig6/7/8/9 and headline).
* ``--progress`` prints a periodic grid-coverage/ETA line to stderr as
  cells complete (fig6/7/8/9, fig10, headline; every backend) — stdout
  stays exactly the exhibit rendition.

Socket-fleet hardening (``--backend socket[://HOST:PORT]`` only; see
``docs/distributed.md`` for the campaign runbook and
``docs/operations.md`` for the monitoring one):

* ``--auth-token SECRET`` requires every worker to present the same
  shared secret when joining (workers pass ``--auth-token`` too, or set
  ``REPRO_AUTH_TOKEN``; the server reads the variable as its default as
  well, and hands the secret to self-spawned workers through it).  An
  empty secret, from the flag or the variable, is refused here and by
  ``worker``, ``serve`` and ``jobs`` alike.
* ``--workers-expected N`` holds all task dispatch until ``N`` workers
  have joined, so a paper-scale campaign cannot start against a
  half-booted fleet.
* ``--heartbeat-timeout SECONDS`` requeues a chunk whose worker has
  been silent this long (workers heartbeat at a quarter of it;
  ``0`` disables the deadline and waits forever).
* ``--status-port PORT`` serves a live JSON status snapshot of the
  running map at ``GET /status`` (fleet, heartbeat ages, queue depth,
  chunk progress, retries, quarantines); ``python -m repro status
  HOST:PORT`` renders it, and so does ``curl``.
* ``--continue-past-quarantine`` sets a chunk that exhausts its retry
  budget aside instead of aborting the campaign: the rest of the grid
  completes, an end-of-map auto-retry pass re-runs each quarantined
  chunk one shard at a time (healing the shards that were merely
  collateral of a poison chunk-mate), and the shard keys still poison
  after that are printed (and recorded in the ``--resume`` store) for
  a targeted re-run.  A run that quarantined anything exits with
  status 3 so scripts cannot mistake the partial exhibit for success.
* ``--max-buffered-chunks N`` pauses dispatch while N completed chunks
  sit unconsumed (backpressure for a slow consumer, e.g. a stalled
  ``--resume`` disk).

The ``worker`` subcommand turns the process into a socket-backend
worker: it connects to a running ``--backend socket://...`` server and
executes shard chunks.  An invocation runs one socket map per campaign
and per extra grid (headline two, ext-patterns three, ``all`` eight),
so after a server drains the worker keeps retrying the address for
``--linger`` seconds (default 10, with jittered exponential backoff
between attempts) and joins the next map before exiting.
``--max-chunks N`` makes the worker elastic: it executes at most N
chunks, then sends a clean ``leave`` goodbye and exits (no retry-budget
charge server-side); SIGTERM drains the same way.

The ``store`` subcommand is the shard-store toolbox
(:mod:`repro.experiments.storetools`): ``python -m repro store PATH
{summary,compact,merge}`` summarizes, dedupes, or merges the JSONL
files ``--resume`` leaves behind, streaming record by record;
``summary`` also reports the store's grid coverage (cells done/total,
ETA, grid dimensions) and any quarantined shards awaiting a re-run.

The ``status`` subcommand (:mod:`repro.experiments.monitor`) reads one
live snapshot from a campaign's ``--status-port`` or a ``repro serve``
daemon's HTTP port: ``python -m repro status HOST:PORT`` (``--json``
for the raw snapshot).

A refused input (a corrupt or mismatched ``--resume`` store, an unknown
``--backend``, a malformed ``--connect`` address) ends in one
``repro <command>: <reason>`` line on stderr and exit status 1, never a
traceback; exhibits are refused before their first section, so stdout
stays empty.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import replace
from typing import Callable

from repro.experiments import (
    ext_code_length,
    ext_dec,
    ext_heterogeneous,
    ext_interleaving,
    ext_patterns,
    ext_rank,
    ext_scrubbing,
    fig2,
    fig4,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fleet,
    headline,
    table2,
)
from repro.experiments.backends import (
    AUTH_TOKEN_ENV,
    WorkerRejectedError,
    resolve_auth_token,
    resolve_backend,
    run_worker,
)
from repro.experiments.config import (
    BENCH,
    FULL,
    PAPER,
    UNIT,
    CaseStudyConfig,
    FleetConfig,
    SweepConfig,
)
from repro.experiments.monitor import quarantine_report
from repro.experiments.reporting import timing_table
from repro.experiments.runner import run_sweep

__all__ = ["main", "build_parser", "EXIT_INCOMPLETE_GRID", "IncompleteGridError"]

#: Exit status of a run that completed but quarantined shards — the
#: rendition is missing cells, so scripts must not treat it as success
#: (distinct from 1, the generic usage/IO failure).
EXIT_INCOMPLETE_GRID = 3


class IncompleteGridError(Exception):
    """An exhibit ran under --continue-past-quarantine and skipped shards.

    Carries the operator-facing report (and any best-effort rendition)
    as its message; :func:`main` prints it and exits
    :data:`EXIT_INCOMPLETE_GRID` so pipelines notice the grid is
    incomplete instead of publishing a partial exhibit as success.
    """

SCALES: dict[str, SweepConfig] = {"unit": UNIT, "bench": BENCH, "full": FULL, "paper": PAPER}

#: Case-study scales matching the sweep presets.
CASE_SCALES: dict[str, CaseStudyConfig] = {
    "unit": CaseStudyConfig(
        num_codes=2, words_per_stratum=3, num_rounds=64, probabilities=(0.5, 0.75), max_at_risk=4
    ),
    "bench": CaseStudyConfig(num_codes=3, words_per_stratum=4, num_rounds=128, max_at_risk=5),
    "full": CaseStudyConfig(num_codes=6, words_per_stratum=10, num_rounds=128),
    "paper": CaseStudyConfig(num_codes=12, words_per_stratum=20, num_rounds=128),
}


#: Fleet-simulation scales: population sizes chosen so unit stays in
#: test-suite seconds while paper exercises a >= 10k-chip field study.
FLEET_SCALES: dict[str, FleetConfig] = {
    "unit": FleetConfig(
        num_chips=48, k=16, num_codes=2, num_rounds=16, rows=8, words_per_row=2,
        chips_per_shard=8, slice_words=4,
    ),
    "bench": FleetConfig(num_chips=400, num_rounds=32),
    "full": FleetConfig(num_chips=4000),
    "paper": FleetConfig(num_chips=20000),
}

#: The campaigns exhibits render from: name -> (scale presets, driver).
#: A driver takes a config plus the ``jobs``/``backend``/``resume``/
#: ``progress``/``shared_cache`` keywords and looks its function up when
#: called.  The CLI runs each campaign its exhibits read once per
#: invocation; ``repro serve`` runs one per job, whose ``kind`` is a
#: name here (:mod:`repro.experiments.scheduler`).
CAMPAIGNS: dict[str, tuple[dict, Callable]] = {
    "sweep": (SCALES, lambda config, **options: run_sweep(config, **options)),
    # The case study publishes no shared cache.
    "fig10": (
        CASE_SCALES,
        lambda config, shared_cache=False, **options: fig10.run(config, **options),
    ),
    "fleet": (FLEET_SCALES, lambda config, **options: fleet.run(config, **options)),
}


def _campaign_config(name: str, args: argparse.Namespace):
    """Campaign ``name``'s ``--scale`` preset at ``--seed`` (fleet: and its size flags)."""
    overrides: dict = {"seed": args.seed}
    if name == "fleet":
        sizes = {"num_chips": args.chips, "slice_words": args.slice_words}
        overrides.update((field, value) for field, value in sizes.items() if value is not None)
    return replace(CAMPAIGNS[name][0][args.scale], **overrides)


def _resume_path(name: str, campaigns: list[str], path: str | None) -> str | None:
    """The one resume rule: a lone campaign stores at ``PATH``.

    An invocation that runs several keeps ``PATH`` for the sweep and
    gives the others, whose records are different families, the
    suffixed siblings ``PATH.fig10`` and ``PATH.fleet``.
    """
    if path is None or len(campaigns) == 1 or name == "sweep":
        return path
    return f"{path}.{name}"


def _execution_backend(args: argparse.Namespace):
    """The ``backend=`` value runners forward: a spec string or an instance.

    The campaign-hardening flags that are set become socket options, and
    a spec with options resolves to a configured
    :class:`~repro.experiments.backends.SocketBackend` here; otherwise
    the raw spec (or ``None``) passes through for
    :func:`~repro.experiments.backends.resolve_backend`.  :func:`~repro.experiments.backends.resolve_backend`
    refuses the options for any other backend — silently ignoring
    ``--auth-token`` would run an open fleet — and that refusal exits
    naming the flags.  The ambient ``REPRO_AUTH_TOKEN`` variable only
    applies to a socket spec: exporting it for a campaign must not break
    ordinary serial runs in the same shell.
    """
    spec = args.backend
    # Match resolve_backend's normalization, or a capitalized spec would
    # miss the ambient token here yet still resolve to a socket server.
    socket_spec = spec is not None and str(spec).strip().lower().startswith("socket")
    options: dict = {}
    if socket_spec or args.auth_token is not None:
        try:
            token = resolve_auth_token(args.auth_token)
        except ValueError as error:
            raise SystemExit(str(error)) from None
        if token is not None:
            options["auth_token"] = token
    if args.workers_expected:
        options["workers_expected"] = args.workers_expected
    if args.heartbeat_timeout is not None:
        # 0 disables the deadline entirely (wait forever on every peer).
        options["heartbeat_timeout"] = args.heartbeat_timeout or None
    if args.status_port is not None:
        options["status_port"] = args.status_port
    if args.continue_past_quarantine:
        options["continue_past_quarantine"] = True
    if args.max_buffered_chunks is not None:
        options["max_buffered_chunks"] = args.max_buffered_chunks
    if not options:
        return spec
    try:
        return resolve_backend(spec, args.jobs, **options)
    except ValueError:
        if socket_spec:
            raise  # a bad option value, reported by main()
        flags = "/".join("--" + option.replace("_", "-") for option in options)
        raise SystemExit(
            f"{flags} harden the socket fleet and require "
            "--backend socket or socket://HOST:PORT"
        ) from None


def _run_fig2(args: argparse.Namespace) -> str:
    return fig2.render(fig2.run())


def _run_fig4(args: argparse.Namespace) -> str:
    scale = {"unit": (3, 6), "bench": (6, 12), "full": (12, 25)}[args.scale]
    config = fig4.Fig4Config(num_codes=scale[0], words_per_code=scale[1], seed=args.seed)
    return fig4.render(fig4.run(config))


def _seeded(module) -> Callable:
    """A closed-form exhibit: its module's result at ``--seed``, rendered."""
    return lambda args: module.render(module.run(seed=args.seed))


def _own_grids(module) -> Callable:
    """An exhibit whose module runs grids of its own on the invocation's backend."""
    return lambda args, backend: module.render(module.run(jobs=args.jobs, backend=backend))


def _sweep_view(module) -> Callable:
    def view(sweep) -> str:
        if sweep.quarantined:
            # The exhibit reductions index the full grid; an incomplete
            # one cannot render faithfully.  Name what is missing and
            # how to fill it — the targeted re-run renders everything.
            raise IncompleteGridError(
                quarantine_report(sweep.quarantined, unit="sweep cell")
                + "\n(exhibit rendition skipped: the grid is incomplete until "
                "the quarantined cells are recomputed)"
            )
        return module.render(module.from_sweep(sweep))

    return view


def _partial_view(module, unit: str, caveat: str) -> Callable:
    def view(result) -> str:
        text = module.render(result)
        if result.quarantined:
            # The rendition covers what did complete; show it, but exit
            # incomplete so scripts don't publish it as the full exhibit.
            raise IncompleteGridError(
                f"{text}\n\n{quarantine_report(result.quarantined, unit=unit)}\n({caveat})"
            )
        return text

    return view


def _headline_view(sweep, case) -> str:
    if sweep.quarantined or case.quarantined:
        quarantined = list(sweep.quarantined) + list(case.quarantined)
        raise IncompleteGridError(
            quarantine_report(quarantined, unit="shard")
            + "\n(headline speedups skipped: they compare full grids)"
        )
    return headline.render(
        active=headline.active_speedups(sweep),
        case_study=headline.case_study_speedups(case),
    )


COMMANDS: dict[str, tuple[str, Callable[..., str]]] = {
    "fig2": ("Fig 2: wasted storage vs repair granularity", _run_fig2),
    "table2": ("Table 2: at-risk bit amplification", _seeded(table2)),
    "fig4": ("Fig 4: post-correction error probabilities", _run_fig4),
    "fig6": ("Fig 6: direct-error coverage", _sweep_view(fig6)),
    "fig7": ("Fig 7: bootstrapping rounds", _sweep_view(fig7)),
    "fig8": ("Fig 8: missed indirect-risk bits", _sweep_view(fig8)),
    "fig9": ("Fig 9: secondary-ECC capability", _sweep_view(fig9)),
    "fig10": (
        "Fig 10: data-retention case study",
        _partial_view(fig10, "case shard", "the panels above average only the completed words"),
    ),
    "fleet": (
        "Fleet-scale field simulation and repair economics",
        _partial_view(fleet, "fleet shard", "the report above excludes the incomplete chips"),
    ),
    "headline": ("Headline speedup numbers", _headline_view),
    "ext-patterns": ("Ablation: data patterns", _own_grids(ext_patterns)),
    "ext-dec": ("Extension: DEC BCH on-die ECC", _seeded(ext_dec)),
    "ext-codelength": ("Extension: (136,128) geometry", _own_grids(ext_code_length)),
    "ext-heterogeneous": ("Extension: normal per-bit probabilities", _seeded(ext_heterogeneous)),
    "ext-interleaving": ("Extension: secondary-ECC word layouts", _seeded(ext_interleaving)),
    "ext-scrubbing": ("Extension: scrubbing identification latency", _seeded(ext_scrubbing)),
    "ext-rank": ("Extension: rank-layout escape rates", _seeded(ext_rank)),
}

#: What each exhibit's callable takes, in order: ``args``, the
#: invocation's ``backend`` (the exhibits that run grids of their own),
#: or a campaign's result by name (the views).  An exhibit not listed is
#: closed-form and takes ``args`` alone.
INPUTS: dict[str, tuple[str, ...]] = {
    **dict.fromkeys(("fig6", "fig7", "fig8", "fig9"), ("sweep",)),
    "fig10": ("fig10",),
    "fleet": ("fleet",),
    "headline": ("sweep", "fig10"),
    "ext-patterns": ("args", "backend"),
    "ext-codelength": ("args", "backend"),
}


def _jobs_type(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"jobs must be an integer, got {value!r}") from None
    if jobs < 0:
        raise argparse.ArgumentTypeError("jobs must be >= 0 (0 = one per CPU)")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate exhibits of the HARP (MICRO 2021) reproduction.",
    )
    parser.add_argument(
        "command",
        choices=[*COMMANDS, "all", "worker", *TOOLS],
        help="exhibit to regenerate ('all' runs every one; 'worker' joins "
        "a socket-backend server instead of rendering an exhibit; 'store' "
        "is the shard-store toolbox — see python -m repro store --help; "
        "'status' reads a live --status-port or daemon snapshot — see "
        "python -m repro status --help; 'serve' runs the campaign daemon "
        "and 'jobs' is its HTTP client — see python -m repro serve --help "
        "and docs/service.md)",
    )
    parser.add_argument(
        "--scale",
        choices=list(SCALES),
        default="unit",
        help="Monte-Carlo scale preset (default: unit)",
    )
    parser.add_argument("--seed", type=int, default=2021, help="experiment seed")
    parser.add_argument(
        "--chips",
        type=int,
        default=None,
        metavar="N",
        help="fleet only: override the scale preset's population size "
        "(chips drawn from the fault-mix model; ignored elsewhere)",
    )
    parser.add_argument(
        "--slice-words",
        type=int,
        default=None,
        metavar="W",
        help="fleet only: sub-cell shard granularity — a chip profiling "
        "more than W words is split into W-word cell slices that many "
        "workers share (0 disables sub-cell sharding; ignored elsewhere)",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_type,
        default=None,
        help="sweep worker processes (0 = one per CPU; unset runs serial, "
        "except --backend process/socket default to one worker per CPU; "
        "results are bit-identical for every setting)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="append the sweep engine's per-cell wall-clock table "
        "(fig6/7/8/9 and headline; ignored elsewhere)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a periodic grid-coverage/ETA line to stderr as cells "
        "complete (fig6/7/8/9, fig10, fleet, headline; every backend; "
        "ignored elsewhere)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="execution backend: serial, process, socket, or "
        "socket://HOST:PORT (default: serial for --jobs 1, else a "
        "process pool; all backends are bit-identical)",
    )
    parser.add_argument(
        "--shared-cache",
        action="store_true",
        help="precompute the sweep's cache artifacts once and publish "
        "them in a shared-memory block that pool workers map zero-copy "
        "instead of re-deriving (fig6/7/8/9, fleet, and headline; "
        "bit-identical either way; local process pools only — the socket "
        "backend's workers warm their own caches as before)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="stream completed work units to a JSONL shard store and "
        "skip everything already persisted there (fig6/7/8/9, fig10, "
        "fleet, headline and all; a run of several campaigns keeps PATH "
        "for the sweep and stores the case study at PATH.fig10 and the "
        "fleet at PATH.fleet; ignored elsewhere)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="SECRET",
        help="shared secret for the socket fleet: servers require it from "
        "every joining worker, workers present it when connecting "
        f"(falls back to the {AUTH_TOKEN_ENV} environment variable "
        "whenever a socket backend is used; an empty secret is refused)",
    )
    parser.add_argument(
        "--workers-expected",
        type=int,
        default=0,
        metavar="N",
        help="socket backend only: hold every task until N workers have "
        "joined, so a campaign cannot start against a half-booted fleet "
        "(default: dispatch to the first worker)",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="socket backend only: requeue a chunk whose worker has been "
        "silent this long; workers heartbeat at a quarter of it "
        "(default: 60; 0 disables the deadline)",
    )
    parser.add_argument(
        "--status-port",
        type=int,
        default=None,
        metavar="PORT",
        help="socket backend only: serve a live JSON status snapshot of "
        "the running map (fleet, heartbeat ages, queue depth, chunk "
        "progress, retries, quarantines) at GET /status on this TCP port; "
        "read it with python -m repro status HOST:PORT or curl",
    )
    parser.add_argument(
        "--continue-past-quarantine",
        action="store_true",
        help="socket backend only: when a chunk exhausts its retry budget, "
        "set it aside and finish the rest of the grid instead of aborting; "
        "the quarantined shard keys are reported at the end (and recorded "
        "in the --resume store) for a targeted re-run",
    )
    parser.add_argument(
        "--max-buffered-chunks",
        type=int,
        default=None,
        metavar="N",
        help="socket backend only: pause dispatching new chunks while N "
        "completed chunks sit unconsumed by a slow consumer "
        "(backpressure; default: unbounded)",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="socket-backend server to join (worker subcommand only)",
    )
    parser.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N chunks, then leave the fleet cleanly "
        "with a drain goodbye (worker subcommand only; elastic "
        "scale-down with no retry-budget charge)",
    )
    parser.add_argument(
        "--linger",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="after a server drains, keep retrying the address this long "
        "so the worker joins the invocation's next map (worker subcommand "
        "only; 0 exits after one session)",
    )
    parser.add_argument(
        # Set by WorkServer on the workers it spawns itself: an idle
        # spawned worker (siblings drained the queue first) is normal
        # and must not alarm-exit like an operator-started one.
        "--spawned",
        action="store_true",
        help=argparse.SUPPRESS,
    )
    return parser


#: Subcommands with a grammar of their own (``store PATH ACTION``,
#: ``status HOST:PORT``, the daemon's flag set, ``jobs URL ACTION``):
#: :func:`main` hands them the rest of argv before the exhibit parser
#: sees it, importing each only when it runs.
TOOLS: dict[str, tuple[str, str]] = {
    "store": ("repro.experiments.storetools", "store_main"),
    "status": ("repro.experiments.monitor", "status_main"),
    "serve": ("repro.experiments.service", "serve_main"),
    "jobs": ("repro.experiments.service", "jobs_main"),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in TOOLS:
        module, entry_point = TOOLS[argv[0]]
        return getattr(importlib.import_module(module), entry_point)(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command in TOOLS:
        # Reachable only when options precede the subcommand.
        raise SystemExit(
            f"{args.command} takes no exhibit options; invoke it as "
            f"`python -m repro {args.command} ...` with '{args.command}' first "
            f"(see python -m repro {args.command} --help)"
        )
    try:
        return _run_command(args)
    except ValueError as error:
        # A refused input (a corrupt --resume store, an unknown backend)
        # is one line, as in `repro store`, never a traceback.
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 1


def _run_command(args: argparse.Namespace) -> int:
    """Run the worker, one exhibit, or ``all``; return the exit status."""
    if args.command == "worker":
        if not args.connect:
            raise SystemExit("worker requires --connect HOST:PORT")
        try:
            executed, reached = run_worker(
                args.connect,
                linger=args.linger,
                auth_token=resolve_auth_token(args.auth_token),
                max_chunks=args.max_chunks,
            )
        except WorkerRejectedError as error:
            # A wrong secret will be wrong on every retry; fail loudly
            # so a misconfigured fleet is one glance at stderr, not a
            # silently idle campaign.
            print(
                f"worker rejected by server at {args.connect}: {error}",
                file=sys.stderr,
            )
            return 1
        if executed == 0 and not reached and not args.spawned:
            # Never reaching a server is almost always a typo'd address
            # — make that visible instead of exiting 0 silently across a
            # whole fleet.  A clean session with an already-empty queue
            # (e.g. joining a mostly-resumed sweep late) is healthy and
            # exits 0.
            print(
                f"worker never reached a server at {args.connect}",
                file=sys.stderr,
            )
            return 1
        return 0
    names = list(COMMANDS) if args.command == "all" else [args.command]
    inputs = {name: INPUTS.get(name, ("args",)) for name in names}
    read = {source for sources in inputs.values() for source in sources}
    values: dict = {"args": args}
    if read != {"args"}:
        # One backend for the whole invocation, and every refusal (a bad
        # spec or flag, a corrupt or mismatched store) before anything
        # prints.
        values["backend"] = resolve_backend(_execution_backend(args), args.jobs)
    campaigns = [name for name in CAMPAIGNS if name in read]
    for name in campaigns:
        _, run = CAMPAIGNS[name]
        values[name] = run(
            _campaign_config(name, args),
            jobs=args.jobs,
            backend=values["backend"],
            resume=_resume_path(name, campaigns, args.resume),
            progress=args.progress,
            shared_cache=args.shared_cache,
        )
    incomplete = False
    for name in names:
        description, runner = COMMANDS[name]
        print(f"== {description} ==")
        try:
            text = runner(*(values[source] for source in inputs[name]))
        except IncompleteGridError as error:
            # Report and keep going: later exhibits of `all` may be
            # whole, but the run must still exit incomplete.
            print(error)
            incomplete = True
        else:
            if args.timings and "sweep" in inputs[name]:
                text += "\n\n" + timing_table(values["sweep"])
            print(text)
        print()
    return EXIT_INCOMPLETE_GRID if incomplete else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
