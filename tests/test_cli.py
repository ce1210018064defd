"""Tests for the command-line interface."""

import collections
import hashlib
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import COMMANDS, SCALES, _execution_backend, build_parser, main
from repro.experiments import ext_code_length, ext_patterns, fig10, fleet, service
from repro.experiments.backends import AUTH_TOKEN_ENV, WorkServer
from repro.experiments.runner import SweepResult, run_sweep
from serviceharness import record_spawns


class TestParser:
    def test_known_commands_parse(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name])
            assert args.command == name
            assert args.scale == "unit"

    def test_all_command(self):
        args = build_parser().parse_args(["all", "--scale", "unit", "--seed", "3"])
        assert args.command == "all"
        assert args.seed == 3

    def test_jobs_and_timings_flags(self):
        args = build_parser().parse_args(["fig6", "--jobs", "2", "--timings"])
        assert args.jobs == 2
        assert args.timings is True
        defaults = build_parser().parse_args(["fig6"])
        # Unset jobs lets the backend decide: serial by default, one
        # worker per CPU for the explicitly parallel backends.
        assert defaults.jobs is None
        assert defaults.timings is False

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--scale", "galactic"])


class TestExecution:
    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        output = capsys.readouterr().out
        assert "wasted storage" in output

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_fig6_unit_scale(self, capsys):
        assert main(["fig6", "--scale", "unit"]) == 0
        output = capsys.readouterr().out
        assert "Fig 6 panel" in output
        assert "HARP-U" in output

    def test_fig6_parallel_matches_serial(self, capsys):
        assert main(["fig6", "--scale", "unit"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig6", "--scale", "unit", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_fig10_parallel_matches_serial(self, capsys):
        assert main(["fig10", "--scale", "unit"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig10", "--scale", "unit", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_timings_flag_appends_table(self, capsys):
        assert main(["fig6", "--scale", "unit", "--timings"]) == 0
        assert "Sweep timings" in capsys.readouterr().out

    def test_seed_changes_nothing_for_closed_form(self, capsys):
        main(["fig2", "--seed", "1"])
        first = capsys.readouterr().out
        main(["fig2", "--seed", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_deterministic_given_seed(self, capsys):
        main(["table2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["table2", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_ext_interleaving(self, capsys):
        assert main(["ext-interleaving"]) == 0
        assert "Layout extension" in capsys.readouterr().out

    def test_ext_dec(self, capsys):
        assert main(["ext-dec"]) == 0
        assert "DEC extension" in capsys.readouterr().out


class TestBackendAndResumeFlags:
    def test_backend_and_resume_parse(self):
        args = build_parser().parse_args(
            ["fig6", "--backend", "socket://0.0.0.0:7071", "--resume", "cells.jsonl"]
        )
        assert args.backend == "socket://0.0.0.0:7071"
        assert args.resume == "cells.jsonl"
        defaults = build_parser().parse_args(["fig6"])
        assert defaults.backend is None
        assert defaults.resume is None

    def test_worker_subcommand_parses(self):
        args = build_parser().parse_args(["worker", "--connect", "10.0.0.2:7071"])
        assert args.command == "worker"
        assert args.connect == "10.0.0.2:7071"
        assert args.linger == 10.0
        args = build_parser().parse_args(
            ["worker", "--connect", ":7071", "--linger", "0"]
        )
        assert args.linger == 0.0

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            main(["worker"])

    def test_paper_scale_parses(self):
        args = build_parser().parse_args(["fig6", "--scale", "paper"])
        assert args.scale == "paper"

    def test_unknown_backend_rejected(self, capsys):
        assert main(["fig6", "--scale", "unit", "--backend", "carrier-pigeon"]) == 1
        assert capsys.readouterr().err.startswith(
            "repro fig6: unknown backend 'carrier-pigeon'"
        )

    def test_fig6_socket_backend_matches_serial(self, capsys):
        """End-to-end: 2 spawned worker processes, bit-identical exhibit."""
        assert main(["fig6", "--scale", "unit", "--backend", "serial"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig6", "--scale", "unit", "--backend", "socket", "--jobs", "2"]) == 0
        socket_run = capsys.readouterr().out
        assert serial == socket_run

    def test_fig6_resume_roundtrip(self, capsys, tmp_path):
        """A resumed rerun reads the store and renders identically."""
        store = tmp_path / "fig6.jsonl"
        assert main(["fig6", "--scale", "unit"]) == 0
        fresh = capsys.readouterr().out
        assert main(["fig6", "--scale", "unit", "--resume", str(store)]) == 0
        first = capsys.readouterr().out
        size_after_first = store.stat().st_size
        assert main(["fig6", "--scale", "unit", "--resume", str(store)]) == 0
        second = capsys.readouterr().out
        assert fresh == first == second
        assert store.stat().st_size == size_after_first  # all cells reused

    def test_all_with_resume_gives_fig10_its_own_store(self, capsys, tmp_path):
        """`all --resume PATH` shares the sweep store across the sweep
        exhibits but must route fig10's different record family to the
        PATH.fig10 sibling instead of crashing on the sweep header."""
        store = tmp_path / "all.jsonl"
        assert main(["all", "--scale", "unit"]) == 0
        fresh = capsys.readouterr().out
        assert main(["all", "--scale", "unit", "--resume", str(store)]) == 0
        resumed = capsys.readouterr().out
        assert resumed == fresh
        assert store.exists()  # sweep cells
        assert (tmp_path / "all.jsonl.fig10").exists()  # case-study shards
        # And a rerun resumes everything without recomputation errors.
        assert main(["all", "--scale", "unit", "--resume", str(store)]) == 0
        assert capsys.readouterr().out == fresh

    def test_fig10_resume_roundtrip(self, capsys, tmp_path):
        """The case study persists and resumes through --resume too."""
        store = tmp_path / "fig10.jsonl"
        assert main(["fig10", "--scale", "unit"]) == 0
        fresh = capsys.readouterr().out
        assert main(["fig10", "--scale", "unit", "--resume", str(store)]) == 0
        first = capsys.readouterr().out
        size_after_first = store.stat().st_size
        assert main(["fig10", "--scale", "unit", "--resume", str(store)]) == 0
        second = capsys.readouterr().out
        assert fresh == first == second
        assert store.stat().st_size == size_after_first  # all shards reused


class TestHardeningFlags:
    """Socket-fleet hardening knobs: parsing and misuse errors."""

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fig6",
                "--backend",
                "socket://0.0.0.0:7071",
                "--auth-token",
                "s3cret",
                "--workers-expected",
                "8",
                "--heartbeat-timeout",
                "30",
            ]
        )
        assert args.auth_token == "s3cret"
        assert args.workers_expected == 8
        assert args.heartbeat_timeout == 30.0

    def test_auth_token_falls_back_to_environment_for_socket(self, monkeypatch):
        """The env var arms a socket backend without any explicit flag."""
        from repro.experiments.backends import SocketBackend

        monkeypatch.setenv("REPRO_AUTH_TOKEN", "from-env")
        args = build_parser().parse_args(["fig6", "--backend", "socket", "--jobs", "2"])
        backend = _execution_backend(args)
        assert isinstance(backend, SocketBackend)
        assert backend._fleet.auth_token == "from-env"

    def test_spec_classification_matches_resolver_normalization(self, monkeypatch):
        """A capitalized socket spec must still be recognized as socket,
        or the ambient env token would silently not be applied."""
        from repro.experiments.backends import SocketBackend

        monkeypatch.setenv("REPRO_AUTH_TOKEN", "from-env")
        args = build_parser().parse_args(
            ["fig6", "--backend", " Socket://127.0.0.1:7071 ", "--jobs", "0"]
        )
        backend = _execution_backend(args)
        assert isinstance(backend, SocketBackend)
        assert backend._fleet.auth_token == "from-env"

    def test_ambient_env_token_does_not_break_serial_runs(self, monkeypatch, capsys):
        """Exporting REPRO_AUTH_TOKEN for a campaign must leave ordinary
        non-socket runs in the same shell untouched."""
        monkeypatch.setenv("REPRO_AUTH_TOKEN", "campaign-secret")
        assert main(["fig2"]) == 0
        assert "wasted storage" in capsys.readouterr().out

    def test_empty_auth_token_refused(self, monkeypatch, capsys):
        """An empty secret is a failed shell substitution, never a
        silently-open fleet."""
        monkeypatch.delenv("REPRO_AUTH_TOKEN", raising=False)
        with pytest.raises(SystemExit, match="empty"):
            main(["fig6", "--scale", "unit", "--backend", "socket", "--auth-token", ""])
        monkeypatch.setenv("REPRO_AUTH_TOKEN", "")
        with pytest.raises(SystemExit, match="empty"):
            main(["fig6", "--scale", "unit", "--backend", "socket", "--jobs", "2"])
        capsys.readouterr()

    def test_hardening_without_socket_backend_rejected(self, capsys):
        with pytest.raises(SystemExit, match="socket"):
            main(["fig6", "--scale", "unit", "--auth-token", "x"])
        assert capsys.readouterr().out == ""
        with pytest.raises(SystemExit, match="socket"):
            main(
                ["fig6", "--scale", "unit", "--backend", "process", "--workers-expected", "2"]
            )
        assert capsys.readouterr().out == ""  # refused before the first section

    def test_worker_flags_parse(self):
        args = build_parser().parse_args(
            ["worker", "--connect", ":7071", "--auth-token", "s3cret"]
        )
        assert args.auth_token == "s3cret"

    def test_fig6_hardened_socket_matches_serial(self, capsys, monkeypatch):
        """End-to-end: auth + barrier + heartbeats on, bit-identical."""
        monkeypatch.delenv("REPRO_AUTH_TOKEN", raising=False)
        assert main(["fig6", "--scale", "unit", "--backend", "serial"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                [
                    "fig6",
                    "--scale",
                    "unit",
                    "--backend",
                    "socket",
                    "--jobs",
                    "2",
                    "--auth-token",
                    "ci-secret",
                    "--workers-expected",
                    "2",
                    "--heartbeat-timeout",
                    "30",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == serial


class TestStoreDispatch:
    def test_store_command_listed(self):
        args = build_parser().parse_args(["store"])
        assert args.command == "store"

    def test_store_requires_arguments(self):
        with pytest.raises(SystemExit):
            main(["store"])

    def test_store_after_options_gets_usage_error_not_crash(self, capsys):
        """'store' anywhere but first is a clean usage error, never a
        KeyError from the exhibit loop."""
        with pytest.raises(SystemExit, match="store"):
            main(["--scale", "unit", "store"])
        capsys.readouterr()


@pytest.fixture(scope="module")
def unit_sweep_store(tmp_path_factory):
    """The store ``repro fig6 --scale unit --resume PATH`` writes."""
    path = tmp_path_factory.mktemp("cli") / "fig6.shards.jsonl"
    run_sweep(replace(SCALES["unit"], seed=2021), resume=str(path))
    return path


#: Exhibit inputs refused with a ValueError: argv (``STORE`` is a copy of
#: the unit fig6 store, ``CORRUPT`` one with a corrupt middle line), and
#: the start and a part of the one stderr line.
REFUSALS = {
    "corrupt-resume-store": (
        ["fig6", "--resume", "CORRUPT"], "repro fig6: ", "corrupt shard record on line 3"
    ),
    "unknown-backend": (["fig6", "--backend", "bogus"], "repro fig6: unknown backend", ""),
    "resume-onto-another-seed": (
        ["fig6", "--seed", "7", "--resume", "STORE"], "repro fig6: ", "different sweep config"
    ),
    "fig10-resume-onto-sweep-store": (
        ["fig10", "--resume", "STORE"], "repro fig10: ", "is a sweep store"
    ),
    "all-onto-corrupt-store": (
        ["all", "--resume", "CORRUPT"], "repro all: ", "corrupt shard record on line 3"
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_exhibit_refusal_is_one_line(case, unit_sweep_store, tmp_path, capsys):
    """A refused input exits 1 with one ``repro <command>:`` line and
    prints nothing on stdout: the backend and the campaigns are resolved
    before the first section."""
    argv, prefix, detail = REFUSALS[case]
    corrupt = unit_sweep_store.read_text().splitlines(keepends=True)
    corrupt[2] = "{not json\n"
    (tmp_path / "corrupt.jsonl").write_text("".join(corrupt))
    stores = {
        "STORE": shutil.copy(unit_sweep_store, tmp_path / "copy.jsonl"),
        "CORRUPT": tmp_path / "corrupt.jsonl",
    }
    argv = [str(stores.get(arg, arg)) for arg in argv]
    assert main([*argv, "--scale", "unit"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(prefix) and detail in err, err
    assert err.count("\n") == 1 and "Traceback" not in err, err


# ----------------------------------------------------------------------
# One campaign, many views
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def pinned_exhibits():
    """``exhibit-NAME`` -> SHA-256 of that exhibit's unit-scale text at seed 2021."""
    return json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sections(text: str) -> dict[str, str]:
    """Each exhibit's section of an ``all`` run, from its title through its blank line."""
    starts: list[int] = []
    for description, _ in COMMANDS.values():
        starts.append(text.index(f"== {description} ==\n", starts[-1] if starts else 0))
    return {
        name: text[start:stop]
        for name, start, stop in zip(COMMANDS, starts, starts[1:] + [len(text)])
    }


def test_all_runs_each_campaign_once(monkeypatch, capsys):
    """One `all` runs the preset sweep, the case study and the fleet once
    each, however many exhibits view them; ext-patterns and ext-codelength
    still run their own five sweeps."""
    calls = collections.Counter()
    for owner, name, label in (
        (cli, "run_sweep", "sweep"),
        (fig10, "run", "fig10"),
        (fleet, "run", "fleet"),
        (ext_patterns, "run_sweep", "ext"),
        (ext_code_length, "run_sweep", "ext"),
    ):
        def counted(*args, _run=getattr(owner, name), _label=label, **kwargs):
            calls[_label] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    assert main(["all", "--scale", "unit"]) == 0
    capsys.readouterr()
    assert calls == {"sweep": 1, "fig10": 1, "fleet": 1, "ext": 5}


def test_all_over_socket_starts_one_server(monkeypatch, capsys, pinned_exhibits):
    """One `all --backend socket --jobs 2` starts one WorkServer for its
    eight maps, spawns its two workers once and reaps them before main
    returns, and prints the serial `all`: every section its pinned digest."""
    starts, start = [], WorkServer.start

    def counted_start(server):
        starts.append(server)
        return start(server)

    monkeypatch.setattr(WorkServer, "start", counted_start)
    spawned = record_spawns(monkeypatch)
    assert main(["all", "--scale", "unit", "--backend", "socket", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert (len(starts), len(spawned)) == (1, 2)
    assert [proc.poll() for proc in spawned] == [0, 0]
    sections = _sections(out)
    assert "".join(sections.values()) == out
    for name, text in sections.items():
        assert _digest(text) == pinned_exhibits[f"exhibit-{name}"], name


@pytest.mark.parametrize("command", ["all", "fig7", "headline"])
def test_timings_table_prints_once(command, capsys):
    """fig6-9 and headline render one sweep, so --timings appends its
    table once, under the first of them."""
    assert main([command, "--scale", "unit", "--timings"]) == 0
    assert capsys.readouterr().out.count("Sweep timings") == 1


@pytest.mark.parametrize("name", list(COMMANDS))
def test_exhibit_alone_prints_its_pinned_section(name, pinned_exhibits, capsys):
    """An exhibit run alone prints exactly its pinned section of `all`, so
    `all` prints the concatenation of the single-exhibit runs."""
    assert main([name, "--scale", "unit", "--seed", "2021"]) == 0
    assert _digest(capsys.readouterr().out) == pinned_exhibits[f"exhibit-{name}"]


def test_all_reports_a_quarantined_sweep_under_each_view(
    monkeypatch, capsys, pinned_exhibits
):
    """A sweep that set a cell aside fails each of its five views with the
    quarantine report and exits 3; the case study and the fleet still
    render whole."""

    def quarantining_run_sweep(config, **kwargs):
        full = run_sweep(config)
        key = next(iter(full.cells))
        cells = {k: v for k, v in full.cells.items() if k != key}
        return SweepResult(
            config=config, cells=cells, timings=full.timings, quarantined=(key,)
        )

    monkeypatch.setattr(cli, "run_sweep", quarantining_run_sweep)
    assert main(["all", "--scale", "unit", "--seed", "2021"]) == cli.EXIT_INCOMPLETE_GRID
    sections = _sections(capsys.readouterr().out)
    for name in ("fig6", "fig7", "fig8", "fig9"):
        assert "QUARANTINED 1 sweep cell(s)" in sections[name]
        assert "rendition skipped" in sections[name]
    assert "QUARANTINED 1 shard(s)" in sections["headline"]
    assert "headline speedups skipped" in sections["headline"]
    for name in ("fig10", "fleet"):
        assert _digest(sections[name]) == pinned_exhibits[f"exhibit-{name}"]


# ----------------------------------------------------------------------
# The fleet secret: one resolver behind every entry point
# ----------------------------------------------------------------------

#: An input every entry point must refuse.
REFUSED = "refused"

#: Input -> (--auth-token value or None, REPRO_AUTH_TOKEN or None, the
#: secret the entry point must use, or REFUSED).
SECRET_INPUTS = {
    "flag-set": ("flag-secret", "env-secret", "flag-secret"),
    "environment-set": (None, "env-secret", "env-secret"),
    "empty-flag": ("", "env-secret", REFUSED),
    "empty-environment": (None, "", REFUSED),
    "neither": (None, None, None),
}


def _exhibit_secret(flags, tmp_path, monkeypatch):
    argv = ["fig6", "--backend", "socket", "--jobs", "2", *flags]
    try:
        backend = _execution_backend(build_parser().parse_args(argv))
    except SystemExit as refusal:  # the interpreter prints it: one line, status 1
        print(refusal.code, file=sys.stderr)
        return 1, None
    return 0, None if isinstance(backend, str) else backend._fleet.auth_token


def _worker_secret(flags, tmp_path, monkeypatch):
    seen = {}

    def run_worker(address, linger, auth_token, max_chunks):
        seen["secret"] = auth_token
        return 1, True

    monkeypatch.setattr(cli, "run_worker", run_worker)
    return main(["worker", "--connect", "127.0.0.1:9", *flags]), seen.get("secret")


class _Started(Exception):
    pass


def _serve_secret(flags, tmp_path, monkeypatch):
    seen = {}

    class Daemon:
        def __init__(self, **options):
            seen["secret"] = options["auth_token"]

        def start(self):
            raise _Started

    monkeypatch.setattr(service, "CampaignService", Daemon)
    argv = ["--port", "0", "--workers", "0", "--state-dir", str(tmp_path), *flags]
    try:
        return service.serve_main(argv), None
    except _Started:
        return 0, seen["secret"]


def _jobs_secret(flags, tmp_path, monkeypatch):
    seen = {}

    def http_json(method, url, payload=None, token=None, timeout=10.0):
        seen["secret"] = token
        return 201, {"id": "job"}

    monkeypatch.setattr(service, "_http_json", http_json)
    argv = ["http://127.0.0.1:9", "submit", '{"kind": "sweep"}', *flags]
    return service.jobs_main(argv), seen.get("secret")


#: Entry point -> (driver, refusal exit status, start of the refusal line).
SECRET_ENTRY_POINTS = {
    "exhibit": (_exhibit_secret, 1, "the fleet auth token is empty"),
    "worker": (_worker_secret, 1, "repro worker: the fleet auth token is empty"),
    "serve": (_serve_secret, 2, "repro serve: the fleet auth token is empty"),
    "jobs": (_jobs_secret, 2, "repro jobs: the fleet auth token is empty"),
}


@pytest.mark.parametrize("case", sorted(SECRET_INPUTS))
@pytest.mark.parametrize("entry", sorted(SECRET_ENTRY_POINTS))
def test_every_entry_point_reads_the_secret_one_way(
    entry, case, tmp_path, monkeypatch, capsys
):
    """Flag, else REPRO_AUTH_TOKEN, else none; an empty one is refused."""
    flag, environment, expected = SECRET_INPUTS[case]
    monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
    if environment is not None:
        monkeypatch.setenv(AUTH_TOKEN_ENV, environment)
    driver, refusal_status, refusal_line = SECRET_ENTRY_POINTS[entry]
    flags = [] if flag is None else ["--auth-token", flag]
    code, secret = driver(flags, tmp_path, monkeypatch)
    err = capsys.readouterr().err
    if expected == REFUSED:
        assert code == refusal_status
        assert err.startswith(refusal_line) and err.count("\n") == 1, err
    else:
        assert (code, secret) == (0, expected)
