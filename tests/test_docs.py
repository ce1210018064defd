"""Documentation checks: links resolve and every mentioned CLI flag is real.

Keeps README.md and docs/ honest as the CLI evolves: a renamed or
removed flag, a moved file, or a deleted anchor document fails here
(and in the CI docs job) instead of rotting silently.
"""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments.monitor import build_status_parser
from repro.experiments.service import build_jobs_parser, build_serve_parser
from repro.experiments.storetools import build_store_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "docs" / "architecture.md",
    ROOT / "docs" / "distributed.md",
    ROOT / "docs" / "fleet.md",
    ROOT / "docs" / "operations.md",
    ROOT / "docs" / "service.md",
]

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _real_flags() -> set[str]:
    flags = set()
    for parser in (
        build_parser(),
        build_store_parser(),
        build_status_parser(),
        build_serve_parser(),
        build_jobs_parser(),
    ):
        for action in parser._actions:
            flags.update(s for s in action.option_strings if s.startswith("--"))
    return flags


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_doc_exists(doc):
    assert doc.exists(), f"{doc} is referenced by the docs suite but missing"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    """Every non-HTTP markdown link must point at a real file/directory."""
    broken = []
    for target in LINK.findall(doc.read_text()):
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        resolved = (doc.parent / target.split("#")[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken relative links {broken}"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_every_mentioned_cli_flag_is_real(doc):
    """Flags in repro command lines and inline code must exist on a parser."""
    real = _real_flags()
    unknown = []
    text = doc.read_text()
    # Fenced code blocks: check lines that invoke the repro CLI.
    for block in re.findall(r"```(?:bash|console|sh)?\n(.*?)```", text, re.DOTALL):
        for line in block.splitlines():
            if "repro" not in line:
                continue
            unknown.extend(f for f in FLAG.findall(line) if f not in real)
    # Inline code spans that are exactly one flag (optionally with value).
    for span in re.findall(r"`([^`]+)`", text):
        match = re.fullmatch(r"(--[a-z][a-z0-9-]*)(?:[= ][^`]*)?", span)
        if match and match.group(1) not in unknown and match.group(1) not in real:
            unknown.append(match.group(1))
    assert not unknown, f"{doc.name}: flags not found on any parser: {sorted(set(unknown))}"


def test_readme_scales_match_cli():
    """The README's documented scale presets are exactly the CLI's."""
    from repro.cli import SCALES

    readme = (ROOT / "README.md").read_text()
    documented = re.search(r"--scale \{([a-z,]+)\}", readme)
    assert documented, "README must document --scale {unit,bench,full,paper}"
    assert set(documented.group(1).split(",")) == set(SCALES)


def test_readme_exhibit_commands_are_real():
    """Every `python -m repro <command>` in the README must parse."""
    from repro.cli import COMMANDS

    readme = (ROOT / "README.md").read_text()
    known = set(COMMANDS) | {"all", "worker", "store", "status", "serve", "jobs"}
    for command in re.findall(r"python -m repro ([a-z0-9-]+)", readme):
        assert command in known, f"README mentions unknown command {command!r}"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_doc_commands_are_real(doc):
    """Every `python -m repro <command>` in every doc must parse."""
    from repro.cli import COMMANDS

    known = set(COMMANDS) | {"all", "worker", "store", "status", "serve", "jobs"}
    for command in re.findall(r"python -m repro ([a-z0-9-]+)", doc.read_text()):
        assert command in known, f"{doc.name} mentions unknown command {command!r}"


def test_operations_runbook_is_cross_linked():
    """The monitoring runbook must be reachable from the entry docs,
    and link back to the docs it builds on."""
    readme = (ROOT / "README.md").read_text()
    distributed = (ROOT / "docs" / "distributed.md").read_text()
    operations = (ROOT / "docs" / "operations.md").read_text()
    assert "docs/operations.md" in readme
    assert "operations.md" in distributed
    assert "distributed.md" in operations
    assert "architecture.md" in operations


def test_operations_covers_the_control_plane_surfaces():
    """The runbook must document every control-plane surface by name."""
    operations = (ROOT / "docs" / "operations.md").read_text()
    for surface in (
        "--status-port",
        "python -m repro status",
        "--progress",
        "--continue-past-quarantine",
        "store summary",
        "merge",
    ):
        assert surface in operations, f"operations.md must document {surface}"


def test_service_runbook_is_cross_linked():
    """The daemon runbook must be reachable from the entry docs, and
    link back to the runbooks it builds on."""
    readme = (ROOT / "README.md").read_text()
    operations = (ROOT / "docs" / "operations.md").read_text()
    service = (ROOT / "docs" / "service.md").read_text()
    assert "docs/service.md" in readme
    assert "service.md" in operations
    assert "distributed.md" in service
    assert "operations.md" in service


def test_service_runbook_covers_the_api_surfaces():
    """service.md must document every API surface and drill by name."""
    service = (ROOT / "docs" / "service.md").read_text()
    for surface in (
        "python -m repro serve",
        "python -m repro jobs",
        "--state-dir",
        "--max-concurrent",
        "POST /jobs",
        "X-Auth-Token",
        "repro-status-v2",
        "healed",
        "kill -9",
        "round-robin",
    ):
        assert surface in service, f"service.md must document {surface}"


def test_fleet_doc_is_cross_linked():
    """The fleet doc must be reachable from the entry docs and link back."""
    readme = (ROOT / "README.md").read_text()
    architecture = (ROOT / "docs" / "architecture.md").read_text()
    fleet_doc = (ROOT / "docs" / "fleet.md").read_text()
    assert "docs/fleet.md" in readme
    assert "fleet.md" in architecture
    assert "distributed.md" in fleet_doc
    assert "operations.md" in fleet_doc


def test_fleet_doc_covers_the_model_and_sharding():
    """fleet.md must document the model, the report, and the slicing."""
    fleet_doc = (ROOT / "docs" / "fleet.md").read_text()
    for surface in (
        "FaultMixModel",
        "FIELD_DDR4",
        "variability_sigma",
        "chip-indexed",
        "slice_words",
        "repro-fleet-v1",
        "--resume",
        "--status-port",
        "python -m repro fleet",
    ):
        assert surface in fleet_doc, f"fleet.md must document {surface}"
