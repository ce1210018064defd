"""Streaming maintenance toolbox for JSONL shard stores: ``repro store``.

Long campaigns leave JSONL stores behind — sweep-cell stores from
``run_sweep(..., resume=PATH)``, case-study stores from
``fig10.run(..., resume=PATH)`` and fleet stores from
``fleet.run(..., resume=PATH)`` — and paper-scale ones grow large:
superseded records accumulate when a cell is recomputed (duplicate keys
are resolved last-wins on load), kills leave torn tail lines, and
multi-machine campaigns produce one store per server.  This module is
the operator's toolbox for those files, exposed as
``python -m repro store PATH {summary,compact,merge}``:

* ``summary`` — one streaming pass: record counts, distinct keys,
  superseded duplicates, torn tail, config, total cell seconds — plus
  the campaign's *grid coverage*: the header config determines the full
  grid (sweep stores: error counts × probabilities × profilers;
  case-study stores: probabilities × codes × strata; fleet stores:
  chips, each done once every slice of its shard group is in), so the
  summary reports cells done / cells total, an ETA extrapolated from the
  recorded per-cell seconds (single-worker compute; divide by the fleet
  size for wall-clock), the derived grid dimensions (so two stores that
  should merge but don't are diagnosed at a glance), and the quarantine
  ledger: ``quarantine`` markers not yet resolved by a completed record
  are listed as awaiting a re-run, while markers a later completed
  record *did* resolve (the backend's end-of-map auto-retry pass, or a
  targeted re-run) are reported as healed — never double-counted
  against grid coverage.  Never
  materializes a :class:`~repro.experiments.runner.SweepResult`, so it
  is safe on stores far larger than memory.
* ``merge`` — fold stores from the same campaign config into one
  canonical file, last-input-wins across duplicate keys, mirroring the
  paper artifact's "aggregate the raw output files afterwards" (§A.7)
  without loading any of them whole.  Only the *winning* record per key
  survives (the last append, exactly what loading would keep), along
  with the quarantine markers no completed record resolved; torn tails
  are dropped.
* ``compact`` — :func:`merge` of one store onto itself (or into
  ``--output``).  Atomic (write-then-rename) and idempotent: compacting
  a compacted store is a byte-identical no-op.

Every operation streams records line by line through
:meth:`~repro.experiments.store.ShardStore.iter_records`: peak memory
holds one record plus the per-key line index, never a full sweep.
Records are keyed and checked by the store's own decoder, driven by
:data:`~repro.experiments.store.STORE_FORMATS` — what ``compact`` keeps
is exactly what ``ShardStore.load`` would return, and a malformed
record fails as ``ValueError`` (``repro store`` exits 1) the way a
resume against it would.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.monitor import estimate_eta, format_eta, format_grid, grid_shape
from repro.experiments.store import (
    HEADER,
    STORE_FORMATS,
    ShardStore,
    write_atomically,
)

__all__ = [
    "StoreSummary",
    "summarize",
    "render_summary",
    "merge",
    "build_store_parser",
    "store_main",
]

@dataclass
class StoreSummary:
    """One streaming pass over a store, without loading full results."""

    path: str
    size_bytes: int
    format: str | None
    config: dict | None
    records: int
    #: Distinct keys per record kind (``cell`` / ``fig10`` / ``fleet``).
    distinct: dict = field(default_factory=dict)
    #: Records superseded by a later append of the same key.
    superseded: int = 0
    #: Sum of per-cell wall-clock seconds recorded by the engine.
    total_seconds: float = 0.0
    #: Monte-Carlo words across intact cell records (sweep stores).
    words: int = 0
    torn_tail: bool = False
    #: Grid dimensions derived from the header config (human rendition),
    #: e.g. ``"4 error counts × 4 probabilities × 5 profilers = 80 cells"``.
    grid: str | None = None
    #: Full grid size derived from the header config.
    cells_total: int | None = None
    #: Remaining single-worker compute seconds, extrapolated from the
    #: recorded per-cell seconds (``None`` when there is no rate yet).
    eta_seconds: float | None = None
    #: Shard keys quarantined by a ``--continue-past-quarantine`` run
    #: and not yet resolved by a completed record of the same key.
    quarantined: list = field(default_factory=list)
    #: Shard keys whose quarantine marker *was* resolved by a later
    #: completed record (the end-of-map auto-retry pass, or a targeted
    #: re-run): reported as healed, never counted against coverage.
    healed: list = field(default_factory=list)
    #: Completed *work units* when records and units differ — fleet
    #: stores count a chip done only once every slice of its shard
    #: group is present (``None`` elsewhere: records are the units).
    units_done: int | None = None

    @property
    def cells_done(self) -> int:
        """Distinct completed work units, regardless of record kind."""
        if self.units_done is not None:
            return self.units_done
        return sum(self.distinct.values())


def summarize(path: str | os.PathLike) -> StoreSummary:
    """Stream one pass over ``path`` and tally its records.

    Raises ``FileNotFoundError`` for a missing file and ``ValueError``
    for mid-file corruption or a non-store JSON file, mirroring what a
    resume against the same path would do.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no shard store at {path}")
    summary = StoreSummary(
        path=str(path),
        size_bytes=path.stat().st_size,
        format=None,
        config=None,
        records=0,
    )
    # Winning (last-appended) seconds/words per key, exactly what
    # loading would count; one streaming pass, O(distinct keys) memory.
    winning: dict[tuple, tuple[float, int]] = {}
    markers: set[tuple] = set()
    for _, key, record in ShardStore(path).iter_records(include_torn=True):
        if record is None:
            summary.torn_tail = True
            continue
        summary.records += 1
        if key == HEADER:
            summary.format, summary.config = record["format"], record.get("config")
            continue
        if key[0] == "quarantine":
            if key in markers:
                summary.superseded += 1
            markers.add(key)
            continue
        if key in winning:
            summary.superseded += 1
        winning[key] = (
            float(record.get("seconds", 0.0)),
            len(record.get("words", ())),
        )
    for key, (seconds, words) in winning.items():
        summary.distinct[key[0]] = summary.distinct.get(key[0], 0) + 1
        summary.total_seconds += seconds
        summary.words += words
    # A quarantine marker is live only until a completed record of the
    # same key lands (the auto-retry pass or a targeted re-run resolved
    # it); resolved markers are reported as healed, not quarantined —
    # and never double-counted against grid coverage (the completed
    # record already counts the cell done exactly once).
    summary.quarantined = sorted(key[2:] for key in markers if key[1:] not in winning)
    summary.healed = sorted(key[2:] for key in markers if key[1:] in winning)
    if any(key[0] == "fleet" for key in winning):
        # A fleet record is a shard, not a chip: a range shard completes
        # its whole chip span, but a heavy chip is done only when every
        # slice of its (start, stop, num_slices) group has landed.
        groups: dict[tuple, set] = {}
        for key in winning:
            if key[0] == "fleet":
                groups.setdefault((key[1], key[2], key[4]), set()).add(key[3])
        summary.units_done = sum(
            stop - start
            for (start, stop, num_slices), slices in groups.items()
            if len(slices) == num_slices
        )
    shape = grid_shape(summary.config)
    if shape is not None:
        dims, summary.cells_total = shape
        summary.grid = format_grid(dims, summary.cells_total)
        summary.eta_seconds = estimate_eta(
            summary.cells_done, summary.cells_total, summary.total_seconds
        )
    return summary


def render_summary(summary: StoreSummary) -> str:
    """Operator-facing text rendition of a :class:`StoreSummary`."""
    lines = [f"store    {summary.path} ({summary.size_bytes} bytes)"]
    lines.append(f"format   {summary.format or '(no header)'}")
    if summary.config:
        knobs = ", ".join(f"{k}={v}" for k, v in sorted(summary.config.items()))
        lines.append(f"config   {knobs}")
    else:
        lines.append("config   (none recorded)")
    for fmt in STORE_FORMATS.values():
        if fmt.kind in summary.distinct:
            lines.append(f"records  {summary.distinct[fmt.kind]} {fmt.name} {fmt.unit}")
    if not summary.distinct:
        lines.append("records  0 (header only)")
    if summary.grid:
        lines.append(f"grid     {summary.grid}")
    if summary.cells_total:
        done = summary.cells_done
        share = 100.0 * done / summary.cells_total
        progress = f"progress {done}/{summary.cells_total} cells done ({share:.1f}%)"
        if done < summary.cells_total and summary.eta_seconds is not None:
            progress += (
                f" · eta ~{format_eta(summary.eta_seconds)} of single-worker "
                "compute (divide by your worker count)"
            )
        lines.append(progress)
    if summary.quarantined:
        keys = ", ".join(str(tuple(key)) for key in summary.quarantined)
        lines.append(
            f"quarantine {len(summary.quarantined)} shard(s) awaiting a targeted "
            f"re-run (rerun the same command with this --resume path): {keys}"
        )
    if summary.healed:
        keys = ", ".join(str(tuple(key)) for key in summary.healed)
        lines.append(
            f"healed   {len(summary.healed)} shard(s) resolved since being "
            f"quarantined (auto-retry or targeted re-run; compact retires "
            f"the markers): {keys}"
        )
    if summary.superseded:
        lines.append(f"stale    {summary.superseded} superseded record(s) — run compact")
    if summary.words:
        lines.append(f"words    {summary.words} Monte-Carlo words")
    if summary.total_seconds:
        lines.append(f"cpu      {summary.total_seconds:.2f} cell-seconds recorded")
    if summary.torn_tail:
        lines.append("tail     torn final line (interrupted append; compact trims it)")
    return "\n".join(lines)


@dataclass
class MergeStats:
    """What :func:`merge` combined."""

    inputs: list[str]
    output: str
    kept: int
    superseded: int
    torn_tails: int


def merge(
    paths: list[str | os.PathLike], output: str | os.PathLike
) -> MergeStats:
    """Fold stores of one campaign into a canonical ``output``.

    Inputs must share a format and (when recorded) an identical config —
    stores from different experiments refuse to mix, exactly as a
    ``--resume`` against the wrong store would.  Records dedupe
    last-input-wins (within an input, last line wins), matching the
    in-file semantics, and the output is written atomically, so
    ``output`` may safely be one of the inputs: ``merge([PATH], PATH)``
    is ``repro store PATH compact``.  Records are re-emitted as
    canonical ``json.dumps`` lines, so merging the output again is
    byte-identical.
    """
    paths = [Path(p) for p in paths]
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(f"no shard store at {path}")
    output = Path(output)
    merged_format: str | None = None
    merged_config: dict | None = None
    winners: dict[tuple, tuple[int, int]] = {}
    dropped = 0
    torn_tails = 0
    for file_index, path in enumerate(paths):
        for number, key, record in ShardStore(path).iter_records(include_torn=True):
            if record is None:
                torn_tails += 1
                continue
            if key == HEADER:
                store_format, config = record["format"], record.get("config")
                if merged_format is not None and store_format != merged_format:
                    raise ValueError(
                        f"cannot merge {path} ({store_format}) into a "
                        f"{merged_format} store"
                    )
                merged_format = store_format
                if config is not None:
                    if merged_config is not None and merged_config != config:
                        raise ValueError(
                            f"{path} was written by a different config than "
                            "earlier inputs; refusing to mix campaigns"
                        )
                    merged_config = config
                continue
            if key in winners:
                dropped += 1
            winners[key] = (file_index, number)
    if merged_format is None:
        raise ValueError("none of the inputs carries a store header")
    # A marker resolved in *any* input (the targeted re-run on another
    # machine) does not survive the merge; markers still awaiting theirs do.
    resolved = [key for key in winners if key[0] == "quarantine" and key[1:] in winners]
    for key in resolved:
        del winners[key]
    dropped += len(resolved)

    def merged_lines():
        header = {"format": merged_format, "kind": "header", "config": merged_config}
        yield json.dumps(header) + "\n"
        for file_index, path in enumerate(paths):
            for number, key, record in ShardStore(path).iter_records():
                if key != HEADER and winners.get(key) == (file_index, number):
                    yield json.dumps(record) + "\n"

    kept = write_atomically(output, merged_lines()) - 1  # the header
    return MergeStats(
        inputs=[str(p) for p in paths],
        output=str(output),
        kept=kept,
        superseded=dropped,
        torn_tails=torn_tails,
    )


def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Summarize, compact, or merge JSONL shard stores "
        "written by --resume, streaming record by record (safe on stores "
        "larger than memory).",
    )
    parser.add_argument("path", help="shard store JSONL file")
    parser.add_argument(
        "action",
        choices=["summary", "compact", "merge"],
        help="summary: streaming report; compact: drop superseded records "
        "and torn tails in place (or into --output); merge: fold PATH and "
        "every MORE store into --output",
    )
    parser.add_argument(
        "more",
        nargs="*",
        metavar="MORE",
        help="additional stores to merge (merge only)",
    )
    parser.add_argument(
        "--output",
        "-o",
        metavar="PATH",
        default=None,
        help="destination file (required for merge; compact defaults to "
        "rewriting in place)",
    )
    return parser


def store_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro store ...``."""
    args = build_store_parser().parse_args(argv)
    try:
        if args.action == "summary":
            if args.more:
                raise ValueError("summary takes exactly one store")
            print(render_summary(summarize(args.path)))
        elif args.action == "compact":
            if args.more:
                raise ValueError("compact takes exactly one store")
            stats = merge([args.path], args.output or args.path)
            trimmed = ", torn tail trimmed" if stats.torn_tails else ""
            # Compact's count has always included the header record.
            print(
                f"compacted {stats.inputs[0]} -> {stats.output}: kept "
                f"{stats.kept + 1} record(s), dropped {stats.superseded} "
                f"superseded{trimmed}"
            )
        else:  # merge
            if not args.more:
                raise ValueError("merge needs at least two stores: PATH MORE...")
            if args.output is None:
                raise ValueError("merge requires --output PATH")
            stats = merge([args.path, *args.more], args.output)
            print(
                f"merged {len(stats.inputs)} store(s) -> {stats.output}: kept "
                f"{stats.kept} record(s), dropped {stats.superseded} superseded "
                f"({stats.torn_tails} torn tail(s) trimmed)"
            )
    except (ValueError, OSError) as error:
        print(f"repro store: {error}", file=sys.stderr)
        return 1
    return 0
