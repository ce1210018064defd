"""Seeded fuzz suite: a damaged JSONL store fails as ``ValueError``, never a traceback.

A shard store is external input: it outlives the process that wrote it,
travels between machines, and sits on disks that tear writes.  Each case
takes a real store of one driver (sweep, Fig 10 or fleet, quarantine
marker included) and damages one record the way
:func:`randcases.store_damage` draws it — truncated, garbled, a field
stripped, a field (or a nested one) retyped, replaced by a non-object, or
nested (whole or one field) past the recursion limit.
Loading, ``summarize`` and ``merge`` (of the store alone, which is
``compact``, and with a clean one) must then either accept the store or
raise ``ValueError`` (``FileNotFoundError`` for a missing one);
``repro store PATH summary`` exits 1 with a one-line ``repro store:``
message exactly when ``summarize`` refuses; and each driver
resumed onto the damaged store either completes or refuses with the
store's ``ValueError`` (one naming the store), which it must do whenever
``summarize`` refuses.
"""

import json
import shutil

import pytest

from randcases import STORE_DAMAGE, store_damage
from repro.experiments import fig10, fleet
from repro.experiments.config import CaseStudyConfig, FleetConfig, SweepConfig
from repro.experiments.runner import run_sweep
from repro.experiments.store import FIG10_STORE, FLEET_STORE, SWEEP_STORE, ShardStore
from repro.experiments.storetools import merge, store_main, summarize

SWEEP = SweepConfig(
    num_codes=1,
    words_per_code=2,
    num_rounds=8,
    error_counts=(2,),
    probabilities=(0.5,),
    profilers=("Naive", "HARP-U"),
)
CASE = CaseStudyConfig(
    num_codes=1,
    words_per_stratum=2,
    num_rounds=8,
    probabilities=(0.5,),
    rbers=(1e-4,),
    max_at_risk=3,
    profilers=("Naive",),
)
FLEET = FleetConfig(
    num_chips=6, k=16, num_codes=2, num_rounds=8, rows=8, words_per_row=2, chips_per_shard=2
)

#: Store kind -> (format, run writing a store to ``resume``).
DRIVERS = {
    "sweep": (SWEEP_STORE, lambda resume: run_sweep(SWEEP, resume=resume)),
    "fig10": (FIG10_STORE, lambda resume: fig10.run(CASE, resume=resume)),
    "fleet": (FLEET_STORE, lambda resume: fleet.run(FLEET, resume=resume)),
}

SEEDS = range(4)


@pytest.fixture(scope="module")
def clean_stores(tmp_path_factory):
    """One intact store per driver, ending in a quarantine marker."""
    stores = {}
    for kind, (store_format, run) in DRIVERS.items():
        path = tmp_path_factory.mktemp(kind) / "store.jsonl"
        run(str(path))
        key = next(iter(ShardStore(path).load().results))
        with ShardStore(path, store_format) as store:
            store.append_quarantine(key)
        stores[kind] = path
    return stores


def _refused(call) -> bool:
    """Whether ``call`` refused the store; any other exception fails the test."""
    try:
        call()
    except (ValueError, FileNotFoundError):
        return True
    return False


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("how", STORE_DAMAGE)
@pytest.mark.parametrize("kind", sorted(DRIVERS))
def test_damaged_store_refuses_cleanly(kind, how, seed, clean_stores, tmp_path, capsys):
    store_format, run = DRIVERS[kind]
    clean = clean_stores[kind]
    case = store_damage(seed, clean.read_bytes().splitlines(keepends=True), how)
    path = tmp_path / "damaged.jsonl"
    path.write_bytes(b"".join(case.lines))

    _refused(lambda: ShardStore(path).load())
    _refused(lambda: ShardStore(path, store_format).load())
    summary_refused = _refused(lambda: summarize(path))
    _refused(lambda: merge([path], tmp_path / "compacted.jsonl"))
    _refused(lambda: merge([path, clean], tmp_path / "merged.jsonl"))
    _refused(lambda: merge([clean, path], tmp_path / "merged.jsonl"))

    capsys.readouterr()
    code = store_main([str(path), "summary"])
    err = capsys.readouterr().err
    assert code == (1 if summary_refused else 0), case
    if code:
        assert err.startswith("repro store: ") and err.count("\n") == 1, err
    resumed = tmp_path / "resumed.jsonl"
    shutil.copy(path, resumed)
    try:
        run(str(resumed))
    except ValueError as error:
        assert str(resumed) in str(error), error
    else:
        assert not summary_refused, case


def test_missing_store_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        summarize(tmp_path / "absent.jsonl")
    with pytest.raises(FileNotFoundError):
        merge([tmp_path / "absent.jsonl"], tmp_path / "compacted.jsonl")
    assert store_main([str(tmp_path / "absent.jsonl"), "summary"]) == 1


def _damage_first(clean, kind: str, damage) -> tuple[list[str], int]:
    """The clean store's lines with ``damage(record)`` applied, and its line number.

    The damaged record is the first ``kind`` record, preferring a fleet
    record with a chip that holds words.
    """
    lines = clean.read_text().splitlines(keepends=True)
    candidates = [i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind]
    if kind == "fleet":
        candidates = [
            i
            for i in candidates
            if any(entry["words"] for entry in json.loads(lines[i])["chips"])
        ] or candidates
    index = candidates[0]
    record = json.loads(lines[index])
    damage(record)
    lines[index] = json.dumps(record) + "\n"
    return lines, index + 1


def _set_chips(chips):
    def damage(record):
        record["chips"] = chips

    return damage


def _first_words_entry(record):
    entry = next(entry for entry in record["chips"] if entry["words"])
    entry["words"][0] = [1, 2]


def _chip_out_of_range(record):
    record["chips"][0]["chip"] = record["stop"]


def _before_lacks_naive(record):
    del record["before"]["Naive"]


#: Well-typed records whose payload used to reach aggregation: each made
#: a resumed run fail with a TypeError/ValueError/KeyError traceback or,
#: for the out-of-range chip, silently change the fleet report.
PAYLOAD_CASES = {
    "fleet-chip-not-object": ("fleet", _set_chips([7])),
    "fleet-chip-not-int": ("fleet", _set_chips([{"chip": "x", "words": []}])),
    "fleet-chip-without-words": ("fleet", _set_chips([{"chip": 0}])),
    "fleet-word-not-triple": ("fleet", _first_words_entry),
    "fleet-chip-out-of-range": ("fleet", _chip_out_of_range),
    "fig10-before-lacks-profiler": ("fig10", _before_lacks_naive),
}


class TestReportedCrashes:
    """Malformed records that used to escape as tracebacks (or, for a
    fleet chip outside its range, silently change a resumed report)."""

    @pytest.mark.parametrize(
        "line", ["[1, 2]", '{"kind": "cell"}', "{}", pytest.param("[" * 100_000, id="deep")]
    )
    def test_summary_exits_1_on_a_malformed_record(self, line, clean_stores, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        path.write_text(clean_stores["sweep"].read_text() + line + "\n")
        assert store_main([str(path), "summary"]) == 1
        lines = len(path.read_text().splitlines())
        assert capsys.readouterr().err == (
            f"repro store: {path}: corrupt shard record on line {lines}\n"
        )

    def test_resume_refuses_a_record_missing_its_key(self, clean_stores, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(clean_stores["sweep"].read_text() + '{"kind": "cell"}\n')
        with pytest.raises(ValueError, match="corrupt shard record on line"):
            run_sweep(SWEEP, resume=str(path))

    def test_resume_refuses_a_deeply_nested_final_line(self, clean_stores, tmp_path):
        """A final line nested past the recursion limit is no torn append
        (no prefix of a record nests that deep), so resume refuses it."""
        path = tmp_path / "store.jsonl"
        path.write_text(clean_stores["sweep"].read_text() + "[" * 100_000 + "\n")
        lines = len(path.read_text().splitlines())
        with pytest.raises(ValueError, match=f"corrupt shard record on line {lines}$"):
            run_sweep(SWEEP, resume=str(path))

    @pytest.mark.parametrize("name", sorted(PAYLOAD_CASES))
    def test_malformed_payload_is_a_corrupt_record(self, name, clean_stores, tmp_path, capsys):
        kind, damage = PAYLOAD_CASES[name]
        lines, line_number = _damage_first(clean_stores[kind], kind, damage)
        path = tmp_path / "store.jsonl"
        path.write_text("".join(lines))
        message = f"{path}: corrupt shard record on line {line_number}"

        capsys.readouterr()
        assert store_main([str(path), "summary"]) == 1
        assert capsys.readouterr().err == f"repro store: {message}\n"
        with pytest.raises(ValueError, match=f"corrupt shard record on line {line_number}"):
            DRIVERS[kind][1](str(path))

    def test_fig10_record_must_match_the_header_profilers(self, clean_stores, tmp_path):
        """A consistent record for other profilers needs the config to refuse it."""

        def rename(record):
            for table in ("before", "after", "to_zero"):
                record[table]["HARP-U"] = record[table].pop("Naive")

        lines, line_number = _damage_first(clean_stores["fig10"], "fig10", rename)
        path = tmp_path / "store.jsonl"
        path.write_text("".join(lines))
        assert store_main([str(path), "summary"]) == 0
        with pytest.raises(ValueError, match=f"corrupt shard record on line {line_number}"):
            ShardStore(path, FIG10_STORE).load()
        with pytest.raises(ValueError, match=f"corrupt shard record on line {line_number}"):
            fig10.run(CASE, resume=str(path))
