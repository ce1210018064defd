"""Fleet-scale field simulation: sampling statistics, identity, slicing.

Three contracts pin the fleet workload:

1. **Statistics** — the fault-mix sampler reproduces its calibrated
   distribution: per-mode Poisson totals pass a chi-square check at a
   fixed seed, the lognormal rate multiplier's percentiles land on the
   closed-form values, and sampling is chip-indexed (growing the
   population never reshuffles an existing chip's topology).
2. **Determinism** — serial, process-pool, and socket backends produce
   bit-identical fleets, as does a fresh interpreter.
3. **Sub-cell sharding** — a heavy chip's cell slices merge to exactly
   the whole-cell result under both GF(2) products and both simulation
   kernels, and a poisoned slice quarantines just its own chip and
   heals on a targeted resume.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest
from kernel_modes import force_gf2_tier, kernel_mode

from repro.analysis import shared_memo
from repro.cli import FLEET_SCALES
from repro.experiments import fleet
from repro.experiments.backends import ExecutionBackend
from repro.experiments.config import FleetConfig
from repro.experiments.runner import clear_engine_caches
from repro.memory.faults import (
    FAULT_MODES,
    ChipGeometry,
    FaultMixModel,
    sample_chip_faults,
)
from serviceharness import repro_env

#: Seconds-fast fleet: 24 chips over 2 codes, heavy chips sliced at 4
#: profiled words.
SMALL = FleetConfig(
    num_chips=24,
    k=16,
    num_codes=2,
    num_rounds=16,
    rows=8,
    words_per_row=2,
    chips_per_shard=8,
    slice_words=4,
)

#: Even smaller population for the tier/kernel equivalence matrix.
TINY = replace(SMALL, num_chips=12)


def _count_of(faults, mode: str) -> int:
    """How many faults of ``mode`` a chip's :class:`ChipFaults` holds."""
    return faults.mode_counts[FAULT_MODES.index(mode)]


@pytest.fixture(autouse=True)
def _fresh_caches():
    fleet.clear_fleet_caches()
    clear_engine_caches()
    yield
    fleet.clear_fleet_caches()
    clear_engine_caches()


def _chip_digest(result: fleet.FleetResult) -> str:
    payload = [
        [
            chip.chip,
            chip.at_risk_bits,
            chip.identified_bits,
            chip.missed_bits,
            chip.repaired_rows,
            chip.bit_repairs,
            repr(chip.ue_repaired),
            repr(chip.ue_unrepaired),
        ]
        for chip in result.chips
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


class TestFaultSampling:
    GEOMETRY = ChipGeometry(rows=4, words_per_row=2)

    def test_mode_totals_pass_chi_square(self):
        """Observed per-mode fault totals match the Poisson intensities.

        With ``variability_sigma=0`` each mode's fleet total is
        Poisson(num_chips · rate); the chi-square statistic over the
        four modes must sit below the 99.9% quantile of chi²(4) at this
        fixed seed (and, being deterministic, forever).
        """
        model = FaultMixModel(variability_sigma=0.0)
        num_chips = 4000
        totals = dict.fromkeys(FAULT_MODES, 0)
        for faults in sample_chip_faults(7, range(num_chips), model, self.GEOMETRY, n=21):
            for mode in FAULT_MODES:
                totals[mode] += _count_of(faults, mode)
        statistic = 0.0
        for mode in FAULT_MODES:
            expected = num_chips * model.rate_of(mode)
            statistic += (totals[mode] - expected) ** 2 / expected
        assert statistic < 18.47, (statistic, totals)

    def test_lognormal_scale_percentiles(self):
        """The rate multiplier's quantiles land on the closed forms.

        ``scale = exp(sigma·Z − sigma²/2)`` has median ``exp(−sigma²/2)``
        and P90/P50 ratio ``exp(1.2816·sigma)``; 4000 chips at a fixed
        seed pin both within a few percent.
        """
        sigma = 1.2
        model = FaultMixModel(
            single_rate=0.0,
            row_rate=0.0,
            column_rate=0.0,
            bank_rate=0.0,
            variability_sigma=sigma,
        )
        scales = sorted(
            faults.rate_scale
            for faults in sample_chip_faults(7, range(4000), model, self.GEOMETRY, n=21)
        )
        median = scales[len(scales) // 2]
        p90 = scales[int(len(scales) * 0.9)]
        expected_median = pytest.approx(2.718281828 ** (-sigma * sigma / 2), rel=0.10)
        assert median == expected_median
        assert p90 / median == pytest.approx(2.718281828 ** (1.2816 * sigma), rel=0.15)

    def test_chip_insertion_does_not_reshuffle(self):
        """Growing the population leaves existing chips bit-identical.

        The regression this pins: fleet sampling must be chip-indexed,
        never draw-order dependent — inserting chip N must not shift any
        draw of chips 0..N-1.
        """
        smaller = replace(SMALL, num_chips=6)
        larger = replace(SMALL, num_chips=7)
        for chip in range(6):
            assert fleet.chip_faults(smaller, chip) == fleet.chip_faults(larger, chip)
        # And at the sampler level, with the population size nowhere in
        # the derivation path at all:
        model = FaultMixModel()
        first = sample_chip_faults(11, [3], model, self.GEOMETRY, n=21)
        again = sample_chip_faults(11, [3], model, self.GEOMETRY, n=21)
        assert first == again

    def test_shuffled_subset_matches_one_chip_at_a_time(self):
        """Which chips share a call, and in what order, changes no chip."""
        model = FaultMixModel(single_rate=1.0, row_rate=0.5, column_rate=0.5, bank_rate=0.5)
        subset = random.Random(5).sample(range(400), 60)
        together = sample_chip_faults(13, subset, model, self.GEOMETRY, n=21, max_per_word=4)
        assert [faults.chip_index for faults in together] == subset
        for mode in FAULT_MODES:
            assert any(_count_of(faults, mode) for faults in together), mode
        alone = [
            sample_chip_faults(13, [chip], model, self.GEOMETRY, n=21, max_per_word=4)[0]
            for chip in subset
        ]
        assert together == alone
        assert sample_chip_faults(13, [], model, self.GEOMETRY, n=21) == []

    def test_row_and_column_faults_never_empty(self):
        """A row/column fault keeps ≥ 1 at-risk bit even at density 0."""
        model = FaultMixModel(
            single_rate=0.0,
            row_rate=4.0,
            column_rate=4.0,
            bank_rate=0.0,
            variability_sigma=0.0,
            row_density=0.0,
            column_density=0.0,
        )
        hit = 0
        for faults in sample_chip_faults(3, range(20), model, self.GEOMETRY, n=21):
            count = _count_of(faults, "row") + _count_of(faults, "column")
            hit += count
            assert faults.total_at_risk >= min(count, 1)
            if count:
                assert faults.total_at_risk > 0
        assert hit > 0  # the rates guarantee faults actually occurred

    def test_per_word_cap_truncates_to_lowest_positions(self):
        model = FaultMixModel(
            single_rate=0.0,
            row_rate=0.0,
            column_rate=0.0,
            bank_rate=3.0,
            variability_sigma=0.0,
            bank_density=1.0,
        )
        (faults,) = sample_chip_faults(5, [0], model, self.GEOMETRY, n=21, max_per_word=4)
        assert _count_of(faults, "bank") > 0
        assert faults.word_positions  # density 1.0 marks every bit
        for _, positions in faults.word_positions:
            assert len(positions) <= 4
            assert positions == tuple(range(4))  # lowest positions kept


class TestSamplingOnce:
    def test_serial_run_samples_each_chip_once(self, monkeypatch):
        """``run`` shards and finalizes every chip, and the shards read
        their chips again; the block memo must serve all of it from one
        sampling of each chip."""
        config = replace(SMALL, num_chips=29)
        sampled = Counter()
        original = fleet.sample_chip_faults

        def counting(seed, chip_indices, *args, **kwargs):
            chips = list(chip_indices)
            sampled.update(chips)
            return original(seed, chips, *args, **kwargs)

        monkeypatch.setattr(fleet, "sample_chip_faults", counting)
        result = fleet.run(config)
        assert any(shard.num_slices > 1 for shard in fleet.shard_fleet(config))
        assert len(result.chips) == config.num_chips
        assert sampled == Counter(range(config.num_chips))

    def test_chip_outside_the_fleet_is_refused(self):
        with pytest.raises(IndexError):
            fleet.chip_faults(SMALL, SMALL.num_chips)
        with pytest.raises(IndexError):
            fleet.chip_faults(SMALL, -1)


class TestBackendIdentity:
    def test_serial_process_socket_bit_identical(self):
        serial = fleet.run(SMALL)
        process = fleet.run(SMALL, jobs=2, backend="process")
        sock = fleet.run(SMALL, jobs=2, backend="socket")
        assert serial.chips == process.chips
        assert serial.chips == sock.chips
        assert serial.quarantined == () and sock.quarantined == ()

    def test_shared_cache_pool_matches_serial(self):
        """``--shared-cache`` publishes only the codes' aliasing tables.

        A fleet word is simulated once, in its shard, so nothing per
        word is worth sharing; the pooled fleet equals the serial one.
        """
        config = FLEET_SCALES["unit"]
        assert {key[0] for key in fleet.fleet_entries(config)} == {"pairs"}
        serial = fleet.run(config)
        try:
            shared = fleet.run(config, backend="process", jobs=2, shared_cache=True)
        finally:
            shared_memo.clear_shared_overlay()
        assert shared.chips == serial.chips
        assert shared.quarantined == ()

    def test_fresh_interpreter_matches(self):
        """A separate process reproduces the fleet digest bit for bit."""
        reference = _chip_digest(fleet.run(TINY))
        script = (
            "import hashlib, json\n"
            "from dataclasses import replace\n"
            "from repro.experiments import fleet\n"
            "from repro.experiments.config import FleetConfig\n"
            f"config = replace(FleetConfig(num_chips=12, k=16, num_codes=2, "
            f"num_rounds=16, rows=8, words_per_row=2, chips_per_shard=8, "
            f"slice_words=4))\n"
            "result = fleet.run(config)\n"
            "payload = [[c.chip, c.at_risk_bits, c.identified_bits, c.missed_bits,"
            " c.repaired_rows, c.bit_repairs, repr(c.ue_repaired),"
            " repr(c.ue_unrepaired)] for c in result.chips]\n"
            "print(hashlib.sha256(json.dumps(payload).encode()).hexdigest())\n"
        )
        digest = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=repro_env(),
        ).stdout.strip()
        assert digest == reference

    def test_resume_after_truncation_bit_identical(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        full = fleet.run(SMALL, resume=str(path))
        lines = path.read_text().splitlines(True)
        assert len(lines) > 4
        path.write_text("".join(lines[:4]) + '{"kind": "fleet", "torn')
        resumed = fleet.run(SMALL, resume=str(path))
        assert resumed.chips == full.chips

    def test_resume_rejects_other_config(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        fleet.run(TINY, resume=str(path))
        with pytest.raises(ValueError, match="different fleet config"):
            fleet.run(replace(TINY, seed=1), resume=str(path))


class _QuarantiningBackend(ExecutionBackend):
    """Serial stub that sets one fixed shard index aside (fig10 pattern)."""

    name = "quarantining-stub"

    def __init__(self, skip_index: int) -> None:
        self.skip_index = skip_index

    def imap_unordered(self, worker, shards, chunksize=1):
        self.quarantined_shards = ()
        for index, shard in enumerate(shards):
            if index == self.skip_index:
                self.quarantined_shards = (index,)
                continue
            yield index, worker(shard)


class TestSubCellSharding:
    def test_fleet_actually_has_cell_slices(self):
        """The test fleet must exercise slicing, or this suite is vacuous."""
        shards = fleet.shard_fleet(SMALL)
        slices = [shard for shard in shards if shard.num_slices > 1]
        assert slices, "no heavy chip in SMALL; lower slice_words"
        for shard in slices:
            assert shard.stop == shard.start + 1

    def test_slices_partition_profiled_words(self):
        """Each heavy chip's slices carry disjoint, exhaustive word sets."""
        shards = fleet.shard_fleet(SMALL)
        by_chip: dict[int, list] = {}
        for shard in shards:
            if shard.num_slices > 1:
                by_chip.setdefault(shard.start, []).append(shard)
        assert by_chip
        for chip, slices in by_chip.items():
            expected = {
                word for word, _ in fleet.profiled_words(fleet.chip_faults(SMALL, chip))
            }
            seen: list[int] = []
            for shard in slices:
                payload = fleet.run_fleet_shard(shard)
                (entry,) = payload["chips"]
                assert entry["chip"] == chip
                seen.extend(word for word, _, _ in entry["words"])
            assert sorted(seen) == sorted(expected)  # disjoint and exhaustive

    @pytest.mark.parametrize("tier", ["packed", "unpacked"])
    @pytest.mark.parametrize("kernel", ["auto", "scalar"])
    def test_slice_merge_equals_whole_cell(self, tier, kernel, monkeypatch):
        force_gf2_tier(monkeypatch, tier)
        kernel_mode(monkeypatch, kernel)
        fleet.clear_fleet_caches()
        clear_engine_caches()
        sliced = fleet.run(TINY)
        whole = fleet.run(replace(TINY, slice_words=0))
        assert sliced.chips == whole.chips

    def test_poisoned_slice_quarantines_only_its_chip_and_heals(self, tmp_path):
        reference = fleet.run(SMALL)
        shards = fleet.shard_fleet(SMALL)
        poison = next(
            index for index, shard in enumerate(shards) if shard.num_slices > 1
        )
        poisoned_chip = shards[poison].start
        path = tmp_path / "fleet.jsonl"
        partial = fleet.run(
            SMALL, backend=_QuarantiningBackend(poison), resume=str(path)
        )
        assert partial.quarantined == (shards[poison].key,)
        assert partial.incomplete_chips == (poisoned_chip,)
        # Every other chip is bit-identical to the clean run.
        surviving = {chip.chip: chip for chip in partial.chips}
        assert poisoned_chip not in surviving
        for chip in reference.chips:
            if chip.chip != poisoned_chip:
                assert surviving[chip.chip] == chip
        # Heal: a targeted resume recomputes only the poisoned slice and
        # restores the full fleet bit for bit.
        healed = fleet.run(SMALL, resume=str(path))
        assert healed.quarantined == ()
        assert healed.chips == reference.chips


class TestRender:
    def test_report_lines(self):
        result = fleet.run(TINY)
        text = fleet.render(result)
        assert f"fleet    {len(result.chips)}/{TINY.num_chips} chips" in text
        assert "repair   " in text
        assert "UE       " in text
        assert "partial" not in text
