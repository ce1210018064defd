"""Tests of the sharded Fig 10 case-study runner.

The case study rides the sweep shard engine: picklable
per-(probability, code, stratum) work units whose execution is a pure
function of the shard, so parallel runs are bit-identical to the serial
loop — and, like the sweep, it streams completed shards to a
``repro-fig10-v1`` :class:`~repro.experiments.store.ShardStore` and
resumes from them bit-identically after a kill.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from kernel_modes import kernel_mode

from repro.analysis.probabilities import WordBerAnalyzer
from repro.experiments import fig10
from repro.experiments.config import CaseStudyConfig
from repro.experiments.reporting import log_round_ticks
from repro.experiments.store import ShardStore
from repro.memory.error_model import sample_word_profile
from repro.profiling import PROFILER_REGISTRY
from repro.profiling.runner import simulate_word
from repro.utils.rng import derive_rng, derive_seed

CONFIG = CaseStudyConfig(
    num_codes=2,
    words_per_stratum=2,
    num_rounds=32,
    probabilities=(0.5, 1.0),
    rbers=(1e-4, 1e-6),
    max_at_risk=4,
    profilers=("Naive", "BEEP", "HARP-U", "HARP-A"),
)


class TestShardGrid:
    def test_covers_probability_code_stratum_grid(self):
        shards = fig10.shard_case_study(CONFIG)
        expected = [
            (p, c, s)
            for p in CONFIG.probabilities
            for c in range(CONFIG.num_codes)
            for s in range(2, CONFIG.max_at_risk + 1)
        ]
        assert [(s.probability, s.code_index, s.count) for s in shards] == expected

    def test_shards_are_picklable(self):
        shards = fig10.shard_case_study(CONFIG)
        assert pickle.loads(pickle.dumps(shards[0])) == shards[0]

    def test_shard_results_are_picklable(self):
        shard = fig10.shard_case_study(CONFIG)[0]
        result = fig10.run_case_shard(shard)
        assert pickle.loads(pickle.dumps(result)) == result


class TestParallelBitIdentity:
    @pytest.fixture(scope="class")
    def serial(self):
        return fig10.run(CONFIG)

    def test_parallel_matches_serial(self, serial):
        parallel = fig10.run(CONFIG, jobs=2)
        assert parallel.ticks == serial.ticks
        assert parallel.before == serial.before
        assert parallel.after == serial.after
        assert parallel.rounds_to_zero == serial.rounds_to_zero

    def test_jobs_zero_means_per_cpu(self, serial):
        parallel = fig10.run(CONFIG, jobs=0)
        assert parallel.before == serial.before
        assert parallel.after == serial.after

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            fig10.run(CONFIG, jobs=-2)

    def test_shard_execution_is_order_independent(self, serial):
        """A shard run in isolation reproduces its slice of the full run."""
        shards = fig10.shard_case_study(CONFIG)
        shard = shards[-1]
        isolated = fig10.run_case_shard(shard)
        before, _after, _zero = isolated
        # Re-running the full study and slicing out this shard's stratum
        # must average the same trajectories the isolated run produced.
        assert set(before) == set(CONFIG.profilers)
        assert all(len(v) == CONFIG.words_per_stratum for v in before.values())


def _reference_case_shard(shard):
    """The straight-line per-profiler loop ``run_case_shard`` replaced.

    Kept verbatim (module-private names qualified): every profiler of a
    word re-derives its own pattern schedule and failure draws through
    a fresh scalar ``simulate_word`` run.
    """
    config = shard.config
    ticks = log_round_ticks(config.num_rounds)
    code = fig10._fig10_code(config.seed, config.k, shard.code_index)
    charged = np.ones(code.k, dtype=np.uint8)
    before: dict[str, list[list[float]]] = {name: [] for name in config.profilers}
    after: dict[str, list[list[float]]] = {name: [] for name in config.profilers}
    to_zero: dict[str, list[int | None]] = {name: [] for name in config.profilers}
    for word_index in range(config.words_per_stratum):
        word_rng = derive_rng(
            config.seed, "fig10-word", shard.probability, shard.code_index, shard.count, word_index
        )
        profile = sample_word_profile(code, shard.count, shard.probability, word_rng)
        analyzer = WordBerAnalyzer(code, profile, charged)
        word_seed = derive_seed(
            config.seed, "fig10-draws", shard.probability, shard.code_index, shard.count, word_index
        )
        for name in config.profilers:
            profiler = PROFILER_REGISTRY[name](code, seed=word_seed, pattern=config.pattern)
            run_result = simulate_word(profiler, profile, config.num_rounds, word_seed)
            trace = run_result.identified_per_round
            before[name].append([analyzer.unrepaired_ber(trace[tick - 1]) for tick in ticks])
            after[name].append(
                [analyzer.residual_ber_after_secondary(trace[tick - 1]) for tick in ticks]
            )
            to_zero[name].append(_reference_first_zero_round(analyzer, trace))
    return before, after, to_zero


def _reference_first_zero_round(analyzer, trace):
    """The per-round search ``fig10._first_zero_round`` replaced, verbatim."""
    previous = None
    residual = None
    for round_index, identified in enumerate(trace):
        if previous is None or identified != previous:
            residual = analyzer.residual_ber_after_secondary(identified)
            previous = identified
        if residual == 0.0:
            return round_index + 1
    return None


class TestSharedWordSimulation:
    """One simulation call per word must equal one run per (word, profiler)."""

    @pytest.mark.parametrize("kernel", ["auto", "scalar"])
    @pytest.mark.parametrize("pattern", ["random", "charged"])
    def test_matches_per_profiler_reference_loop(self, pattern, kernel, monkeypatch):
        kernel_mode(monkeypatch, kernel)
        config = replace(
            CONFIG, pattern=pattern, num_codes=1, profilers=tuple(PROFILER_REGISTRY)
        )
        for shard in fig10.shard_case_study(config):
            assert fig10.run_case_shard(shard) == _reference_case_shard(shard), shard


class TestResume:
    """Streaming persistence and kill-and-resume bit-identity."""

    @pytest.fixture(scope="class")
    def serial(self):
        return fig10.run(CONFIG)

    def test_fresh_run_with_resume_matches_serial(self, serial, tmp_path):
        store_path = tmp_path / "fig10.jsonl"
        resumed = fig10.run(CONFIG, resume=str(store_path))
        assert resumed == serial
        config, shards, _ = ShardStore(store_path).load()
        assert config == CONFIG
        assert len(shards) == len(fig10.shard_case_study(CONFIG))

    def test_resume_from_partial_store_is_bit_identical(self, serial, tmp_path):
        """Simulated kill: keep the header plus a prefix of the records
        (and a torn tail from the interrupted append), then resume."""
        complete = tmp_path / "complete.jsonl"
        fig10.run(CONFIG, resume=str(complete))
        lines = complete.read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text(
            "\n".join(lines[:4]) + "\n" + '{"kind": "fig10", "probability": 0.'
        )
        resumed = fig10.run(CONFIG, resume=str(partial))
        assert resumed == serial
        # The store is now complete: a further resume recomputes nothing.
        size = partial.stat().st_size
        again = fig10.run(CONFIG, resume=str(partial))
        assert again == serial
        assert partial.stat().st_size == size

    def test_resume_skips_persisted_shards(self, serial, tmp_path, monkeypatch):
        store_path = tmp_path / "fig10.jsonl"
        fig10.run(CONFIG, resume=str(store_path))
        executed = []
        real = fig10.run_case_shard
        monkeypatch.setattr(
            fig10, "run_case_shard", lambda shard: executed.append(shard) or real(shard)
        )
        resumed = fig10.run(CONFIG, resume=str(store_path))
        assert executed == []  # every shard came from disk
        assert resumed == serial

    def test_resume_refuses_foreign_config(self, tmp_path):
        store_path = tmp_path / "fig10.jsonl"
        fig10.run(CONFIG, resume=str(store_path))
        with pytest.raises(ValueError, match="different Fig 10 case-study config"):
            fig10.run(replace(CONFIG, seed=7), resume=str(store_path))

    def test_resume_refuses_sweep_store(self, tmp_path):
        store_path = tmp_path / "sweep.jsonl"
        store_path.write_text(
            json.dumps({"format": "repro-sweep-v2", "kind": "header", "config": None})
            + "\n"
        )
        with pytest.raises(ValueError, match="not a Fig 10"):
            fig10.run(CONFIG, resume=str(store_path))


class TestKillAndResume:
    """The acceptance path: a real process killed mid-campaign resumes
    to a bit-identical rendition."""

    def test_sigkilled_cli_run_resumes_bit_identically(self, tmp_path):
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        store = tmp_path / "fig10.jsonl"
        command = [
            sys.executable,
            "-m",
            "repro",
            "fig10",
            "--scale",
            "unit",
            "--resume",
            str(store),
        ]
        reference = subprocess.run(
            [c for c in command if c != "--resume" and c != str(store)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert reference.returncode == 0, reference.stderr
        victim = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        # SIGKILL as soon as at least one shard is durable; if the run
        # wins the race and finishes first, the resume is simply a
        # no-op replay — still a valid equality check.
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            if store.exists() and store.read_text().count("\n") >= 2:
                victim.send_signal(signal.SIGKILL)
                break
            time.sleep(0.01)
        victim.wait(timeout=300)
        resumed = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=300
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == reference.stdout
