"""End-to-end integration tests of the Fig 5 system model.

Chip + active profiler + ideal bit repair + secondary ECC, exercised
through the object-level read/write paths (not the fast analytic path),
verifying the paper's end-to-end claim: HARP's active phase plus a SEC
secondary ECC eliminates all escapes, while skipping active profiling
leaves multi-bit escapes.
"""

import numpy as np
import pytest

from repro.controller.secondary_ecc import SecondaryEcc
from repro.controller.system import MemorySystem
from repro.ecc.hamming import random_sec_code
from repro.memory.chip import OnDieEccChip
from repro.memory.error_model import WordErrorProfile, sample_word_profile
from repro.profiling.harp import HarpUProfiler
from repro.profiling.naive import NaiveProfiler


def build_chip(seed: int, num_words: int = 6, at_risk: int = 4, probability: float = 0.75):
    rng = np.random.default_rng(seed)
    code = random_sec_code(64, rng)
    chip = OnDieEccChip(code, num_words=num_words, rng=rng)
    for word_index in range(num_words):
        chip.set_error_profile(
            word_index, sample_word_profile(code, at_risk, probability, rng)
        )
    return chip


class TestActiveProfiling:
    def test_harp_populates_profile(self):
        chip = build_chip(seed=1)
        system = MemorySystem(chip, HarpUProfiler, seed=1)
        report = system.run_active_profiling(num_rounds=48)
        assert report.words_profiled == chip.num_words
        assert report.bits_identified > 0
        assert system.profile.total_bits == report.bits_identified

    def test_harp_identifies_all_direct_risk_bits(self):
        """With p=0.75 and 48 rounds, every charged at-risk data bit fails
        at least once with overwhelming probability."""
        chip = build_chip(seed=2)
        system = MemorySystem(chip, HarpUProfiler, seed=2)
        system.run_active_profiling(num_rounds=48)
        for word_index in range(chip.num_words):
            direct = {
                p for p in chip.error_profile(word_index).positions if p < chip.code.k
            }
            assert direct <= set(system.profile.bits_for(word_index))


class TestOperation:
    def test_harp_system_never_escapes(self):
        """The paper's headline guarantee, end to end: after full active
        profiling, at most one (indirect) error reaches the secondary SEC
        at a time, so nothing escapes."""
        chip = build_chip(seed=3)
        system = MemorySystem(chip, HarpUProfiler, secondary=SecondaryEcc(1), seed=3)
        system.run_active_profiling(num_rounds=64)
        report = system.operate(reads_per_word=50)
        assert report.escaped_reads == 0

    def test_unprofiled_system_escapes(self):
        """Without active profiling, multi-bit patterns hit the SEC."""
        chip = build_chip(seed=4, probability=1.0)
        system = MemorySystem(chip, HarpUProfiler, secondary=SecondaryEcc(1), seed=4)
        report = system.operate(reads_per_word=20)
        assert report.escaped_reads > 0

    def test_reactive_profiling_identifies_indirect_bits(self):
        chip = build_chip(seed=5)
        system = MemorySystem(chip, HarpUProfiler, seed=5)
        system.run_active_profiling(num_rounds=64)
        before = system.profile.total_bits
        report = system.operate(reads_per_word=100)
        # Any reactive corrections must have been recorded in the profile.
        assert system.profile.total_bits == before + report.reactively_identified_bits

    def test_reactive_identification_is_permanent(self):
        """Once the secondary ECC identifies a bit, later reads of the same
        pattern are repaired (clean), not re-corrected."""
        chip = build_chip(seed=6, probability=1.0, at_risk=2)
        system = MemorySystem(chip, HarpUProfiler, seed=6)
        system.run_active_profiling(num_rounds=8)
        first = system.operate(reads_per_word=1)
        second = system.operate(reads_per_word=1)
        assert second.reactively_identified_bits <= first.reactively_identified_bits

    def test_operate_with_custom_data(self):
        chip = build_chip(seed=7)
        system = MemorySystem(chip, NaiveProfiler, seed=7)
        report = system.operate(reads_per_word=5, data=np.zeros(chip.code.k, dtype=np.uint8))
        # All-zero data on true cells holds no charge: nothing can fail.
        assert report.clean_reads == report.reads


class TestSingleWordScenario:
    def test_known_two_bit_word(self):
        """Deterministic scenario: two always-failing data bits."""
        rng = np.random.default_rng(8)
        code = random_sec_code(64, rng)
        chip = OnDieEccChip(code, num_words=1, rng=rng)
        chip.set_error_profile(0, WordErrorProfile((3, 9), (1.0, 1.0)))
        system = MemorySystem(chip, HarpUProfiler, seed=8)
        system.run_active_profiling(num_rounds=4)
        assert {3, 9} <= set(system.profile.bits_for(0))
        report = system.operate(reads_per_word=10)
        assert report.escaped_reads == 0
