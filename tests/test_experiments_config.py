"""Unit tests for experiment configs and reporting helpers."""

import pytest

from repro.analysis.atrisk import MAX_AT_RISK_FOR_ENUMERATION
from repro.experiments.config import (
    BENCH,
    FULL,
    UNIT,
    CaseStudyConfig,
    FleetConfig,
    SweepConfig,
    scaled,
)
from repro.experiments.reporting import log_round_ticks, percent, profiler_order


class TestSweepConfig:
    def test_presets_are_valid(self):
        for preset in (UNIT, BENCH, FULL):
            assert preset.num_codes >= 1
            assert preset.num_rounds >= 1

    def test_paper_defaults(self):
        config = SweepConfig()
        assert config.k == 64
        assert config.num_rounds == 128
        assert config.error_counts == (2, 3, 4, 5)
        assert config.probabilities == (0.25, 0.5, 0.75, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(num_codes=0)
        with pytest.raises(ValueError):
            SweepConfig(error_counts=(0,))
        with pytest.raises(ValueError):
            SweepConfig(probabilities=(0.0,))
        with pytest.raises(ValueError, match="k must be positive"):
            SweepConfig(k=0)
        with pytest.raises(ValueError, match="enumeration bound"):
            SweepConfig(error_counts=(2, MAX_AT_RISK_FOR_ENUMERATION + 1))
        SweepConfig(error_counts=(MAX_AT_RISK_FOR_ENUMERATION,))

    def test_scaled(self):
        config = scaled(FULL, 0.1)
        assert config.num_codes == 3
        assert config.words_per_code == 4
        assert config.num_rounds == FULL.num_rounds  # rounds untouched

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            scaled(UNIT, 0)


class TestCaseStudyConfig:
    def test_defaults(self):
        config = CaseStudyConfig()
        assert config.rbers == (1e-4, 1e-6, 1e-8)
        assert config.max_at_risk >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(rbers=(0.0,))
        with pytest.raises(ValueError):
            CaseStudyConfig(max_at_risk=1)
        for scale in ("num_codes", "words_per_stratum", "num_rounds"):
            with pytest.raises(ValueError, match="scale parameters must be positive"):
                CaseStudyConfig(**{scale: 0})
        with pytest.raises(ValueError, match="k must be positive"):
            CaseStudyConfig(k=0)
        with pytest.raises(ValueError, match="enumeration bound"):
            CaseStudyConfig(max_at_risk=30)
        CaseStudyConfig(max_at_risk=MAX_AT_RISK_FOR_ENUMERATION)


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="k must be positive"):
            FleetConfig(k=0)


class TestReporting:
    def test_log_ticks_include_endpoints(self):
        assert log_round_ticks(128) == [1, 2, 4, 8, 16, 32, 64, 128]
        assert log_round_ticks(100) == [1, 2, 4, 8, 16, 32, 64, 100]
        assert log_round_ticks(1) == [1]

    def test_log_ticks_validation(self):
        with pytest.raises(ValueError):
            log_round_ticks(0)

    def test_percent(self):
        assert percent(0.25) == "25%"
        assert percent(1.0) == "100%"

    def test_profiler_order(self):
        shuffled = ["HARP-U", "Naive", "BEEP"]
        assert profiler_order(shuffled) == ["Naive", "BEEP", "HARP-U"]
