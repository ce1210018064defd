"""Integration tests of the sweep runner and Figs 6-9 reductions.

One UNIT-scale sweep is shared module-wide; the tests assert the paper's
qualitative claims hold on it:

* HARP-U achieves full direct coverage everywhere (Fig 6);
* HARP bootstraps no slower than the baselines (Fig 7);
* HARP-U identifies ~no indirect bits; HARP-A identifies at least as many
  (Fig 8);
* HARP's required secondary capability is bounded by 1 after profiling
  (Fig 9a) and is reached no later than the baselines reach it (Fig 9b).

Hand-built cells with known answers pin the reductions themselves.
"""

import pytest

from repro.experiments import fig6, fig7, fig8, fig9
from repro.experiments.config import SweepConfig
from repro.experiments.runner import SweepCell, SweepResult, WordMetrics, run_sweep

CONFIG = SweepConfig(
    num_codes=3,
    words_per_code=5,
    num_rounds=64,
    error_counts=(2, 4),
    probabilities=(0.5, 1.0),
)


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(CONFIG)


class TestSweepStructure:
    def test_all_cells_present(self, sweep):
        expected = (
            len(CONFIG.error_counts) * len(CONFIG.probabilities) * len(CONFIG.profilers)
        )
        assert len(sweep.cells) == expected

    def test_words_per_cell(self, sweep):
        cell = sweep.cell(2, 0.5, "Naive")
        assert len(cell.words) == CONFIG.num_codes * CONFIG.words_per_code

    def test_deterministic(self):
        a = run_sweep(CONFIG)
        b = run_sweep(CONFIG)
        assert a.cell(2, 0.5, "Naive").words == b.cell(2, 0.5, "Naive").words

    def test_direct_totals_shared_across_profilers(self, sweep):
        """Fairness: every profiler sees the same words."""
        for probability in CONFIG.probabilities:
            totals = {
                name: [w.direct_total for w in sweep.cell(4, probability, name).words]
                for name in CONFIG.profilers
            }
            reference = totals["Naive"]
            for name in CONFIG.profilers:
                assert totals[name] == reference


class TestFig6Claims:
    def test_harp_reaches_full_direct_coverage(self, sweep):
        result = fig6.from_sweep(sweep)
        for error_count in CONFIG.error_counts:
            for probability in CONFIG.probabilities:
                assert result.final_coverage(error_count, probability, "HARP-U") == 1.0

    def test_harp_dominates_baselines_everywhere(self, sweep):
        result = fig6.from_sweep(sweep)
        for key, curve in result.curves.items():
            if key[2] == "HARP-U":
                continue
            harp_curve = result.curves[(key[0], key[1], "HARP-U")]
            for round_index in range(len(curve)):
                assert harp_curve[round_index] >= curve[round_index] - 1e-9

    def test_coverage_curves_monotone(self, sweep):
        result = fig6.from_sweep(sweep)
        for curve in result.curves.values():
            assert list(curve) == sorted(curve)

    def test_render_contains_panels(self, sweep):
        text = fig6.render(fig6.from_sweep(sweep))
        assert "Fig 6 panel" in text
        assert "HARP-U" in text


class TestFig7Claims:
    def test_harp_bootstraps_fastest(self, sweep):
        result = fig7.from_sweep(sweep)
        for error_count in CONFIG.error_counts:
            for probability in CONFIG.probabilities:
                harp = result.median(error_count, probability, "HARP-U")
                naive = result.median(error_count, probability, "Naive")
                assert harp <= naive

    def test_harp_never_censored(self, sweep):
        """HARP always identifies at least one direct error (paper §7.2.2)
        — given every word has a charged at-risk data bit and p >= 0.5."""
        result = fig7.from_sweep(sweep)
        for error_count in CONFIG.error_counts:
            assert result.censored_fraction(error_count, 1.0, "HARP-U") <= 0.1

    def test_render(self, sweep):
        assert "bootstrapping" in fig7.render(fig7.from_sweep(sweep))


class TestFig8Claims:
    def test_harp_u_identifies_no_indirect_bits(self, sweep):
        """HARP-U bypasses correction, so missed-indirect stays ~flat at its
        initial value (small overlap with direct bits allowed)."""
        result = fig8.from_sweep(sweep)
        for error_count in CONFIG.error_counts:
            for probability in CONFIG.probabilities:
                curve = result.curves[(error_count, probability, "HARP-U")]
                assert curve[-1] >= curve[0] * 0.8

    def test_harp_a_dominates_harp_u(self, sweep):
        result = fig8.from_sweep(sweep)
        for error_count in CONFIG.error_counts:
            for probability in CONFIG.probabilities:
                harp_a = result.curves[(error_count, probability, "HARP-A")]
                harp_u = result.curves[(error_count, probability, "HARP-U")]
                assert harp_a[-1] <= harp_u[-1] + 1e-9

    def test_missed_counts_non_increasing(self, sweep):
        result = fig8.from_sweep(sweep)
        for curve in result.curves.values():
            assert list(curve) == sorted(curve, reverse=True)


class TestFig9Claims:
    def test_harp_bounded_by_on_die_capability(self, sweep):
        """Paper Fig 9a: HARP words never exceed one simultaneous error
        after profiling completes (64 rounds at p>=0.5 suffice)."""
        result = fig9.from_sweep(sweep)
        for error_count in CONFIG.error_counts:
            for probability in CONFIG.probabilities:
                for name in ("HARP-U", "HARP-A"):
                    histogram = result.histograms[(error_count, probability, name)]
                    assert sum(histogram.counts[2:]) == 0, (error_count, probability, name)

    def test_harp_reaches_bound_no_later_than_naive(self, sweep):
        result = fig9.from_sweep(sweep)
        for error_count in CONFIG.error_counts:
            for probability in CONFIG.probabilities:
                harp = result.rounds_to_bound[(error_count, probability, "HARP-U", 1)]
                naive = result.rounds_to_bound[(error_count, probability, "Naive", 1)]
                if naive is not None:
                    assert harp is not None and harp <= naive

    def test_render(self, sweep):
        text = fig9.render(fig9.from_sweep(sweep))
        assert "Fig 9a" in text and "Fig 9b" in text


def _word(rounds: int, **metrics) -> WordMetrics:
    """A word's metrics over ``rounds`` rounds: zeros except ``metrics``."""
    zeros = (0,) * rounds
    defaults = dict(
        direct_total=0,
        direct_identified=zeros,
        indirect_total=0,
        indirect_missed=zeros,
        post_total=0,
        post_identified=zeros,
        capability=zeros,
        first_direct_round=rounds,
    )
    return WordMetrics(**{**defaults, **metrics})


def _one_cell(profiler: str, words: list[WordMetrics]) -> SweepResult:
    """A sweep of one (3 errors, P=0.5, ``profiler``) cell holding ``words``."""
    rounds = len(words[0].capability)
    config = SweepConfig(
        num_rounds=rounds, error_counts=(3,), probabilities=(0.5,), profilers=(profiler,)
    )
    key = (3, 0.5, profiler)
    return SweepResult(config=config, cells={key: SweepCell(*key, words)})


class TestReductionsOnHandBuiltCells:
    """Each figure's reduction over ``WordMetrics``, on cells with known answers."""

    def test_fig6_pools_identified_and_total_bits(self):
        sweep = _one_cell(
            "HARP-U",
            [
                _word(2, direct_total=2, direct_identified=(1, 2)),
                _word(2, direct_total=2, direct_identified=(0, 2)),
            ],
        )
        assert fig6.coverage_curve(sweep, 3, 0.5, "HARP-U") == [0.25, 1.0]

    def test_fig6_empty_targets(self):
        """Words without direct-risk bits add nothing to the pool, and a
        cell where no word has any reads full coverage."""
        mixed = _one_cell("HARP-U", [_word(1), _word(1, direct_total=1, direct_identified=(1,))])
        assert fig6.coverage_curve(mixed, 3, 0.5, "HARP-U") == [1.0]
        empty = _one_cell("HARP-U", [_word(2), _word(2)])
        assert fig6.coverage_curve(empty, 3, 0.5, "HARP-U") == [1.0, 1.0]

    def test_fig8_averages_missed_counts(self):
        sweep = _one_cell(
            "HARP-A",
            [_word(2, indirect_missed=(2, 0)), _word(2, indirect_missed=(4, 2))],
        )
        assert fig8.from_sweep(sweep).curves[(3, 0.5, "HARP-A")] == (3.0, 1.0)

    def test_fig9b_first_bounding_round(self):
        sweep = _one_cell(
            "HARP-A", [_word(4, capability=(3, 2, 1, 1)), _word(4, capability=(3, 3, 1, 0))]
        )
        assert fig9.rounds_to_capability(sweep, 3, 0.5, "HARP-A", bound=1) == 3
        assert fig9.rounds_to_capability(sweep, 3, 0.5, "HARP-A", bound=3) == 1
        never = _one_cell("HARP-A", [_word(2, capability=(2, 2))])
        assert fig9.rounds_to_capability(never, 3, 0.5, "HARP-A", bound=1) is None

    def test_fig9b_percentile_semantics(self):
        """q=50 tolerates one outlier word; q=100 does not."""
        sweep = _one_cell(
            "HARP-A",
            [_word(2, capability=c) for c in ((0, 0), (5, 5), (0, 0))],
        )
        assert fig9.rounds_to_capability(sweep, 3, 0.5, "HARP-A", bound=0, q=50.0) == 1
        assert fig9.rounds_to_capability(sweep, 3, 0.5, "HARP-A", bound=0, q=100.0) is None

    def test_fig7_censors_at_the_round_count(self):
        """Words that never identify a direct bit carry the round count,
        and count as censored."""
        sweep = _one_cell(
            "HARP-U", [_word(4, first_direct_round=r) for r in (1, 3, 4, 4)]
        )
        result = fig7.from_sweep(sweep)
        assert result.rounds[(3, 0.5, "HARP-U")] == (1, 3, 4, 4)
        assert result.median(3, 0.5, "HARP-U") == 3.5
        assert result.censored_fraction(3, 0.5, "HARP-U") == 0.5

    def test_fig9a_histograms_final_capability(self):
        """Only the last round counts, and values past the last bin pile
        into it."""
        finals = (0, 1, 1, fig9.MAX_CAPABILITY_BIN + 3)
        sweep = _one_cell("HARP-A", [_word(2, capability=(9, c)) for c in finals])
        histogram = fig9.from_sweep(sweep).histograms[(3, 0.5, "HARP-A")]
        assert histogram.counts == (1, 2, 0, 0, 0, 0, 1)

    def test_fig9b_table_covers_every_bound(self):
        """The 99th percentile of round 1's (2, 3, 3) is 3, and of round
        2's (1, 1, 1) is 1."""
        sweep = _one_cell(
            "HARP-A", [_word(2, capability=c) for c in ((3, 1), (3, 1), (2, 1))]
        )
        table = fig9.from_sweep(sweep).rounds_to_bound
        assert {bound: table[(3, 0.5, "HARP-A", bound)] for bound in range(1, 7)} == {
            1: 2,
            2: 2,
            3: 1,
            4: 1,
            5: 1,
            6: 1,
        }

    def test_from_sweep_keeps_only_plotted_profilers(self):
        """Each figure plots its own profilers that the sweep ran."""
        sweep = _one_cell("HARP-A", [_word(2)])
        assert fig6.from_sweep(sweep).profilers == ()
        assert fig6.from_sweep(sweep).curves == {}
        assert fig7.from_sweep(sweep).profilers == ()
        assert fig8.from_sweep(sweep).profilers == ("HARP-A",)
        assert fig9.from_sweep(sweep).profilers == ("HARP-A",)
