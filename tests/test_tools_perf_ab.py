"""The statistics of ``tools/perf_ab.py`` on synthetic samples."""

import importlib.util
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_ab.py"


@pytest.fixture(scope="module")
def perf_ab():
    spec = importlib.util.spec_from_file_location("perf_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [5.0, 5.2, 4.9, 5.1, 5.3, 5.0, 4.8, 5.2, 5.1, 5.0]


class TestPairStatistics:
    def test_ratios_are_per_pair(self, perf_ab):
        assert perf_ab.pair_ratios([2.0, 4.0], [1.0, 5.0]) == [0.5, 1.25]

    def test_zero_base_pairs_are_skipped(self, perf_ab):
        assert perf_ab.pair_ratios([0.0, 2.0], [1.0, 1.0]) == [0.5]

    def test_unequal_lengths_are_rejected(self, perf_ab):
        with pytest.raises(ValueError):
            perf_ab.pair_ratios([1.0], [1.0, 2.0])

    def test_wins_follow_the_better_direction(self, perf_ab):
        base, head = [1.0, 2.0, 3.0], [0.5, 2.0, 4.0]
        assert perf_ab.wins(base, head, "lower") == 1
        assert perf_ab.wins(base, head, "higher") == 1
        with pytest.raises(ValueError):
            perf_ab.wins(base, head, "sideways")

    def test_quartiles_of_a_known_sample(self, perf_ab):
        assert perf_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)


class TestBootstrap:
    def test_constant_ratio_has_a_degenerate_interval(self, perf_ab):
        head = [value * 0.9 for value in BASE]
        low, high = perf_ab.bootstrap_ratio_ci(BASE, head, seed=3)
        assert low == pytest.approx(0.9)
        assert high == pytest.approx(0.9)

    def test_interval_brackets_the_median_ratio(self, perf_ab):
        head = [a * r for a, r in zip(BASE, [0.85, 0.9, 0.95, 0.88, 0.92,
                                              0.87, 0.91, 0.89, 0.93, 0.86])]
        median = statistics.median(perf_ab.pair_ratios(BASE, head))
        low, high = perf_ab.bootstrap_ratio_ci(BASE, head, seed=3)
        assert 0.85 <= low <= median <= high <= 0.95

    def test_same_seed_same_interval(self, perf_ab):
        head = [a * (1.0 + 0.01 * i) for i, a in enumerate(BASE)]
        first = perf_ab.bootstrap_ratio_ci(BASE, head, seed=11)
        assert perf_ab.bootstrap_ratio_ci(BASE, head, seed=11) == first

    def test_no_usable_pairs_is_an_error(self, perf_ab):
        with pytest.raises(ValueError):
            perf_ab.bootstrap_ratio_ci([0.0], [1.0])


class TestSummary:
    def test_clear_speedup(self, perf_ab):
        head = [value * 0.8 for value in BASE]
        row = perf_ab.summarize(BASE, head, "lower")
        assert row["pairs"] == 10
        assert row["wins_b"] == 10
        assert row["median_a"] == statistics.median(BASE)
        assert row["median_b"] == pytest.approx(0.8 * statistics.median(BASE))
        assert row["ratio"] == pytest.approx(0.8)
        q1, q3 = perf_ab.quartiles(BASE)
        assert row["iqr_a"] == pytest.approx(q3 - q1)

    def test_single_pair_has_no_iqr(self, perf_ab):
        row = perf_ab.summarize([2.0], [1.0], "lower")
        assert "iqr_a" not in row
        assert row["ratio"] == 0.5

    def test_render_lists_every_metric(self, perf_ab):
        rows = {
            "wall_s": perf_ab.summarize(BASE, [v * 0.9 for v in BASE], "lower"),
            "completed_frac": perf_ab.summarize([1.0] * 3, [1.0] * 3, "higher"),
        }
        text = perf_ab.render("ecmp-chaos", rows)
        assert text.splitlines()[0] == "== ecmp-chaos"
        assert any(line.startswith("wall_s") for line in text.splitlines())
        assert any(line.startswith("completed_frac") for line in text.splitlines())


class TestVerdict:
    def test_clear_speedup_is_a_gain(self, perf_ab):
        row = perf_ab.summarize(BASE, [v * 0.8 for v in BASE], "lower", bound=0.2)
        assert row["verdict"] == "gain"

    def test_gain_in_a_higher_is_better_metric(self, perf_ab):
        row = perf_ab.summarize(BASE, [v * 1.2 for v in BASE], "higher")
        assert row["verdict"] == "gain"

    def test_eight_wins_in_ten_is_noise(self, perf_ab):
        head = [v * 0.8 for v in BASE]
        head[0] = BASE[0] * 1.01
        head[1] = BASE[1] * 1.01
        row = perf_ab.summarize(BASE, head, "lower", bound=0.2)
        assert row["wins_b"] == 8
        assert row["verdict"] == "noise"

    def test_nine_wins_in_ten_is_enough(self, perf_ab):
        head = [v * 0.8 for v in BASE]
        head[0] = BASE[0] * 1.01
        row = perf_ab.summarize(BASE, head, "lower", bound=0.2)
        assert row["wins_b"] == 9
        assert row["verdict"] == "gain"

    def test_a_gap_within_the_base_iqr_is_noise(self, perf_ab):
        # B wins every pair, but by less than A's own spread.
        row = perf_ab.summarize(BASE, [v - 0.01 for v in BASE], "lower")
        assert row["wins_b"] == 10
        assert row["iqr_a"] > 0.01
        assert row["verdict"] == "noise"

    def test_worse_than_the_bound(self, perf_ab):
        row = perf_ab.summarize(BASE, [v * 1.3 for v in BASE], "lower", bound=0.2)
        assert row["verdict"] == "worse"

    def test_worse_but_within_the_bound_is_noise(self, perf_ab):
        row = perf_ab.summarize(BASE, [v * 1.1 for v in BASE], "lower", bound=0.2)
        assert row["verdict"] == "noise"

    def test_worse_in_a_higher_is_better_metric(self, perf_ab):
        row = perf_ab.summarize([1.0] * 4, [0.95] * 4, "higher", bound=0.01)
        assert row["verdict"] == "worse"

    def test_no_bound_never_reads_worse(self, perf_ab):
        row = perf_ab.summarize(BASE, [v * 3.0 for v in BASE], "lower")
        assert row["verdict"] == "noise"

    def test_identical_samples_are_noise(self, perf_ab):
        row = perf_ab.summarize(BASE, list(BASE), "lower", bound=0.2)
        assert row["verdict"] == "noise"

    def test_render_shows_the_verdict(self, perf_ab):
        rows = {"wall_s": perf_ab.summarize(BASE, [v * 0.8 for v in BASE], "lower")}
        line = perf_ab.render("paper-poisson", rows).splitlines()[2]
        assert line.startswith("wall_s")
        assert line.endswith("gain")
