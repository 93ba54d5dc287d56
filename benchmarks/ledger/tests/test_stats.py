"""The ledger's arithmetic: percentile rule, spreads, bound comparison."""

import statistics

import pytest

from benchmarks.ledger import stats


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1, 2], 0)


def test_samples_beyond_counts_strictly_above_the_rank():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(100, 99) == 1
    assert stats.samples_beyond(1008, 99) == 10
    assert stats.samples_beyond(72, 50) == 36
    assert stats.samples_beyond(0, 50) == 0


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),    # p50 leaves 5 beyond
        (19, None),    # p50 leaves 9 beyond
        (20, 50.0),
        (39, 50.0),    # p75 leaves 9 beyond
        (40, 75.0),
        (99, 75.0),    # p90 leaves 9 beyond
        (100, 90.0),
        (168, 90.0),   # the issue's storm: p90, not p95 (8 beyond)
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (1008, 99.0),  # the issue's epochs: 1,008 samples, 10 beyond p99
        (10_000, 99.9),
    ],
)
def test_highest_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected


def test_quartiles_match_the_driver_formula():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([2.0]) == 0.0
    summary = stats.summarize(values)
    assert summary["median"] == statistics.median(values)
    assert summary["rounds"] == values


def test_worsening_is_signed_by_direction():
    assert stats.worsening(100, 110, "lower") == pytest.approx(0.10)
    assert stats.worsening(100, 90, "lower") == pytest.approx(-0.10)
    assert stats.worsening(100, 90, "higher") == pytest.approx(0.10)
    assert stats.worsening(100, 110, "higher") == pytest.approx(-0.10)
    with pytest.raises(ValueError):
        stats.worsening(1, 2, "sideways")


def test_compare_metric_statuses():
    tight_a = [100, 101, 99, 100, 100.5]
    # Within the bound and within A's own noise: unchanged.
    assert stats.compare_metric(tight_a, [101, 100, 102, 101, 100], "lower", 0.10) == "unchanged"
    # 20 % slower at a 10 % bound: regressed.
    assert stats.compare_metric(tight_a, [120, 121, 119, 120, 122], "lower", 0.10) == "regressed"
    # 5 % faster, far outside A's quartile distance: improved.
    assert stats.compare_metric(tight_a, [95, 95.5, 94.5, 95, 95.2], "lower", 0.10) == "improved"
    # Same numbers read as a throughput: lower is now worse.
    assert stats.compare_metric(tight_a, [80, 81, 79, 80, 82], "higher", 0.10) == "regressed"
    assert stats.compare_metric(tight_a, [120, 121, 119, 120, 122], "higher", 0.10) == "improved"


def test_compare_metric_unresolved_when_spread_exceeds_bound():
    noisy = [80, 100, 120, 90, 130]  # spread far above 10 %
    assert stats.compare_metric(noisy, [85, 105, 115, 95, 125], "lower", 0.10) == "unresolved"
    # ... unless every run of one side beats every run of the other.
    assert stats.compare_metric(noisy, [50, 55, 60, 52, 58], "lower", 0.10) == "improved"
    assert stats.compare_metric(noisy, [200, 220, 240, 210, 230], "lower", 0.10) == "regressed"


def test_compare_results_walks_every_pair_and_refuses_mixed_modes():
    def result(mode, wall):
        return {
            "mode": mode,
            "workloads": {
                "storm": {"end_to_end": {"wall_s": stats.summarize(wall)}},
            },
        }

    specs = [{"name": "wall_s", "better": "lower", "bound": 0.10},
             {"name": "absent", "better": "lower", "bound": 0.10}]
    rows = stats.compare_results(
        result("full", [1.0, 1.01, 0.99]), result("full", [1.5, 1.51, 1.49]), specs
    )
    assert rows == [("storm", "wall_s", "regressed", 1.0, 1.5)]
    with pytest.raises(ValueError):
        stats.compare_results(result("full", [1.0]), result("quick", [1.0]), specs)
