"""Unit tests for the empirical statistics helpers."""

import numpy as np
import pytest

from repro.analysis.statistics import (
    colour_survival,
    convergence_time,
    empirical_shares,
    fit_n_log_n,
    fit_power_law,
    max_share_error_series,
    occupancy_agreement,
    tv_distance,
)
from repro.core.weights import WeightTable
from repro.experiments.runner import run_aggregate


class TestTvDistance:
    def test_zero_for_equal(self):
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0

    def test_one_for_disjoint(self):
        assert tv_distance([1, 0], [0, 1]) == pytest.approx(1.0)


class TestShares:
    def test_snapshot(self):
        np.testing.assert_allclose(
            empirical_shares(np.array([1, 3])), [0.25, 0.75]
        )

    def test_series(self):
        shares = empirical_shares(np.array([[1, 3], [2, 2]]))
        np.testing.assert_allclose(shares, [[0.25, 0.75], [0.5, 0.5]])

    def test_error_series(self, skewed_weights):
        series = np.array([[100, 200, 300], [160, 140, 300]])
        errors = max_share_error_series(series, skewed_weights)
        np.testing.assert_allclose(errors, [0.0, 0.1])


class TestConvergenceTime:
    def test_simple_hit(self, skewed_weights):
        times = np.array([0, 10, 20, 30])
        series = np.array(
            [[600, 0, 0], [300, 150, 150], [110, 195, 295], [100, 200, 300]]
        )
        hit = convergence_time(times, series, skewed_weights, bound=0.05)
        assert hit == 20

    def test_requires_staying_inside(self, skewed_weights):
        times = np.array([0, 10, 20, 30])
        series = np.array(
            [[100, 200, 300], [600, 0, 0], [600, 0, 0], [100, 200, 300]]
        )
        hit = convergence_time(times, series, skewed_weights, bound=0.05)
        assert hit == 30  # t=0 is inside but does not stay

    def test_never_converges(self, skewed_weights):
        times = np.array([0, 10])
        series = np.array([[600, 0, 0], [590, 5, 5]])
        assert (
            convergence_time(times, series, skewed_weights, bound=0.01)
            is None
        )

    def test_dwell_fraction(self, skewed_weights):
        times = np.array([0, 1, 2, 3])
        series = np.array(
            [[100, 200, 300], [100, 200, 300], [600, 0, 0], [100, 200, 300]]
        )
        # With dwell 0.7, t=0 qualifies (3/4 of suffix inside).
        hit = convergence_time(
            times, series, skewed_weights, bound=0.05, dwell_fraction=0.7
        )
        assert hit == 0

    def test_dwell_validated(self, skewed_weights):
        with pytest.raises(ValueError):
            convergence_time(
                np.array([0]), np.array([[1, 2, 3]]), skewed_weights,
                0.1, dwell_fraction=0.0,
            )


class TestConvergenceTimeOnRecordedRuns:
    """``convergence_time`` read off whole recorded runs: the offline
    form of the question a live convergence watcher would answer."""

    def test_hits_after_a_worst_case_start(self):
        weights = WeightTable.uniform(2)
        record = run_aggregate(
            weights, 200, 200_000, start="worst", seed=5,
            record_interval=1000,
        )
        hit = convergence_time(
            record.times, record.colour_counts, weights, bound=0.2
        )
        # Colour 0 starts with 199 of 200 agents, far outside the band.
        assert hit is not None
        assert 0 < hit <= 200_000
        assert hit in record.times

    def test_immediate_hit_under_a_loose_bound(self):
        # With two colours no share is more than 1/2 from its fair 1/2.
        weights = WeightTable.uniform(2)
        record = run_aggregate(
            weights, 10, 500, start="worst", seed=1, record_interval=10
        )
        hit = convergence_time(
            record.times, record.colour_counts, weights, bound=0.5
        )
        assert hit == 0

    def test_no_hit_under_an_impossible_bound(self):
        weights = WeightTable.uniform(3)
        record = run_aggregate(
            weights, 30, 500, start="uniform", seed=2, record_interval=10
        )
        assert convergence_time(
            record.times, record.colour_counts, weights, bound=-1.0
        ) is None


class TestFits:
    def test_power_law_exact(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3.0 * x**-0.5
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(-0.5)
        assert fit.coefficient == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_power_law_validates(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, -2.0]), np.array([1.0, 2.0]))

    def test_n_log_n_exact(self):
        ns = np.array([128.0, 256.0, 512.0, 1024.0])
        ts = 5.0 * ns * np.log(ns)
        fit = fit_n_log_n(ns, ts)
        assert fit.constant == pytest.approx(5.0)
        assert fit.relative_residual == pytest.approx(0.0, abs=1e-12)

    def test_n_log_n_detects_mismatch(self):
        ns = np.array([128.0, 256.0, 512.0, 1024.0])
        ts = ns**2  # wrong shape -> residual clearly nonzero
        fit = fit_n_log_n(ns, ts)
        assert fit.relative_residual > 0.1


class TestSurvivalAndOccupancy:
    def test_colour_survival(self):
        series = np.array([[1, 5, 3], [2, 0, 3], [1, 1, 3]])
        np.testing.assert_array_equal(
            colour_survival(series), [True, False, True]
        )

    def test_occupancy_agreement_perfect(self, skewed_weights):
        occupancy = np.tile(skewed_weights.fair_shares(), (5, 1))
        stats = occupancy_agreement(occupancy, skewed_weights)
        assert stats["max_abs_deviation"] == pytest.approx(0.0)
        assert stats["mean_tv"] == pytest.approx(0.0)

    def test_occupancy_agreement_detects_outlier(self, skewed_weights):
        occupancy = np.tile(skewed_weights.fair_shares(), (5, 1))
        occupancy[0] = [1.0, 0.0, 0.0]
        stats = occupancy_agreement(occupancy, skewed_weights)
        assert stats["max_abs_deviation"] == pytest.approx(5 / 6)
        assert stats["max_tv"] > stats["mean_tv"]
