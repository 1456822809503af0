"""Unit tests for experiment-module helper functions."""

import numpy as np
import pytest

from repro.core.weights import WeightTable
from repro.experiments.phase1 import hitting_times
from repro.experiments.phases import potential_series
from repro.experiments.robustness import recovery_time_after
from repro.experiments.runner import run_aggregate
from repro.experiments.variants import _stabilised_share_error


class TestPotentialSeries:
    def test_series_shapes_and_start(self, skewed_weights):
        record = run_aggregate(
            skewed_weights, n=120, steps=20_000, seed=0,
            record_interval=1000, start="worst",
        )
        series = potential_series(record)
        length = len(record.times)
        assert len(series["phi"]) == length
        assert len(series["psi"]) == length
        assert len(series["sigma_sq"]) == length
        # All-dark start: psi(0) = 0, sigma(0) = (n/w)^2.
        assert series["psi"][0] == pytest.approx(0.0)
        assert series["sigma_sq"][0] == pytest.approx((120 / 6.0) ** 2)

    def test_potentials_non_negative(self, skewed_weights):
        record = run_aggregate(
            skewed_weights, n=90, steps=10_000, seed=1
        )
        series = potential_series(record)
        for key in ("phi", "psi", "sigma_sq"):
            assert (series[key] >= -1e-9).all()


class TestRecoveryTimeAfter:
    def test_finds_first_recovery(self, skewed_weights):
        times = np.array([0, 10, 20, 30])
        counts = np.array(
            [[100, 200, 300], [400, 100, 100], [110, 195, 295],
             [100, 200, 300]]
        )
        hit = recovery_time_after(times, counts, skewed_weights, 10, 0.05)
        assert hit == 20

    def test_none_when_never_recovering(self, skewed_weights):
        times = np.array([0, 10])
        counts = np.array([[100, 200, 300], [400, 100, 100]])
        assert recovery_time_after(
            times, counts, skewed_weights, 0, 0.01
        ) is None

    def test_ignores_snapshots_before_shock(self, skewed_weights):
        times = np.array([0, 10, 20])
        counts = np.array(
            [[100, 200, 300], [100, 200, 300], [400, 100, 100]]
        )
        # In-band snapshot at t=10 is ignored because shock is at 15.
        assert recovery_time_after(
            times, counts, skewed_weights, 15, 0.05
        ) is None


class TestStabilisedShareError:
    def test_tail_only(self, skewed_weights):
        record = run_aggregate(
            skewed_weights, n=120, steps=60_000, seed=2,
            record_interval=1000,
        )
        error, shares = _stabilised_share_error(record, skewed_weights)
        assert 0 <= error <= 1
        assert shares.shape == (3,)
        assert shares.sum() == pytest.approx(1.0)


class TestHittingTimes:
    def test_returns_both_times(self):
        weights = WeightTable([1.0, 2.0])
        result = hitting_times(weights, 96, seed=3)
        assert result["t1"] is not None
        assert result["t2"] is not None
        assert result["t2"] >= result["t1"]

    def test_epsilon_affects_targets(self):
        """A looser epsilon cannot make hitting slower on average —
        spot-check with a shared seed."""
        weights = WeightTable([1.0, 2.0])
        tight = hitting_times(weights, 96, epsilon=0.05, seed=4)
        loose = hitting_times(weights, 96, epsilon=0.3, seed=4)
        assert loose["t1"] <= tight["t1"]
