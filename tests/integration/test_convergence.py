"""Integration tests: end-to-end convergence behaviour (Thms 1.3, 2.13)."""

import numpy as np

from repro.core.properties import (
    diversity_bound,
    diversity_error,
    equilibrium_dark_counts,
    equilibrium_light_counts,
)
from repro.core.weights import WeightTable
from repro.engine.aggregate import AggregateSimulation
from repro.experiments.convergence import (
    measure_convergence_time,
    measure_stabilised_error,
)
from repro.experiments.workloads import worst_case_counts


class TestConvergenceToFairShares:
    def test_unit_weights_uniform_partition(self):
        weights = WeightTable.uniform(4)
        engine = AggregateSimulation(
            weights, dark_counts=worst_case_counts(400, 4), rng=0
        )
        engine.run(600_000)
        shares = engine.colour_counts() / engine.n
        np.testing.assert_allclose(shares, 0.25, atol=0.07)

    def test_skewed_weights(self):
        weights = WeightTable([1.0, 2.0, 5.0])
        engine = AggregateSimulation(
            weights, dark_counts=worst_case_counts(400, 3), rng=1
        )
        engine.run(3_000_000)
        shares = engine.colour_counts() / engine.n
        np.testing.assert_allclose(
            shares, weights.fair_shares(), atol=0.07
        )

    def test_heavily_skewed_minority_rises(self):
        """Phase 1 claim: a singleton colour reaches its fair share."""
        weights = WeightTable([1.0, 1.0])
        engine = AggregateSimulation(
            weights, dark_counts=[499, 1], rng=2
        )
        engine.run(1_500_000)
        assert engine.colour_counts()[1] > 150

    def test_dark_light_split_reaches_eq7(self):
        """Thm 2.13: A_i ≈ w_i n/(1+w), a_i ≈ (w_i/w) n/(1+w)."""
        weights = WeightTable([1.0, 3.0])
        n = 800
        engine = AggregateSimulation(
            weights, dark_counts=worst_case_counts(n, 2), rng=3
        )
        engine.run(2_000_000)
        dark_target = equilibrium_dark_counts(n, weights)
        light_target = equilibrium_light_counts(n, weights)
        # Average over a window to kill single-snapshot noise.
        dark_sum = np.zeros(2)
        light_sum = np.zeros(2)
        samples = 50
        for _ in range(samples):
            engine.run(n)
            dark_sum += engine.dark_counts()
            light_sum += engine.light_counts()
        np.testing.assert_allclose(
            dark_sum / samples, dark_target, rtol=0.15
        )
        np.testing.assert_allclose(
            light_sum / samples, light_target, rtol=0.3
        )


class TestMeasurementHelpers:
    def test_convergence_time_found_and_reasonable(self):
        weights = WeightTable([1.0, 2.0])
        hit = measure_convergence_time(weights, 256, seed=4)
        assert hit is not None
        # O(w^2 n log n) with w=3: generous sanity window.
        assert 0 < hit < 30 * 9 * 256 * np.log(256)

    def test_stabilised_error_within_band(self):
        weights = WeightTable([1.0, 2.0])
        error = measure_stabilised_error(weights, 512, seed=5)
        assert error <= 2.0 * diversity_bound(512)

    def test_error_shrinks_with_n(self):
        weights = WeightTable.uniform(3)
        small = np.mean([
            measure_stabilised_error(weights, 128, seed=s)
            for s in range(3)
        ])
        large = np.mean([
            measure_stabilised_error(weights, 1024, seed=s)
            for s in range(3)
        ])
        assert large < small


class TestStaysConverged:
    def test_error_stays_bounded_over_long_window(self):
        """Diversity must *persist* (the T window of Def 1.1(1))."""
        weights = WeightTable([1.0, 2.0])
        n = 512
        engine = AggregateSimulation(
            weights, dark_counts=worst_case_counts(n, 2), rng=6
        )
        engine.run(1_000_000)
        bound = 1.5 * diversity_bound(n)
        for _ in range(100):
            engine.run(2 * n)
            assert diversity_error(engine.colour_counts(), weights) <= bound
