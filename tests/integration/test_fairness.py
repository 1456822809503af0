"""Integration tests: fairness (Thm 2.12) at small scale."""

import numpy as np
import pytest

from repro.analysis.markov import theoretical_stationary
from repro.core.diversification import Diversification
from repro.core.properties import is_fair
from repro.core.weights import WeightTable
from repro.engine.observers import OccupancyTracker
from repro.engine.population import Population
from repro.engine.simulator import Simulation
from repro.experiments.fairness import run_fairness
from repro.experiments.workloads import colours_from_counts, proportional_counts


@pytest.fixture(scope="module")
def long_run():
    weights = WeightTable([1.0, 2.0])
    n = 60
    protocol = Diversification(weights)
    population = Population.from_colours(
        colours_from_counts(proportional_counts(n, weights)), protocol, k=2
    )
    tracker = OccupancyTracker()
    simulation = Simulation(
        protocol, population, rng=9, observers=[tracker]
    )
    simulation.run(1_200_000)  # 20k parallel rounds
    return weights, tracker


class TestOccupancyConvergence:
    def test_every_agent_near_fair_shares(self, long_run):
        weights, tracker = long_run
        occupancy = tracker.occupancy_fractions()
        assert is_fair(occupancy, weights, tolerance=0.1)

    def test_mean_occupancy_tight(self, long_run):
        weights, tracker = long_run
        occupancy = tracker.occupancy_fractions()
        mean_occ = occupancy.mean(axis=0)
        np.testing.assert_allclose(
            mean_occ, weights.fair_shares(), atol=0.03
        )

    def test_dark_light_split_matches_pi(self, long_run):
        """Each agent spends ≈ π(D_i) dark and π(L_i) light (Sec 2.4)."""
        weights, tracker = long_run
        shade = tracker.shade_occupancy_fractions()  # (n, k, 2)
        pi = theoretical_stationary(weights)
        k = weights.k
        mean_dark = shade[:, :, 1].mean(axis=0)
        mean_light = shade[:, :, 0].mean(axis=0)
        np.testing.assert_allclose(mean_dark, pi[:k], atol=0.04)
        np.testing.assert_allclose(mean_light, pi[k:], atol=0.04)


class TestFairnessImprovesWithHorizon:
    def test_deviation_shrinks(self):
        weights = WeightTable([1.0, 2.0, 3.0])
        n = 48
        summaries = run_fairness(
            weights, n, horizons=[50 * n, 1600 * n], seed=10
        )
        assert (
            summaries[1]["mean_colour_dev"] < summaries[0]["mean_colour_dev"]
        )

    def test_summary_fields(self):
        weights = WeightTable([1.0, 1.0])
        summaries = run_fairness(weights, 30, horizons=[3000], seed=11)
        summary = summaries[0]
        for key in (
            "horizon",
            "max_colour_dev",
            "mean_colour_dev",
            "max_state_dev",
            "mean_state_dev",
        ):
            assert key in summary
        assert summary["horizon"] == 3000
