"""Unit tests for the engine observers."""

import numpy as np
import pytest

from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine.observers import MinCountTracker, OccupancyTracker
from repro.engine.population import Population
from repro.engine.simulator import Simulation


def build_simulation(n=12, weights=None, seed=0, observers=()):
    weights = weights or WeightTable.uniform(3)
    protocol = Diversification(weights)
    colours = [i % weights.k for i in range(n)]
    population = Population.from_colours(colours, protocol, k=weights.k)
    return Simulation(protocol, population, rng=seed, observers=list(observers))


class TestOccupancyTracker:
    def test_fractions_sum_to_one(self):
        tracker = OccupancyTracker()
        simulation = build_simulation(observers=[tracker])
        simulation.run(5000)
        occupancy = tracker.occupancy_fractions()
        np.testing.assert_allclose(occupancy.sum(axis=1), 1.0)

    def test_shape(self):
        tracker = OccupancyTracker()
        simulation = build_simulation(n=10, observers=[tracker])
        simulation.run(1000)
        assert tracker.occupancy_fractions().shape == (10, 3)
        assert tracker.shade_occupancy_fractions().shape == (10, 3, 2)

    def test_shade_fractions_sum_to_one(self):
        tracker = OccupancyTracker()
        simulation = build_simulation(observers=[tracker])
        simulation.run(5000)
        shade = tracker.shade_occupancy_fractions()
        np.testing.assert_allclose(shade.sum(axis=(1, 2)), 1.0)

    def test_no_time_elapsed_raises(self):
        tracker = OccupancyTracker()
        build_simulation(observers=[tracker])  # on_start not yet called
        with pytest.raises((ValueError, AttributeError, TypeError)):
            tracker.occupancy_fractions()

    def test_frozen_agent_full_occupancy(self):
        """An agent that never changes spends all time in its colour."""

        class ChangeLog:
            def __init__(self):
                self.agents = set()

            def on_start(self, simulation):
                pass

            def on_change(self, simulation, agent, old, new):
                self.agents.add(agent)

            def on_end(self, simulation):
                pass

        tracker = OccupancyTracker()
        log = ChangeLog()
        # A huge second weight keeps colour-1 agents almost always
        # frozen (lightening coin 1/500), so some agents never change.
        weights = WeightTable([1.0, 500.0])
        protocol = Diversification(weights)
        colours = [0] * 5 + [1] * 5
        population = Population.from_colours(colours, protocol)
        simulation = Simulation(
            protocol, population, rng=4, observers=[tracker, log]
        )
        simulation.run(2000)
        frozen = set(range(10)) - log.agents
        assert frozen, "no agent stayed frozen; pick another seed"
        occupancy = tracker.occupancy_fractions()
        for agent in frozen:
            assert occupancy[agent, colours[agent]] == pytest.approx(1.0)

    def test_accumulates_across_runs(self):
        tracker = OccupancyTracker()
        simulation = build_simulation(observers=[tracker])
        simulation.run(1000)
        first = tracker.occupancy_fractions().copy()
        simulation.run(4000)
        second = tracker.occupancy_fractions()
        assert second.shape == first.shape
        np.testing.assert_allclose(second.sum(axis=1), 1.0)


class TestMinCountTracker:
    def test_tracks_minimum(self):
        tracker = MinCountTracker()
        simulation = build_simulation(n=12, observers=[tracker])
        simulation.run(3000)
        final = simulation.population.colour_counts()
        assert (tracker.min_colour_counts <= final).all()

    def test_diversification_keeps_dark_counts_positive(self):
        tracker = MinCountTracker()
        simulation = build_simulation(n=12, observers=[tracker])
        simulation.run(5000)
        assert (tracker.min_dark_counts >= 1).all()

    def test_grows_with_new_colours(self):
        tracker = MinCountTracker()
        weights = WeightTable.uniform(2)
        simulation = build_simulation(
            n=8, weights=weights, observers=[tracker]
        )
        simulation.run(100)
        weights.add_colour(1.0)
        from repro.core.state import dark

        simulation.population.add_agent(dark(2))
        simulation.run(100)
        assert len(tracker.min_colour_counts) == 3
