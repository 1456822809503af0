"""Integration tests: qualitative behaviour of the baseline dynamics."""

import pytest

from repro.baselines import (
    AntiVoterModel,
    ThreeMajority,
    TrivialResampling,
    TwoChoices,
    VoterModel,
)
from repro.core.weights import WeightTable
from repro.engine.observers import MinCountTracker
from repro.engine.population import Population
from repro.engine.simulator import Simulation


def run_protocol(protocol, colours, steps, seed, observers=()):
    k = max(colours) + 1
    population = Population.from_colours(colours, protocol, k=k)
    simulation = Simulation(
        protocol, population, rng=seed, observers=list(observers)
    )
    simulation.run(steps)
    return population


class TestConsensusBaselines:
    def test_voter_reaches_consensus(self):
        population = run_protocol(
            VoterModel(), [0] * 20 + [1] * 20, steps=60_000, seed=0
        )
        counts = population.colour_counts()
        assert counts.max() == 40  # consensus: one colour holds all

    def test_two_choices_kills_minority(self):
        population = run_protocol(
            TwoChoices(), [0] * 50 + [1] * 14, steps=100_000, seed=1
        )
        assert population.colour_counts()[1] == 0

    def test_three_majority_collapses_plurality(self):
        population = run_protocol(
            ThreeMajority(), [0] * 40 + [1] * 12 + [2] * 12,
            steps=150_000, seed=2,
        )
        counts = population.colour_counts()
        assert counts.max() >= 60  # near-consensus on the plurality

    def test_voter_violates_sustainability(self):
        tracker = MinCountTracker()
        run_protocol(
            VoterModel(), [0] * 30 + [1] * 2, steps=50_000, seed=3,
            observers=[tracker],
        )
        assert tracker.min_colour_counts.min() == 0


class TestAntiVoter:
    def test_equilibrates_near_half(self):
        population = run_protocol(
            AntiVoterModel(), [0] * 38 + [1] * 2, steps=40_000, seed=4
        )
        share = population.colour_counts()[0] / 40
        assert 0.25 < share < 0.75

    def test_agents_keep_switching(self):
        """The anti-voter equilibrium is dynamic, not frozen."""
        protocol = AntiVoterModel()
        population = Population.from_colours([0] * 10 + [1] * 10, protocol)
        simulation = Simulation(protocol, population, rng=5)
        simulation.run(5_000)
        early_changes = simulation.changes
        simulation.run(5_000)
        assert simulation.changes > early_changes


class TestTrivialResampling:
    def test_reaches_shares_in_expectation(self):
        weights = WeightTable([1.0, 3.0])
        population = run_protocol(
            TrivialResampling(weights), [0] * 40, steps=20_000, seed=6
        )
        share = population.colour_counts()[1] / 40
        assert share == pytest.approx(0.75, abs=0.2)

    def test_counts_touch_zero_eventually(self):
        """Not sustainable: with few agents the minority colour count
        hits zero at some point (binomial fluctuation)."""
        weights = WeightTable([1.0, 8.0])
        tracker = MinCountTracker()
        run_protocol(
            TrivialResampling(weights), [0] * 6 + [1] * 2,
            steps=30_000, seed=7, observers=[tracker],
        )
        assert tracker.min_colour_counts[0] == 0
