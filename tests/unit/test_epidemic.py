"""Unit tests for the SIS epidemic baseline."""

import pytest

from repro.baselines.epidemic import SISEpidemic
from repro.core.state import dark
from repro.engine.population import Population
from repro.engine.simulator import Simulation


class FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestConstruction:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            SISEpidemic(transmission=1.5, recovery=0.5)
        with pytest.raises(ValueError):
            SISEpidemic(transmission=0.5, recovery=-0.1)

    def test_states_limited_to_two(self):
        protocol = SISEpidemic(0.5, 0.5)
        with pytest.raises(ValueError):
            protocol.initial_state(2)


class TestTransitions:
    def test_infected_recovers_on_coin(self):
        protocol = SISEpidemic(transmission=1.0, recovery=0.3)
        new = protocol.transition(dark(1), [dark(0)], FixedRng(0.2))
        assert new.colour == 0

    def test_infected_stays_on_coin_failure(self):
        protocol = SISEpidemic(transmission=1.0, recovery=0.3)
        state = dark(1)
        assert protocol.transition(state, [dark(1)], FixedRng(0.9)) is state

    def test_susceptible_infected_by_contact(self):
        protocol = SISEpidemic(transmission=0.7, recovery=0.0)
        new = protocol.transition(dark(0), [dark(1)], FixedRng(0.5))
        assert new.colour == 1

    def test_susceptible_safe_from_susceptible(self):
        protocol = SISEpidemic(transmission=1.0, recovery=0.0)
        state = dark(0)
        assert protocol.transition(state, [dark(0)], FixedRng(0.0)) is state


class TestDynamics:
    def run_epidemic(self, transmission, recovery, seed, n=100,
                     infected=10, steps=120_000):
        protocol = SISEpidemic(transmission, recovery)
        colours = [1] * infected + [0] * (n - infected)
        population = Population.from_colours(colours, protocol, k=2)
        Simulation(protocol, population, rng=seed).run(steps)
        return int(population.colour_counts()[1])

    def test_subcritical_epidemic_dies(self):
        """transmission << recovery: infection goes extinct — the
        canonical non-sustainable dynamic."""
        extinctions = sum(
            self.run_epidemic(0.05, 0.8, seed) == 0 for seed in range(5)
        )
        assert extinctions == 5

    def test_supercritical_epidemic_persists(self):
        survivors = [
            self.run_epidemic(0.9, 0.05, seed) for seed in range(5)
        ]
        assert all(count > 20 for count in survivors)

    def test_extinction_is_absorbing(self):
        protocol = SISEpidemic(0.9, 0.5)
        population = Population.from_colours([0] * 20, protocol, k=2)
        simulation = Simulation(protocol, population, rng=0)
        simulation.run(10_000)
        assert population.colour_counts()[1] == 0
