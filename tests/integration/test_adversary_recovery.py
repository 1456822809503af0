"""Integration tests: adversarial robustness (Sec 1 claims)."""

import numpy as np

from repro.adversary import (
    AddAgents,
    AddColour,
    InterventionSchedule,
    RecolourColour,
    run_with_interventions,
)
from repro.core.properties import diversity_error
from repro.core.weights import WeightTable
from repro.engine.aggregate import AggregateSimulation
from repro.experiments.workloads import worst_case_counts


def settled_engine(weights, n, seed, settle_steps=800_000):
    engine = AggregateSimulation(
        weights, dark_counts=worst_case_counts(n, weights.k), rng=seed
    )
    engine.run(settle_steps)
    return engine


class TestAgentFlood:
    def test_recovers_after_flood(self):
        weights = WeightTable([1.0, 2.0])
        engine = settled_engine(weights, 400, seed=0)
        engine.add_agents(0, 200, dark=True)  # flood the light colour
        spike = diversity_error(engine.colour_counts(), weights)
        assert spike > 0.15  # the shock is visible
        engine.run(1_500_000)
        recovered = diversity_error(engine.colour_counts(), weights)
        assert recovered < 0.08

    def test_population_grows_exactly(self):
        weights = WeightTable([1.0, 2.0])
        engine = settled_engine(weights, 300, seed=1, settle_steps=1000)
        engine.add_agents(1, 57)
        assert engine.n == 357


class TestColourAddition:
    def test_new_colour_reaches_fair_share(self):
        weights = WeightTable([1.0, 1.0])
        engine = settled_engine(weights, 400, seed=2)
        engine.add_colour(2.0, count=1, dark=True)  # lone dark newcomer
        engine.run(3_000_000)
        counts = engine.colour_counts()
        shares = counts / counts.sum()
        fair = weights.fair_shares()  # now includes the new colour
        np.testing.assert_allclose(shares, fair, atol=0.08)

    def test_new_colour_never_vanishes(self):
        weights = WeightTable([1.0, 1.0])
        engine = settled_engine(weights, 200, seed=3, settle_steps=100_000)
        colour = engine.add_colour(3.0, count=1, dark=True)
        for _ in range(50):
            engine.run(10_000)
            assert engine.dark_counts()[colour] >= 1


class TestColourRemoval:
    def test_recolour_redistributes(self):
        """The paper's red->blue example: after removal the remaining
        colours re-balance to their renormalised shares."""
        weights = WeightTable([1.0, 1.0, 2.0])
        engine = settled_engine(weights, 400, seed=4)
        engine.recolour(0, 1)
        assert engine.colour_counts()[0] == 0
        engine.run(2_000_000)
        counts = engine.colour_counts()
        shares = counts / counts.sum()
        # Colour 0 can never come back (no dark support) — shares of
        # colours 1 and 2 renormalise to 1/3 and 2/3... but note their
        # weights are unchanged, so targets stay w_i/w over survivors:
        # with colour 0 dead, survivors split mass ∝ (1, 2).
        assert shares[0] == 0.0
        np.testing.assert_allclose(shares[1:], [1 / 3, 2 / 3], atol=0.08)


class TestScheduledShocks:
    def test_schedule_applies_in_order(self):
        weights = WeightTable([1.0, 1.0])
        engine = AggregateSimulation(
            weights, dark_counts=[100, 100], rng=5
        )
        schedule = InterventionSchedule(
            [
                (1_000, AddAgents(0, 50)),
                (2_000, AddColour(1.0, 5)),
                (3_000, RecolourColour(0, 1)),
            ]
        )
        run_with_interventions(engine, 5_000, schedule)
        assert engine.time == 5_000
        assert engine.k == 3
        assert engine.n == 255
        assert engine.colour_counts()[0] == 0
