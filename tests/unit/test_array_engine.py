"""Unit tests for the vectorised agent-level engine: kernel registry,
construction validation, stepping semantics and engine routing."""

import numpy as np
import pytest

from repro.baselines.three_majority import ThreeMajority
from repro.baselines.voter import VoterModel
from repro.core.ablations import EagerRecolouring, UnweightedLightening
from repro.core.derandomised import DerandomisedDiversification
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine.array_engine import (
    _BLOCK,
    ArraySimulation,
    has_kernel,
    kernel_for,
    supports_topology,
)
from repro.engine.observers import Observer
from repro.engine.population import Population
from repro.topology import CompleteGraph, CycleGraph


def build(n=12, k=3, seed=0, **kwargs):
    weights = WeightTable.uniform(k)
    colours = np.arange(n) % k
    return ArraySimulation(
        Diversification(weights), colours, k=k, rng=seed, **kwargs
    )


class TestKernelRegistry:
    def test_kernelised_protocols(self):
        weights = WeightTable([1.0, 2.0])
        for protocol in (
            Diversification(weights),
            UnweightedLightening(weights),
            VoterModel(),
            ThreeMajority(),
        ):
            assert has_kernel(protocol)
            assert kernel_for(protocol) is not None

    def test_unkernelised_protocols(self):
        weights = WeightTable([1.0, 2.0])
        assert not has_kernel(EagerRecolouring(weights))
        assert not has_kernel(DerandomisedDiversification(weights))

    def test_subclass_does_not_inherit_kernel(self):
        """A subclass may override transition; exact type match only."""

        class Custom(Diversification):
            def transition(self, u, sampled, rng):
                return u

        assert not has_kernel(Custom(WeightTable([1.0])))

    def test_unkernelised_protocol_rejected_by_engine(self):
        weights = WeightTable([1.0, 2.0])
        with pytest.raises(ValueError, match="no vectorised kernel"):
            ArraySimulation(
                EagerRecolouring(weights), np.array([0, 1]), k=2
            )


class TestTopologySupport:
    def test_supported(self):
        assert supports_topology(None)
        assert supports_topology(CompleteGraph(8))
        assert supports_topology(CycleGraph(8))

    def test_unsupported(self):
        class Opaque:
            n = 8

        assert not supports_topology(Opaque())
        with pytest.raises(ValueError, match="neighbour_arrays"):
            build(n=8, topology=Opaque())

    def test_topology_size_must_match(self):
        with pytest.raises(ValueError):
            build(n=10, topology=CycleGraph(5))

    def test_complete_graph_object_matches_none(self):
        """topology=CompleteGraph(n) draws the same stream as None."""
        a = build(n=16, seed=5).run(2000)
        b = build(n=16, seed=5, topology=CompleteGraph(16)).run(2000)
        np.testing.assert_array_equal(
            a.colour_counts(), b.colour_counts()
        )


class TestConstruction:
    def test_requires_two_agents(self):
        with pytest.raises(ValueError):
            build(n=1)

    def test_negative_colours_rejected(self):
        with pytest.raises(ValueError):
            ArraySimulation(
                Diversification(WeightTable([1.0])), np.array([0, -1])
            )

    def test_k_too_small_rejected(self):
        with pytest.raises(ValueError):
            ArraySimulation(
                Diversification(WeightTable([1.0])),
                np.array([0, 1]),
                k=1,
            )

    def test_accepts_population(self):
        weights = WeightTable.uniform(2)
        protocol = Diversification(weights)
        population = Population.from_colours([0, 1, 0, 1], protocol)
        simulation = ArraySimulation(protocol, population, rng=0)
        assert simulation.n == 4
        assert simulation.k == 2
        np.testing.assert_array_equal(
            simulation.colour_counts(), population.colour_counts()
        )

    def test_shades_default_to_initial_state(self):
        simulation = build(n=6)
        # Diversification starts everyone dark.
        np.testing.assert_array_equal(
            simulation.dark_counts(), simulation.colour_counts()
        )

    def test_shade_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArraySimulation(
                Diversification(WeightTable([1.0])),
                np.array([0, 0, 0]),
                shades=np.array([1, 1]),
            )

    def test_two_dimensional_colours_rejected(self):
        """One engine is one run: a 2-D start is not a population."""
        with pytest.raises(ValueError, match="flat"):
            ArraySimulation(
                Diversification(WeightTable([1.0])),
                np.zeros((3, 4), dtype=np.int64),
            )

    @pytest.mark.parametrize(
        "colours", [[0.5, 1.2, 1.0], [0.0, 1.0, np.nan], [0.0, np.inf, 1.0]]
    )
    def test_non_integer_colours_rejected(self, colours):
        with pytest.raises(ValueError, match="colours must be whole"):
            ArraySimulation(
                Diversification(WeightTable.uniform(2)), colours, k=2
            )

    def test_non_integer_shades_rejected(self):
        with pytest.raises(ValueError, match="shades must be whole"):
            ArraySimulation(
                Diversification(WeightTable.uniform(2)), [0, 1, 1],
                shades=[1.7, 0.2, 1.0],
            )

    def test_whole_number_floats_accepted(self):
        """``1.0`` is a whole number: float input runs as its integers."""
        simulation = ArraySimulation(
            Diversification(WeightTable.uniform(2)),
            np.array([0.0, 1.0, 1.0]), shades=[1.0, 0.0, 1.0], rng=0,
        )
        np.testing.assert_array_equal(simulation.colour_counts(), [1, 2])
        np.testing.assert_array_equal(simulation.dark_counts(), [1, 1])

    def test_colour_set_growth_rejected_between_runs(self):
        weights = WeightTable([1.0, 2.0])
        simulation = ArraySimulation(
            Diversification(weights), np.array([0, 1, 0, 1]), rng=0
        )
        simulation.run(10)
        weights.add_colour(3.0)
        with pytest.raises(ValueError, match="grew"):
            simulation.run(10)


class TestStepping:
    def test_run_negative_rejected(self):
        with pytest.raises(ValueError):
            build().run(-1)

    def test_time_advances(self):
        simulation = build()
        simulation.run(123)
        assert simulation.time == 123

    def test_step_equals_run_one(self):
        a = build(n=16, seed=7)
        b = build(n=16, seed=7)
        for _ in range(40):
            a.step()
        b.run(40)
        np.testing.assert_array_equal(a.colour_counts(), b.colour_counts())
        np.testing.assert_array_equal(a.dark_counts(), b.dark_counts())
        assert a.time == b.time == 40

    def test_step_reports_change(self):
        simulation = build(n=8, k=2, seed=3)
        results = [simulation.step() for _ in range(200)]
        assert any(results)
        assert simulation.changes == sum(results)

    def test_voter_consensus_is_absorbing(self):
        simulation = ArraySimulation(
            VoterModel(), np.array([0, 1, 0, 1, 1, 0]), k=2, rng=1
        )
        simulation.run(5000)
        counts = simulation.colour_counts()
        assert counts.max() == 6  # consensus reached at this horizon
        changes = simulation.changes
        simulation.run(500)
        assert simulation.changes == changes  # absorbed


class TestRefillDraws:
    """A refill draws the block's initiators with one
    ``rng.integers(0, n, _BLOCK)`` call, then its partner uniforms,
    then its coins (one per step for Diversification): the engine's
    buffer replays on a generator at the state the refill started
    from."""

    def assert_refill(self, simulation, state, n):
        reference = np.random.default_rng()
        reference.bit_generator.state = state
        view = simulation.snapshot()
        initiators = reference.integers(0, n, size=_BLOCK)
        draw = (reference.random((_BLOCK, 1)) * (n - 1)).astype(np.int64)
        np.testing.assert_array_equal(view["buf_init"], initiators)
        np.testing.assert_array_equal(
            view["buf_partners"], draw + (draw >= initiators[:, None])
        )
        np.testing.assert_array_equal(
            view["buf_coins"], reference.random((_BLOCK, 1))
        )

    def test_fresh_engine(self):
        simulation = build(n=12, seed=21).run(1)
        self.assert_refill(
            simulation, np.random.default_rng(21).bit_generator.state, 12
        )

    def test_grown_engine(self):
        simulation = build(n=12, seed=21).run(300)
        simulation.add_agents(1, 5)
        state = simulation.rng.bit_generator.state
        simulation.run(1)
        self.assert_refill(simulation, state, 17)


class TestObserverBridge:
    def test_on_change_sees_exact_state(self):
        """Every callback's (old, new) pair matches the population
        delta, and time is strictly increasing within a run."""

        class Recording(Observer):
            def __init__(self):
                self.events = []

            def on_change(self, simulation, agent, old, new):
                view = simulation.population
                self.events.append(
                    (
                        simulation.time,
                        agent,
                        old,
                        new,
                        view.state_of(agent),
                    )
                )

        observer = Recording()
        simulation = build(n=20, seed=2, observers=[observer])
        simulation.run(3000)
        assert observer.events
        assert simulation.changes == len(observer.events)
        times = [event[0] for event in observer.events]
        assert times == sorted(times)
        assert times[-1] <= 3000
        for _, _, old, new, current in observer.events:
            assert old != new
            assert current == new  # state applied before the callback
