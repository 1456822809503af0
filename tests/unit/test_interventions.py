"""Unit tests for adversary interventions and schedules."""

import numpy as np
import pytest

from repro.adversary import (
    AddAgents,
    AddColour,
    InterventionSchedule,
    RecolourColour,
    run_with_interventions,
)
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine.aggregate import AggregateSimulation
from repro.engine.array_engine import ArraySimulation
from repro.engine.batched import BatchedAggregateSimulation
from repro.engine.population import Population
from repro.engine.simulator import Simulation
from repro.experiments.recorder import CountRecorder


def build_agent_engine(seed=0):
    weights = WeightTable([1.0, 2.0])
    protocol = Diversification(weights)
    population = Population.from_colours([0] * 6 + [1] * 6, protocol, k=2)
    return Simulation(protocol, population, rng=seed), weights


def build_aggregate_engine(seed=0):
    weights = WeightTable([1.0, 2.0])
    return AggregateSimulation(weights, dark_counts=[6, 6], rng=seed), weights


def build_batched_engine(seed=0, replications=3):
    weights = WeightTable([1.0, 2.0])
    engine = BatchedAggregateSimulation(
        weights, [6, 6], replications=replications, rng=seed
    )
    return engine, weights


def build_array_engine(seed=0):
    weights = WeightTable([1.0, 2.0])
    protocol = Diversification(weights)
    engine = ArraySimulation(
        protocol, np.array([0] * 6 + [1] * 6), k=2, rng=seed
    )
    return engine, weights


class TestAddAgents:
    def test_agent_engine(self):
        simulation, _ = build_agent_engine()
        AddAgents(colour=1, count=4, dark=True).apply(simulation)
        assert simulation.population.n == 16
        assert simulation.population.dark_counts()[1] == 10

    def test_agent_engine_rejects_growth_on_csr_topology(self):
        """The cycle cannot reach the added agents: the next run raises
        before any step samples, leaving clock and generator alone."""
        from repro.topology import CycleGraph

        protocol = Diversification(WeightTable([1.0, 2.0]))
        population = Population.from_colours([0] * 6 + [1] * 6, protocol)
        simulation = Simulation(
            protocol, population, topology=CycleGraph(12), rng=0
        ).run(50)
        state = simulation.rng.bit_generator.state
        AddAgents(colour=1, count=2).apply(simulation)
        with pytest.raises(ValueError, match="complete graph"):
            simulation.run(10)
        assert simulation.time == 50
        assert simulation.rng.bit_generator.state == state

    def test_aggregate_engine(self):
        engine, _ = build_aggregate_engine()
        AddAgents(colour=0, count=3, dark=False).apply(engine)
        assert engine.light_counts()[0] == 3
        assert engine.n == 15


class TestAddColour:
    def test_agent_engine_grows_weights(self):
        simulation, weights = build_agent_engine()
        AddColour(weight=3.0, count=2, dark=True).apply(simulation)
        assert weights.k == 3
        assert simulation.population.colour_counts()[2] == 2

    def test_aggregate_engine(self):
        engine, weights = build_aggregate_engine()
        AddColour(weight=4.0, count=1, dark=True).apply(engine)
        assert weights.k == 3
        assert engine.dark_counts()[2] == 1

    def test_protocol_without_weights_rejected(self):
        from repro.baselines.voter import VoterModel

        protocol = VoterModel()
        population = Population.from_colours([0, 1], protocol, k=2)
        simulation = Simulation(protocol, population, rng=0)
        with pytest.raises(TypeError):
            AddColour(weight=2.0, count=1).apply(simulation)


class TestRecolour:
    def test_agent_engine(self):
        simulation, _ = build_agent_engine()
        RecolourColour(source=0, target=1).apply(simulation)
        np.testing.assert_array_equal(
            simulation.population.colour_counts(), [0, 12]
        )

    def test_preserves_shades(self):
        simulation, _ = build_agent_engine()
        simulation.run(200)  # create some light agents
        light_total = simulation.population.light_counts().sum()
        RecolourColour(source=0, target=1).apply(simulation)
        assert simulation.population.light_counts().sum() == light_total

    def test_aggregate_engine(self):
        engine, _ = build_aggregate_engine()
        RecolourColour(source=1, target=0).apply(engine)
        np.testing.assert_array_equal(engine.colour_counts(), [12, 0])

    def test_unsupported_engine_rejected(self):
        with pytest.raises(TypeError):
            AddAgents(0, 1).apply(object())


class TestBatchedEngineInterventions:
    """Interventions dispatch onto the fused (R, 2k) engine and apply
    to every replication at once."""

    def test_add_agents_batch_wide(self):
        engine, _ = build_batched_engine()
        AddAgents(colour=0, count=3, dark=False).apply(engine)
        assert engine.n == 15
        np.testing.assert_array_equal(engine.light_counts()[:, 0], 3)

    def test_add_colour_widens_matrix_and_table(self):
        engine, weights = build_batched_engine()
        AddColour(weight=4.0, count=2, dark=True).apply(engine)
        assert weights.k == 3
        assert engine.k == 3
        assert engine.dark_counts().shape == (3, 3)
        np.testing.assert_array_equal(engine.dark_counts()[:, 2], 2)
        np.testing.assert_array_equal(engine.light_counts()[:, 2], 0)
        # The dynamics keep running after the widening.
        engine.run(500)
        assert (engine.colour_counts().sum(axis=1) == 14).all()

    def test_recolour_batch_wide(self):
        engine, _ = build_batched_engine()
        engine.run(300)  # create some light agents
        totals = engine.colour_counts().sum(axis=1)
        RecolourColour(source=1, target=0).apply(engine)
        counts = engine.colour_counts()
        np.testing.assert_array_equal(counts[:, 1], 0)
        np.testing.assert_array_equal(counts.sum(axis=1), totals)

    def test_invalid_arguments_rejected(self):
        engine, _ = build_batched_engine()
        with pytest.raises(ValueError):
            engine.add_agents(5, 1)
        with pytest.raises(ValueError):
            engine.add_agents(0, -1)
        with pytest.raises(ValueError):
            engine.recolour(0, 9)


class TestArrayEngineInterventions:
    """Interventions dispatch onto the vectorised agent-level engine."""

    def test_add_agents_single(self):
        engine, _ = build_array_engine()
        AddAgents(colour=1, count=4, dark=True).apply(engine)
        assert engine.n == 16
        assert engine.dark_counts()[1] == 10
        engine.run(200)
        assert engine.colour_counts().sum() == 16

    def test_add_agents_light(self):
        engine, _ = build_array_engine()
        AddAgents(colour=0, count=2, dark=False).apply(engine)
        assert engine.light_counts()[0] == 2

    def test_add_colour_grows_weights_and_slots(self):
        engine, weights = build_array_engine()
        AddColour(weight=3.0, count=2, dark=True).apply(engine)
        assert weights.k == 3
        assert engine.k == 3
        assert engine.colour_counts()[2] == 2
        engine.run(300)
        assert engine.colour_counts().sum() == 14

    def test_recolour_preserves_shades(self):
        engine, _ = build_array_engine()
        engine.run(200)  # create some light agents
        light_total = engine.light_counts().sum()
        RecolourColour(source=0, target=1).apply(engine)
        counts = engine.colour_counts()
        assert counts[0] == 0 and counts[1] == 12
        assert engine.light_counts().sum() == light_total

    def test_growth_rejected_on_csr_topology(self):
        from repro.topology import CycleGraph

        weights = WeightTable([1.0, 2.0])
        engine = ArraySimulation(
            Diversification(weights),
            np.array([0] * 6 + [1] * 6),
            k=2,
            topology=CycleGraph(12),
            rng=0,
        )
        with pytest.raises(ValueError, match="complete graph"):
            engine.add_agents(0, 2)

    def test_add_colour_without_weight_table_rejected(self):
        from repro.baselines.voter import VoterModel

        engine = ArraySimulation(
            VoterModel(), np.array([0, 1, 0, 1]), k=2, rng=0
        )
        with pytest.raises(TypeError):
            AddColour(weight=2.0, count=1).apply(engine)

    def test_live_counts_follow_interventions(self):
        """With observers attached the engine keeps live count tables;
        interventions must keep them in sync."""
        from repro.engine.observers import MinCountTracker

        weights = WeightTable([1.0, 2.0])
        engine = ArraySimulation(
            Diversification(weights),
            np.array([0] * 6 + [1] * 6),
            k=2,
            rng=0,
            observers=[MinCountTracker()],
        )
        engine.run(100)
        AddColour(weight=2.0, count=3, dark=True).apply(engine)
        RecolourColour(source=0, target=1).apply(engine)
        engine.run(100)
        np.testing.assert_array_equal(
            engine.colour_counts(),
            np.bincount(
                engine.population.colours_view(), minlength=engine.k
            ),
        )
        assert engine.colour_counts().sum() == 15


class TestSchedule:
    def test_entries_sorted(self):
        schedule = InterventionSchedule(
            [(50, AddAgents(0, 1)), (10, AddAgents(1, 1))]
        )
        times = [t for t, _ in schedule.entries()]
        assert times == [10, 50]

    def test_add_keeps_order(self):
        schedule = InterventionSchedule([(50, AddAgents(0, 1))])
        schedule.add(10, AddAgents(1, 1))
        assert [t for t, _ in schedule.entries()] == [10, 50]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            InterventionSchedule([(-1, AddAgents(0, 1))])
        schedule = InterventionSchedule()
        with pytest.raises(ValueError):
            schedule.add(-5, AddAgents(0, 1))


class TestRunWithInterventions:
    def test_interventions_applied_at_time(self):
        engine, _ = build_aggregate_engine(seed=1)
        schedule = InterventionSchedule([(500, AddAgents(0, 10, dark=True))])
        run_with_interventions(engine, 1000, schedule)
        assert engine.time == 1000
        assert engine.n == 22

    def test_recorder_snapshots_cover_run(self):
        engine, _ = build_aggregate_engine(seed=2)
        recorder = CountRecorder(interval=100)
        run_with_interventions(engine, 1000, None, recorder=recorder)
        times = recorder.times()
        assert times[0] == 0
        assert times[-1] >= 900
        assert len(times) >= 10

    def test_recorder_sees_colour_growth(self):
        engine, _ = build_aggregate_engine(seed=3)
        schedule = InterventionSchedule([(300, AddColour(2.0, 5))])
        recorder = CountRecorder(interval=100)
        run_with_interventions(engine, 600, schedule, recorder=recorder)
        counts = recorder.colour_counts()
        assert counts.shape[1] == 3
        # Early snapshots are padded with zero for the new colour.
        assert counts[0, 2] == 0
        assert counts[-1, 2] >= 5

    def test_agent_engine_supported(self):
        simulation, _ = build_agent_engine(seed=4)
        schedule = InterventionSchedule([(100, AddAgents(1, 2))])
        run_with_interventions(simulation, 300, schedule)
        assert simulation.time == 300
        assert simulation.population.n == 14

    def test_negative_total_rejected(self):
        engine, _ = build_aggregate_engine()
        with pytest.raises(ValueError):
            run_with_interventions(engine, -1, None)


#: Every engine that takes interventions, each holding 6 + 6 agents.
ENGINE_BUILDERS = {
    "aggregate": build_aggregate_engine,
    "row-batched": build_batched_engine,
    "array": build_array_engine,
    "simulation": build_agent_engine,
}


class TestZeroStepRun:
    @pytest.mark.parametrize("name", sorted(ENGINE_BUILDERS))
    def test_applies_the_entries_due_at_its_start(self, name):
        """A run of 0 steps applies the entries at ``engine.time``, as a
        run of one step or more applies those at its horizon; a later
        entry stays unapplied."""
        engine, _ = ENGINE_BUILDERS[name]()
        engine.run(30)
        schedule = InterventionSchedule(
            [(30, AddAgents(0, 5, dark=True)), (31, AddAgents(1, 9))]
        )
        run_with_interventions(engine, 0, schedule)
        assert engine.time == 30
        counts = np.asarray(engine.colour_counts())
        np.testing.assert_array_equal(counts.sum(axis=-1), 17)

    def test_record_ends_with_the_applied_state(self):
        engine, _ = build_aggregate_engine()
        recorder = CountRecorder(interval=10)
        schedule = InterventionSchedule([(0, AddColour(3.0, 4))])
        run_with_interventions(engine, 0, schedule, recorder=recorder)
        np.testing.assert_array_equal(recorder.times(), [0, 0])
        np.testing.assert_array_equal(
            recorder.colour_counts(), [[6, 6, 0], [6, 6, 4]]
        )
