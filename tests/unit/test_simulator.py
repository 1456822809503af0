"""Unit tests for the agent-level Simulation engine."""

import numpy as np
import pytest

from repro.adversary import AddAgents, AddColour, InterventionSchedule
from repro.adversary.schedule import run_with_interventions
from repro.baselines.epidemic import SISEpidemic
from repro.baselines.three_majority import ThreeMajority
from repro.baselines.trivial import TrivialResampling
from repro.baselines.two_choices import TwoChoices
from repro.baselines.uniform_partition import RandomRecolouring
from repro.baselines.voter import VoterModel
from repro.core.ablations import EagerRecolouring, UnweightedLightening
from repro.core.derandomised import DerandomisedDiversification
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine.observers import Observer
from repro.engine.population import Population
from repro.engine.simulator import _BLOCK, Simulation
from repro.topology import CompleteGraph, CycleGraph


def build_simulation(n=10, k=2, seed=0, **kwargs):
    weights = WeightTable.uniform(k)
    protocol = Diversification(weights)
    colours = [i % k for i in range(n)]
    population = Population.from_colours(colours, protocol, k=k)
    return Simulation(protocol, population, rng=seed, **kwargs)


class RecordingObserver(Observer):
    def __init__(self):
        self.changes = []
        self.started = 0
        self.ended = 0

    def on_start(self, simulation):
        self.started += 1

    def on_change(self, simulation, agent, old, new):
        self.changes.append((simulation.time, agent, old, new))

    def on_end(self, simulation):
        self.ended += 1


class TestConstruction:
    def test_requires_two_agents(self):
        weights = WeightTable.uniform(1)
        protocol = Diversification(weights)
        population = Population.from_colours([0], protocol)
        with pytest.raises(ValueError):
            Simulation(protocol, population)

    def test_topology_size_must_match(self):
        with pytest.raises(ValueError):
            build_simulation(n=10, topology=CycleGraph(5))


class TestStepping:
    def test_time_advances_per_step(self):
        simulation = build_simulation()
        simulation.step()
        simulation.step()
        assert simulation.time == 2

    def test_run_executes_exact_steps(self):
        simulation = build_simulation()
        simulation.run(1234)
        assert simulation.time == 1234

    def test_run_negative_rejected(self):
        with pytest.raises(ValueError):
            build_simulation().run(-1)

    def test_population_size_conserved(self):
        simulation = build_simulation(n=20, k=3)
        simulation.run(5000)
        assert simulation.population.colour_counts().sum() == 20

    def test_seed_reproducibility(self):
        a = build_simulation(n=16, k=2, seed=11)
        b = build_simulation(n=16, k=2, seed=11)
        a.run(4000)
        b.run(4000)
        np.testing.assert_array_equal(
            a.population.colour_counts(), b.population.colour_counts()
        )
        np.testing.assert_array_equal(
            a.population.dark_counts(), b.population.dark_counts()
        )

    def test_changes_counter_matches_observer(self):
        observer = RecordingObserver()
        simulation = build_simulation(n=12, k=2, observers=[observer])
        simulation.run(3000)
        assert simulation.changes == len(observer.changes)


class TestSeedingContract:
    """The documented contract: randomness is consumed in fixed blocks
    anchored to the executed-step count, so trajectories depend only on
    the seed and the total number of steps — not on how those steps
    were partitioned into step()/run() calls."""

    def _counts(self, simulation):
        return (
            simulation.population.colour_counts(),
            simulation.population.dark_counts(),
        )

    def test_step_equals_run(self):
        a = build_simulation(n=16, k=2, seed=11)
        b = build_simulation(n=16, k=2, seed=11)
        for _ in range(300):
            a.step()
        b.run(300)
        for left, right in zip(self._counts(a), self._counts(b)):
            np.testing.assert_array_equal(left, right)
        assert a.time == b.time == 300
        assert a.changes == b.changes

    def test_run_chunking_invariance(self):
        whole = build_simulation(n=16, k=3, seed=5)
        whole.run(5000)
        chunked = build_simulation(n=16, k=3, seed=5)
        # Uneven chunks crossing the internal 4096-step block boundary.
        for chunk in (1, 999, 3000, 96, 1, 903):
            chunked.run(chunk)
        assert chunked.time == 5000
        for left, right in zip(
            self._counts(whole), self._counts(chunked)
        ):
            np.testing.assert_array_equal(left, right)

    def test_step_equals_run_on_topology(self):
        from repro.topology import CycleGraph

        weights = WeightTable.uniform(2)
        protocol = Diversification(weights)

        def make():
            population = Population.from_colours(
                [i % 2 for i in range(8)], protocol, k=2
            )
            return Simulation(
                protocol, population, topology=CycleGraph(8), rng=13
            )

        a, b = make(), make()
        for _ in range(200):
            a.step()
        b.run(200)
        for left, right in zip(self._counts(a), self._counts(b)):
            np.testing.assert_array_equal(left, right)


class TestRefillDraws:
    """A refill draws the block's initiators with one
    ``rng.integers(0, n, _BLOCK)`` call, then (on the complete graph)
    its partners: the engine's buffer replays on a generator at the
    state the refill started from."""

    def assert_refill(self, simulation, state, n):
        reference = np.random.default_rng()
        reference.bit_generator.state = state
        view = simulation.snapshot()
        np.testing.assert_array_equal(
            view["buf_initiators"], reference.integers(0, n, size=_BLOCK)
        )
        np.testing.assert_array_equal(
            view["buf_partners"],
            reference.integers(0, n - 1, size=(_BLOCK, 1)),
        )

    def test_fresh_engine(self):
        simulation = build_simulation(n=12, k=3, seed=21).run(1)
        self.assert_refill(
            simulation, np.random.default_rng(21).bit_generator.state, 12
        )

    def test_grown_engine(self):
        simulation = build_simulation(n=12, k=3, seed=21).run(300)
        AddAgents(colour=1, count=5).apply(simulation)
        state = simulation.rng.bit_generator.state
        simulation.run(1)
        self.assert_refill(simulation, state, 17)


class TestObserverLifecycle:
    def test_hooks_called(self):
        observer = RecordingObserver()
        simulation = build_simulation(n=8, k=2, observers=[observer])
        simulation.run(500)
        assert observer.started == 1
        assert observer.ended == 1
        assert observer.changes  # unit weights change often

    def test_change_events_are_real_changes(self):
        observer = RecordingObserver()
        simulation = build_simulation(n=8, k=2, observers=[observer])
        simulation.run(500)
        for _, _, old, new in observer.changes:
            assert old != new


class TestSampling:
    def test_never_samples_self_complete_graph(self):
        """On the complete graph with n=2, the partner is always the
        other agent — detectable because a dark pair of the same colour
        with weight 1 must keep toggling."""
        weights = WeightTable.uniform(1)  # one colour, weight 1
        protocol = Diversification(weights)
        population = Population.from_colours([0, 0], protocol)
        simulation = Simulation(protocol, population, rng=2)
        simulation.run(100)
        # With one colour the counts stay [2] and the process remains
        # live (self-sampling would freeze the lone dark pair rule).
        assert population.colour_counts()[0] == 2
        assert simulation.changes > 0

    def test_topology_restricts_partners(self):
        """On a cycle, every initiator meets only its two neighbours."""
        meetings = []

        class SpyingProtocol(Diversification):
            def transition(self, u, sampled, rng):
                meetings.append((u.colour, sampled[0].colour))
                return u  # never change; we only spy

        # Colour i marks agent i, so colours identify the agents.
        n = 8
        spy = SpyingProtocol(WeightTable.uniform(n))
        population = Population.from_colours(list(range(n)), spy, k=n)
        simulation = Simulation(spy, population, topology=CycleGraph(n), rng=0)
        simulation.run(200)
        assert len(meetings) == 200
        assert len({u for u, _ in meetings}) == n
        for u, v in meetings:
            assert (v - u) % n in (1, n - 1)


#: Every protocol with a scalar ``transition``: factory and colour
#: slots.  Integer weights suit the derandomised variant.
PROTOCOLS = {
    "diversification": (lambda: Diversification(WeightTable([1, 2, 3])), 3),
    "unweighted": (lambda: UnweightedLightening(WeightTable([1, 2, 3])), 3),
    "eager": (lambda: EagerRecolouring(WeightTable([1, 2, 3])), 3),
    "derandomised": (
        lambda: DerandomisedDiversification(WeightTable([1, 2, 3])), 3
    ),
    "voter": (VoterModel, 3),
    "two-choices": (TwoChoices, 3),
    "three-majority": (ThreeMajority, 3),
    "sis": (lambda: SISEpidemic(0.6, 0.3), 2),
    "recolouring": (lambda: RandomRecolouring(3), 3),
    "trivial": (lambda: TrivialResampling(WeightTable([1, 2, 3]), 0.7), 3),
}


def growth(protocol) -> InterventionSchedule:
    """Agents mid-block, then a new colour where the protocol has a
    weight table to widen."""
    schedule = InterventionSchedule([(700, AddAgents(colour=0, count=4))])
    if hasattr(protocol, "weights"):
        schedule.add(1500, AddColour(weight=2.0, count=3))
    return schedule


class TestCompleteGraphObject:
    """``topology=CompleteGraph(n)`` is the complete graph: the engine
    draws the same stream as with ``None``, and agents added by an
    intervention are sampled like the others."""

    N = 16

    @pytest.mark.parametrize("grow", [False, True], ids=["static", "grown"])
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_complete_graph_object_matches_none(self, name, grow):
        factory, k = PROTOCOLS[name]
        views = []
        for topology in (None, CompleteGraph(self.N)):
            protocol = factory()
            population = Population.from_colours(
                [i % k for i in range(self.N)], protocol, k=k
            )
            simulation = Simulation(
                protocol, population, topology=topology, rng=5
            )
            schedule = growth(protocol) if grow else None
            run_with_interventions(simulation, 3000, schedule)
            views.append(simulation.snapshot())
        plain, explicit = views
        for field in ("colours", "shades", "buf_initiators", "buf_partners"):
            np.testing.assert_array_equal(plain[field], explicit[field])
        assert plain["rng"] == explicit["rng"]
        assert plain["changes"] == explicit["changes"]
