"""Bit-exact digests of the two scalar engine loops.

:class:`repro.engine.multishade.MultiShadeAggregate` (the derandomised
protocol's count engine) and the agent-level
:class:`repro.engine.simulator.Simulation` run pure-Python loops whose
trajectories are fixed functions of the seed.  Each case below runs one
engine from a fixed seed and hashes (SHA-256) its final state together
with the bit-generator state: the shade table, clock and pending arrival
of the multishade engine; the colours, shades, clocks, change count,
draw-buffer cursor and scheduler progress of the agent engine.

The constants were recorded from the original loops, before they were
restructured for speed, so they pin the exact draws: a generator call
added, dropped or reordered, a different float argument to one, or a
comparison that takes the other branch changes a digest.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from repro.core.ablations import EagerRecolouring
from repro.core.derandomised import DerandomisedDiversification
from repro.core.diversification import Diversification
from repro.core.state import dark
from repro.core.weights import WeightTable
from repro.engine.multishade import MultiShadeAggregate
from repro.engine.observers import Observer
from repro.engine.population import Population
from repro.engine.scheduler import RoundRobinScheduler
from repro.engine.simulator import Simulation
from repro.topology import CycleGraph


def digest(*parts) -> str:
    """SHA-256 over arrays (with dtype and shape) and JSON-able values."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            sha.update(f"{array.dtype.str}{array.shape}".encode())
            sha.update(array.tobytes())
        else:
            sha.update(json.dumps(part, sort_keys=True).encode())
    return sha.hexdigest()


# ----------------------------------------------------------------------
# MultiShadeAggregate

#: Weight tables and initial colour counts of the multishade cases.
TABLES = {
    "w123": ([1.0, 2.0, 3.0], [40, 30, 20]),
    "w25": ([2.0, 5.0], [50, 30]),
}


def multishade(table: str) -> MultiShadeAggregate:
    weights, counts = TABLES[table]
    return MultiShadeAggregate(WeightTable(weights), counts, rng=17)


def multishade_digest(engine: MultiShadeAggregate) -> str:
    snap = engine.snapshot()
    return digest(
        snap["shades"], snap["offsets"], snap["time"], snap["pending"],
        snap["rng"],
    )


MULTISHADE = {
    ("w123", "whole"):
        "10084bdefe435190d57e595477ff8a58e8260907d800cb40dfc387a4e7865f88",
    ("w123", "steps"):
        "649b8d2ca43ddb96dbb3a840f9b84a9d17fe9c07c65fd209aa0356adabd59f2b",
    ("w25", "whole"):
        "e99b49f7fca3fee8bc8118bc5d9df1c3ac24a01f8eed79e115a2f6135364f5d5",
    ("w25", "steps"):
        "dad38b82ba45c893a2fe5347524fc75ccf3f433fe4d4b4ec8b43fb509b01c3db",
}


@pytest.mark.parametrize("table", sorted(TABLES))
class TestMultiShadeDigests:
    def test_whole_run(self, table):
        engine = multishade(table).run(4000)
        assert multishade_digest(engine) == MULTISHADE[table, "whole"]

    def test_split_carries_pending_arrival(self, table):
        """``run(a); run(b); run(c)`` reproduces ``run(a + b + c)`` bit
        for bit, with the overshooting arrival carried across each
        split."""
        engine = multishade(table)
        for chunk in (1294, 1693):
            engine.run(chunk)
            assert engine.snapshot()["pending"] > engine.time
        engine.run(1013)
        assert multishade_digest(engine) == MULTISHADE[table, "whole"]

    def test_step_sequence(self, table):
        """Per-step mode between two event-driven runs: each ``step()``
        draws one uniform (plus the event's) and drops the pending
        arrival."""
        engine = multishade(table).run(300)
        changed = sum(engine.step() for _ in range(600))
        engine.run(300)
        assert 0 < changed < 600
        assert multishade_digest(engine) == MULTISHADE[table, "steps"]


# ----------------------------------------------------------------------
# Simulation

N = 60

PROTOCOLS = {
    "diversification": Diversification,
    "eager": EagerRecolouring,
    "derandomised": DerandomisedDiversification,
}


def simulation(protocol: str = "diversification", **kwargs) -> Simulation:
    weights = WeightTable([1.0, 2.0, 3.0])
    rule = PROTOCOLS[protocol](weights)
    colours = [0] * (N // 2) + [1] * (N // 3) + [2] * (N - N // 2 - N // 3)
    population = Population.from_colours(colours, rule, k=weights.k)
    return Simulation(rule, population, rng=29, **kwargs)


def simulation_digest(sim: Simulation) -> str:
    snap = sim.snapshot()
    return digest(
        snap["colours"], snap["shades"], snap["time"], snap["changes"],
        snap["buf_pos"], snap["buf_n"], snap["scheduler"], snap["rng"],
    )


def run_in_calls(sim: Simulation, total: int, calls) -> Simulation:
    """Run ``total`` steps in ``run`` calls cycling through ``calls``."""
    done = 0
    for size in itertools.cycle(calls):
        if done >= total:
            return sim
        take = min(size, total - done)
        sim.run(take)
        done += take


class ChangeLog(Observer):
    """Logs every ``on_change`` with the clocks the observer sees."""

    def __init__(self):
        self.entries = []

    def on_change(self, simulation, agent, old, new):
        self.entries.append([
            simulation.time, simulation.changes, agent,
            old.colour, old.shade, new.colour, new.shade,
        ])


SIMULATION = {
    "diversification":
        "64166d35e8bb603ffd3aa8b3e0371ff65a2c52638b6d859d45b5b7c5f760a283",
    "eager":
        "6916d7fa12f5b98a0bf125701dfbecb4edfc99ba8a344ed8d22fdd8277a6c3ea",
    "derandomised":
        "f0b2e1e940543b2a2ad87caa2da29ddc27e5eec93972ce6b3d87ae812c179dda",
    "cycle":
        "f900eb65c2249e0fb300d970c7908cb611e89d56175a6bb16077475c6e7d76ba",
    "round_robin":
        "e6396989617dd5d23922eb259fb80301f5c58ec16c6ba8dbf9c01b77c04bd51e",
    "change_log":
        "ac8e183abbd630c25ffac022cf2f0f1a93983b8936f8e4b25656847b2579c2d7",
    "grown":
        "e2417e667f456b79b58da83b5d0975b31a47f6c929ceb8497011330ceb8d933d",
}


class TestSimulationDigests:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_complete_graph(self, protocol):
        """10k steps: the draw buffer refills twice (4096-step blocks)."""
        sim = simulation(protocol).run(10_000)
        assert simulation_digest(sim) == SIMULATION[protocol]

    @pytest.mark.parametrize(
        "calls", [(5000,), (4096,), (7, 1, 333)],
        ids=["mid-block", "at-block", "uneven"],
    )
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_split_calls(self, protocol, calls):
        """``run`` calls that stop 904 steps into the second block, at
        the block boundary, or every few steps carry the buffered draws
        across and reach the whole run's digest."""
        sim = run_in_calls(simulation(protocol), 10_000, calls)
        assert simulation_digest(sim) == SIMULATION[protocol]

    def test_csr_topology(self):
        sim = simulation(topology=CycleGraph(N)).run(9000)
        assert simulation_digest(sim) == SIMULATION["cycle"]

    def test_csr_topology_split_calls(self):
        """On a cycle only initiators are buffered; partners are drawn
        per step."""
        sim = run_in_calls(
            simulation(topology=CycleGraph(N)), 9000, (7, 1, 333)
        )
        assert simulation_digest(sim) == SIMULATION["cycle"]

    def test_round_robin_scheduler(self):
        sim = simulation(scheduler=RoundRobinScheduler(start=7)).run(9000)
        assert simulation_digest(sim) == SIMULATION["round_robin"]

    def test_round_robin_scheduler_split_calls(self):
        sim = run_in_calls(
            simulation(scheduler=RoundRobinScheduler(start=7)), 9000,
            (7, 1, 333),
        )
        assert simulation_digest(sim) == SIMULATION["round_robin"]

    def test_observer_sees_every_change(self):
        """The observer sees the step's clock and change count and the
        old and new states; observing leaves the trajectory alone."""
        log = ChangeLog()
        sim = simulation(observers=[log]).run(10_000)
        assert len(log.entries) == sim.changes
        assert simulation_digest(sim) == SIMULATION["diversification"]
        assert digest(log.entries) == SIMULATION["change_log"]

    def test_step_sequence_matches_run(self):
        sim = simulation("derandomised").run(2000)
        for _ in range(300):
            sim.step()
        sim.run(7700)
        assert simulation_digest(sim) == SIMULATION["derandomised"]

    def test_growth_discards_the_buffer(self):
        """An added agent re-anchors the draw stream mid-block."""
        sim = simulation().run(3000)
        sim.population.add_agent(dark(1))
        sim.run(6000)
        assert simulation_digest(sim) == SIMULATION["grown"]
