"""Experiment E12: engine equivalence.

The aggregate engine must be exact in distribution against the
agent-level engine.  This experiment compares the marginal colour-count
distributions of both engines at a common horizon across many seeds
(methodological validation; also exercised by the property tests).

Each seed pair is two shards, one per engine, so E12 rides the pipeline
with ``"stream"`` seeds: shards ``2i`` and ``2i + 1`` draw the children
``2i`` and ``2i + 1`` of ``spawn(make_rng(5), 2 · seeds)``.
"""

from __future__ import annotations

import numpy as np

from ..core.diversification import Diversification
from ..core.weights import WeightTable
from ..engine.aggregate import AggregateSimulation
from ..engine.population import Population
from ..engine.simulator import Simulation
from .pipeline import ScenarioSpec
from .table import ExperimentTable
from .workloads import colours_from_counts, worst_case_counts

E12_PROFILES = {
    "full": {},
    "quick": {"n": 96, "rounds": 100, "seeds": 12},
}


def _measure_engine(params: dict, rng: np.random.Generator) -> dict:
    """E12 shard: one engine's final colour counts after ``rounds · n``
    steps from the worst-case start."""
    weights = WeightTable(params["vector"])
    n = params["n"]
    steps = params["rounds"] * n
    start = worst_case_counts(n, weights.k)
    if params["engine"] == "agent":
        protocol = Diversification(weights)
        population = Population.from_colours(
            colours_from_counts(start), protocol, k=weights.k
        )
        Simulation(protocol, population, rng=rng).run(steps)
        counts = population.colour_counts()
    else:
        engine = AggregateSimulation(weights, dark_counts=start, rng=rng)
        engine.run(steps)
        counts = engine.colour_counts()
    return {"counts": [int(count) for count in counts]}


def _build_engines(result) -> ExperimentTable:
    """Per-colour agent and aggregate means and their z-score."""
    rows = {"agent": [], "aggregate": []}
    for params, (value,) in result.by_cell():
        rows[params["engine"]].append(value["counts"])
    agent_rows = np.asarray(rows["agent"], dtype=float)
    aggregate_rows = np.asarray(rows["aggregate"], dtype=float)
    table = ExperimentTable(
        "E12",
        "Engine equivalence (exact-in-distribution aggregate fast path)",
        ["colour", "agent mean", "aggregate mean", "pooled stderr",
         "|Δ|/stderr", "consistent"],
    )
    for colour in range(agent_rows.shape[1]):
        a = agent_rows[:, colour]
        b = aggregate_rows[:, colour]
        stderr = float(
            np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        )
        z = abs(a.mean() - b.mean()) / max(stderr, 1e-9)
        table.add_row(
            colour, float(a.mean()), float(b.mean()), stderr, z, z <= 4.0
        )
    return table


def spec_engines(
    n: int = 128,
    weight_vector=(1.0, 2.0, 3.0),
    *,
    rounds: int = 120,
    seeds: int = 24,
) -> ScenarioSpec:
    """E12: agent vs aggregate marginals at a common horizon.

    Expected shape: per-colour mean final counts of the two engines
    agree within a few standard errors.  One shard per (seed pair,
    engine), pair outermost, on one seed stream from 5.
    """
    return ScenarioSpec(
        name="e12",
        measure=_measure_engine,
        grid={"pair": tuple(range(seeds)), "engine": ("agent", "aggregate")},
        fixed={"vector": tuple(weight_vector), "n": n, "rounds": rounds},
        base_seed=5,
        seed_scope="stream",
        build=_build_engines,
    )
