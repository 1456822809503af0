"""Experiment E11: Diversification beyond the complete graph (Sec 3).

The paper's analysis is for the complete graph; extending it to other
topologies is explicitly future work.  This experiment runs the same
protocol on sparse graphs and reports how the diversity error and
sustainability behave — the expected shape is graceful degradation:
expander-like graphs behave like the complete graph, the cycle is
slower and noisier.

The topology sweep is a pipeline grid: each graph is one shard, built
inside the shard from its name (graphs are parameters, not pickled
objects).
"""

from __future__ import annotations

import numpy as np

from ..core.diversification import Diversification
from ..core.weights import WeightTable
from ..engine.observers import MinCountTracker
from ..topology import CompleteGraph, CycleGraph, TorusGrid, random_regular
from .pipeline import ScenarioSpec
from .runner import run_agent
from .table import ExperimentTable

E11_PROFILES = {"full": {}, "quick": {"n": 144, "rounds": 2000}}

# Graph builders keyed by table name, in table order.
_TOPOLOGY_BUILDERS = {
    "complete": lambda n, seed: CompleteGraph(n),
    "random-regular-8": lambda n, seed: random_regular(n, 8, seed=seed),
    "torus": lambda n, seed: TorusGrid(
        int(round(np.sqrt(n))), int(round(np.sqrt(n)))
    ),
    "cycle": lambda n, seed: CycleGraph(n),
}


def _measure_topology(params: dict, rng: np.random.Generator) -> dict:
    """E11 shard: one run of Diversification on one graph."""
    n = params["n"]
    weights = WeightTable(params["vector"])
    topology = _TOPOLOGY_BUILDERS[params["topology"]](n, params["seed"])
    tracker = MinCountTracker()
    record = run_agent(
        Diversification(weights), weights, n, params["rounds"] * n,
        start="worst", seed=rng, topology=topology,
        observers=[tracker], engine=params["engine"],
    )
    tail = max(1, len(record.times) // 4)
    counts = record.colour_counts[-tail:, : weights.k].astype(float)
    shares = counts / counts.sum(axis=1, keepdims=True)
    fair = weights.fair_shares()
    return {
        "degree": int(topology.degree(0)),
        "error": float(np.abs(shares - fair).max()),
        "min_seen": int(tracker.min_colour_counts.min()),
    }


def _build_topology(result) -> ExperimentTable:
    """Format the per-graph degradation rows."""
    table = ExperimentTable(
        "E11",
        "Topology extension (future work, Sec 3): same protocol on "
        "sparse graphs",
        ["topology", "degree", "tail max |share − w_i/w|",
         "min colour count", "all colours alive"],
    )
    for params, values in result.by_cell():
        (value,) = values
        table.add_row(
            params["topology"], value["degree"], value["error"],
            value["min_seen"], value["min_seen"] >= 1,
        )
    table.add_note(
        "expected shape: complete ≈ random-regular < torus < cycle in "
        "error; sustainability holds everywhere (the invariant is "
        "topology-independent)"
    )
    return table


def spec_topology(
    n: int = 256,
    weight_vector=(1.0, 2.0, 3.0),
    *,
    rounds: int = 3000,
    seed: int = 1618,
    engine: str = "auto",
) -> ScenarioSpec:
    """E11: diversity error per topology at a fixed horizon.

    ``n`` must be a perfect square for the torus entry.  All four
    graphs (complete + the CSR-adjacency sparse graphs) are supported
    by the vectorised agent-level engine, so ``engine="auto"`` routes
    every run through :class:`~repro.engine.ArraySimulation`; pass
    ``engine="scalar"`` to force the per-step reference engine.  One
    shard per topology, all on the same run seed.
    """
    side = int(round(np.sqrt(n)))
    if side * side != n:
        raise ValueError(f"n={n} must be a perfect square for the torus")
    return ScenarioSpec(
        name="e11",
        measure=_measure_topology,
        grid={"topology": tuple(_TOPOLOGY_BUILDERS)},
        fixed={
            "vector": tuple(weight_vector),
            "n": n,
            "rounds": rounds,
            "seed": seed,
            "engine": engine,
        },
        base_seed=seed,
        seed_scope="direct",
        build=_build_topology,
    )
