"""Simulation engines.

* :class:`Simulation` — scalar agent-level reference engine (any
  topology, any protocol, interventions, observers);
* :class:`ArraySimulation` — structure-of-arrays agent-level engine
  (steps drawn in vectorised blocks, then applied one by one by the
  protocol's transition kernel on Python-list copies of the state;
  one run per engine) for protocols with a registered kernel;
* :class:`AggregateSimulation` — count-based engine (complete graph,
  Diversification family);
* :class:`HeterogeneousAggregateBatch` — the row-batched count engine:
  B rows with their own weight tables, populations and horizons
  (padded ``(B, k_max)`` state) in one event loop, the engine behind
  mega-batched scenario sweeps;
* :class:`BatchedAggregateSimulation` — R replications of one
  configuration: a thin constructor over the row-batched engine whose
  R identical rows share one weight table.

Both agent engines activate one agent uniformly at random per step,
and both grow their population only on the complete graph.
"""

from . import checkpoint
from .aggregate import AggregateSimulation
from .array_engine import (
    ArrayPopulationView,
    ArraySimulation,
    has_kernel,
    kernel_for,
    supports_topology,
)
from .batched import BatchedAggregateSimulation
from .hetero import HeterogeneousAggregateBatch
from .multishade import MultiShadeAggregate
from .observers import MinCountTracker, Observer, OccupancyTracker
from .population import Population
from .rng import make_rng, spawn
from .simulator import Simulation
from .streams import RowStreams, geometric_from_uniform

__all__ = [
    "AggregateSimulation",
    "ArrayPopulationView",
    "ArraySimulation",
    "BatchedAggregateSimulation",
    "HeterogeneousAggregateBatch",
    "MultiShadeAggregate",
    "Simulation",
    "Population",
    "has_kernel",
    "kernel_for",
    "supports_topology",
    "Observer",
    "OccupancyTracker",
    "MinCountTracker",
    "make_rng",
    "spawn",
    "checkpoint",
    "RowStreams",
    "geometric_from_uniform",
]
