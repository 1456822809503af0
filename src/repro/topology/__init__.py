"""Interaction topologies: the paper's complete graph plus the sparse
graphs of the future-work direction (Sec 3)."""

from .base import CompleteGraph, Topology
from .graphs import (
    AdjacencyTopology,
    CycleGraph,
    TorusGrid,
    random_regular,
)

__all__ = [
    "Topology",
    "CompleteGraph",
    "AdjacencyTopology",
    "CycleGraph",
    "TorusGrid",
    "random_regular",
]
