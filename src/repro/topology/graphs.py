"""Concrete sparse topologies for the future-work experiments (E11).

All graphs are stored as adjacency lists in a flat numpy layout
(CSR-like) so neighbour sampling is two array reads plus one random
draw.  Construction helpers lean on :mod:`networkx` for the non-trivial
generators and then freeze the result; they import it themselves, so
importing the package does not pay for loading networkx.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from ..engine.rng import make_rng
from .base import Topology

if TYPE_CHECKING:
    import networkx as nx


class AdjacencyTopology(Topology):
    """Topology backed by an explicit adjacency structure."""

    name = "adjacency"

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        super().__init__(n)
        neighbour_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside node range")
            neighbour_sets[u].add(v)
            neighbour_sets[v].add(u)
        if any(not s for s in neighbour_sets):
            isolated = next(i for i, s in enumerate(neighbour_sets) if not s)
            raise ValueError(f"node {isolated} has no neighbours")
        degrees = np.array([len(s) for s in neighbour_sets], dtype=np.int64)
        self._offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=self._offsets[1:])
        self._targets = np.empty(int(self._offsets[-1]), dtype=np.int64)
        for u, s in enumerate(neighbour_sets):
            self._targets[self._offsets[u]:self._offsets[u + 1]] = sorted(s)

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "AdjacencyTopology":
        """Freeze a networkx graph (nodes must be 0..n-1)."""
        import networkx as nx

        n = graph.number_of_nodes()
        if sorted(graph.nodes) != list(range(n)):
            graph = nx.convert_node_labels_to_integers(graph)
        return cls(n, graph.edges())

    def sample_neighbour(self, u: int, rng: np.random.Generator) -> int:
        start = self._offsets[u]
        end = self._offsets[u + 1]
        return int(self._targets[start + rng.integers(0, end - start)])

    def neighbour_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The frozen CSR adjacency as ``(offsets, targets)``.

        ``offsets`` has shape ``(n + 1,)`` and ``targets`` holds the
        concatenated neighbour lists; node ``u``'s neighbours are
        ``targets[offsets[u]:offsets[u + 1]]``.  The vectorised engine
        (:mod:`repro.engine.array_engine`) uses this for batched
        neighbour sampling.  Treat both arrays as read-only.
        """
        return self._offsets, self._targets

    def degree(self, u: int) -> int:
        return int(self._offsets[u + 1] - self._offsets[u])

    def neighbours(self, u: int) -> list[int]:
        return self._targets[self._offsets[u]:self._offsets[u + 1]].tolist()


class CycleGraph(AdjacencyTopology):
    """Ring of ``n`` agents — the sparsest connected regular graph."""

    name = "cycle"

    def __init__(self, n: int):
        edges = [(i, (i + 1) % n) for i in range(n)]
        AdjacencyTopology.__init__(self, n, edges)


class TorusGrid(AdjacencyTopology):
    """``rows x cols`` two-dimensional torus (4-regular)."""

    name = "torus"

    def __init__(self, rows: int, cols: int):
        if rows < 3 or cols < 3:
            raise ValueError("torus needs rows, cols >= 3 to avoid "
                             "duplicate edges")
        n = rows * cols
        edges = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                edges.append((node, r * cols + (c + 1) % cols))
                edges.append((node, ((r + 1) % rows) * cols + c))
        AdjacencyTopology.__init__(self, n, edges)
        self.rows, self.cols = rows, cols


def random_regular(
    n: int, degree: int, seed: int | np.random.Generator | None = None
) -> AdjacencyTopology:
    """Connected random ``degree``-regular graph (expander-like)."""
    import networkx as nx

    rng = make_rng(seed)
    for _ in range(64):
        graph = nx.random_regular_graph(
            degree, n, seed=int(rng.integers(0, 2**31))
        )
        if nx.is_connected(graph):
            topo = AdjacencyTopology.from_networkx(graph)
            topo.name = f"random-regular-{degree}"
            return topo
    raise RuntimeError(
        f"could not sample a connected {degree}-regular graph on {n} nodes"
    )


def stochastic_block_model(
    sizes: Sequence[int] | list[int],
    p_in: float,
    p_out: float,
    seed: int | np.random.Generator | None = None,
) -> AdjacencyTopology:
    """Connected stochastic-block-model sample (community detection
    setting of Sec 1.1, refs [3, 17, 26]).

    Agents within a community are linked with probability ``p_in``,
    across communities with ``p_out < p_in``.  Resampled until
    connected.
    """
    import networkx as nx

    if not 0.0 <= p_out < p_in <= 1.0:
        raise ValueError("need 0 <= p_out < p_in <= 1")
    rng = make_rng(seed)
    probabilities = [
        [p_in if a == b else p_out for b in range(len(sizes))]
        for a in range(len(sizes))
    ]
    for _ in range(64):
        graph = nx.stochastic_block_model(
            list(sizes), probabilities, seed=int(rng.integers(0, 2**31))
        )
        if nx.is_connected(graph):
            topo = AdjacencyTopology.from_networkx(nx.Graph(graph))
            topo.name = f"sbm-{len(sizes)}x{sizes[0]}"
            topo.community_sizes = list(sizes)
            return topo
    raise RuntimeError(
        "could not sample a connected SBM; increase p_in/p_out"
    )


def erdos_renyi(
    n: int, p: float, seed: int | np.random.Generator | None = None
) -> AdjacencyTopology:
    """Connected Erdős–Rényi ``G(n, p)`` sample (resampled until
    connected; choose ``p`` comfortably above ``ln(n)/n``)."""
    import networkx as nx

    rng = make_rng(seed)
    for _ in range(64):
        graph = nx.gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31)))
        if graph.number_of_nodes() and nx.is_connected(graph):
            topo = AdjacencyTopology.from_networkx(graph)
            topo.name = f"erdos-renyi-{p}"
            return topo
    raise RuntimeError(
        f"could not sample a connected G({n}, {p}); increase p"
    )
