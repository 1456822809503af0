"""Unit tests for the topology package."""

import numpy as np
import pytest

from repro.engine.rng import make_rng
from repro.topology import (
    AdjacencyTopology,
    CompleteGraph,
    CycleGraph,
    TorusGrid,
    random_regular,
)


class TestCompleteGraph:
    def test_degree(self):
        assert CompleteGraph(10).degree(3) == 9

    def test_neighbours_exclude_self(self):
        graph = CompleteGraph(5)
        assert 2 not in graph.neighbours(2)
        assert len(graph.neighbours(2)) == 4

    def test_sample_never_self(self):
        graph = CompleteGraph(6)
        rng = make_rng(0)
        assert all(graph.sample_neighbour(3, rng) != 3 for _ in range(500))

    def test_sample_uniform(self):
        graph = CompleteGraph(4)
        rng = make_rng(1)
        draws = [graph.sample_neighbour(0, rng) for _ in range(30_000)]
        counts = np.bincount(draws, minlength=4)
        assert counts[0] == 0
        assert abs(counts[1:] - 10_000).max() < 500

    def test_connected(self):
        assert CompleteGraph(7).is_connected()

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            CompleteGraph(1)


class TestAdjacencyTopology:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            AdjacencyTopology(3, [(0, 0), (0, 1), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AdjacencyTopology(3, [(0, 5)])

    def test_rejects_isolated_nodes(self):
        with pytest.raises(ValueError):
            AdjacencyTopology(3, [(0, 1)])

    def test_duplicate_edges_collapse(self):
        topo = AdjacencyTopology(3, [(0, 1), (1, 0), (1, 2), (0, 2)])
        assert topo.degree(1) == 2

    def test_neighbours_sorted(self):
        topo = AdjacencyTopology(4, [(0, 3), (0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
        assert topo.neighbours(0) == [1, 2, 3]

    def test_sample_only_neighbours(self):
        topo = AdjacencyTopology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        rng = make_rng(2)
        draws = {topo.sample_neighbour(0, rng) for _ in range(200)}
        assert draws == {1, 3}


class TestCycleGraph:
    def test_two_regular(self):
        graph = CycleGraph(8)
        assert all(graph.degree(v) == 2 for v in range(8))

    def test_wraparound_neighbours(self):
        graph = CycleGraph(8)
        assert graph.neighbours(0) == [1, 7]

    def test_connected(self):
        assert CycleGraph(11).is_connected()


class TestTorusGrid:
    def test_four_regular(self):
        graph = TorusGrid(4, 5)
        assert graph.n == 20
        assert all(graph.degree(v) == 4 for v in range(20))

    def test_rejects_small_sides(self):
        with pytest.raises(ValueError):
            TorusGrid(2, 5)

    def test_connected(self):
        assert TorusGrid(3, 3).is_connected()

    def test_neighbour_structure(self):
        graph = TorusGrid(3, 3)
        # Node 0 = (0,0): right (0,1)=1, left (0,2)=2, down (1,0)=3,
        # up (2,0)=6.
        assert graph.neighbours(0) == [1, 2, 3, 6]


class TestConnectivityProbe:
    def test_disconnected_components_detected(self):
        # Two disjoint triangles: every node has degree 2, but the
        # graph is disconnected.
        topo = AdjacencyTopology(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert not topo.is_connected()

    def test_path_graph_connected(self):
        topo = AdjacencyTopology(4, [(0, 1), (1, 2), (2, 3)])
        assert topo.is_connected()


class TestGenerators:
    def test_random_regular_degree(self):
        topo = random_regular(20, 4, seed=0)
        assert all(topo.degree(v) == 4 for v in range(20))

    def test_random_regular_connected(self):
        assert random_regular(30, 3, seed=1).is_connected()

    def test_random_regular_deterministic(self):
        a = random_regular(16, 4, seed=5)
        b = random_regular(16, 4, seed=5)
        assert all(
            a.neighbours(v) == b.neighbours(v) for v in range(16)
        )
