"""Unit tests for the stochastic-block-model topology generator."""

import pytest

from repro.topology import stochastic_block_model


class TestStochasticBlockModel:
    def test_size_and_connectivity(self):
        topo = stochastic_block_model([20, 20], p_in=0.5, p_out=0.05,
                                      seed=0)
        assert topo.n == 40
        assert topo.is_connected()
        assert topo.community_sizes == [20, 20]

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            stochastic_block_model([10, 10], p_in=0.1, p_out=0.5)
        with pytest.raises(ValueError):
            stochastic_block_model([10, 10], p_in=1.2, p_out=0.1)

    def test_deterministic_given_seed(self):
        a = stochastic_block_model([15, 15], 0.5, 0.1, seed=3)
        b = stochastic_block_model([15, 15], 0.5, 0.1, seed=3)
        assert all(a.neighbours(v) == b.neighbours(v) for v in range(30))

    def test_community_structure_visible(self):
        """Within-community degree should dominate across-community
        degree when p_in >> p_out."""
        sizes = [30, 30]
        topo = stochastic_block_model(sizes, p_in=0.6, p_out=0.02, seed=1)
        internal, external = 0, 0
        for node in range(30):  # first community
            for other in topo.neighbours(node):
                if other < 30:
                    internal += 1
                else:
                    external += 1
        assert internal > 5 * external

    def test_unconnectable_parameters_raise(self):
        with pytest.raises(RuntimeError):
            stochastic_block_model(
                [25, 25], p_in=0.08, p_out=0.0, seed=2
            )

    def test_three_communities(self):
        topo = stochastic_block_model([10, 10, 10], 0.7, 0.1, seed=4)
        assert topo.n == 30
        assert topo.is_connected()
