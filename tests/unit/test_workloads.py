"""Unit tests for the workload generators."""

import numpy as np
import pytest

from repro.core.weights import WeightTable
from repro.experiments.workloads import (
    colours_from_counts,
    equilibrium_split,
    proportional_counts,
    random_counts,
    uniform_counts,
    worst_case_counts,
)


class TestWorstCase:
    def test_structure(self):
        counts = worst_case_counts(100, 4)
        np.testing.assert_array_equal(counts, [97, 1, 1, 1])

    def test_sum_is_n(self):
        assert worst_case_counts(57, 5).sum() == 57

    def test_validates(self):
        with pytest.raises(ValueError):
            worst_case_counts(3, 4)


class TestUniform:
    def test_even_split(self):
        np.testing.assert_array_equal(uniform_counts(12, 4), [3, 3, 3, 3])

    def test_remainder_to_low_ids(self):
        np.testing.assert_array_equal(uniform_counts(14, 4), [4, 4, 3, 3])

    def test_sum_is_n(self):
        assert uniform_counts(101, 7).sum() == 101


class TestProportional:
    def test_exact_case(self, skewed_weights):
        np.testing.assert_array_equal(
            proportional_counts(600, skewed_weights), [100, 200, 300]
        )

    def test_sum_is_n(self, skewed_weights):
        assert proportional_counts(601, skewed_weights).sum() == 601

    def test_every_colour_present(self):
        weights = WeightTable([1.0, 100.0])
        counts = proportional_counts(50, weights)
        assert counts.min() >= 1
        assert counts.sum() == 50

    def test_validates(self, skewed_weights):
        with pytest.raises(ValueError):
            proportional_counts(2, skewed_weights)


class TestRandom:
    def test_sum_and_support(self):
        counts = random_counts(50, 6, rng=0)
        assert counts.sum() == 50
        assert counts.min() >= 1

    def test_deterministic_given_seed(self):
        np.testing.assert_array_equal(
            random_counts(30, 4, rng=5), random_counts(30, 4, rng=5)
        )

    def test_roughly_uniform_in_expectation(self):
        totals = np.zeros(4)
        for seed in range(200):
            totals += random_counts(40, 4, rng=seed)
        np.testing.assert_allclose(totals / 200, [10] * 4, atol=1.0)


class TestEquilibriumSplit:
    def test_totals_to_n(self, skewed_weights):
        dark, light = equilibrium_split(700, skewed_weights)
        assert dark.sum() + light.sum() == 700

    def test_near_eq7(self, skewed_weights):
        dark, light = equilibrium_split(700, skewed_weights)
        np.testing.assert_allclose(dark, [100, 200, 300], atol=2)
        np.testing.assert_allclose(light, [100 / 6, 200 / 6, 300 / 6], atol=2)

    def test_dark_at_least_one(self):
        weights = WeightTable([1.0, 50.0])
        dark, _ = equilibrium_split(20, weights)
        assert dark.min() >= 1

    def test_fewer_agents_than_colours_rejected(self, skewed_weights):
        """Every colour keeps a dark agent, so with n < k the repair
        loop used to search forever for an agent it could remove."""
        with pytest.raises(ValueError, match="one agent per colour"):
            equilibrium_split(2, skewed_weights)

    def test_one_agent_per_colour(self, skewed_weights):
        dark, light = equilibrium_split(3, skewed_weights)
        np.testing.assert_array_equal(dark, [1, 1, 1])
        np.testing.assert_array_equal(light, [0, 0, 0])


class TestColoursFromCounts:
    def test_expansion(self):
        assert colours_from_counts(np.array([2, 0, 1])) == [0, 0, 2]

    def test_length(self):
        assert len(colours_from_counts(np.array([3, 4]))) == 7
