"""Unit tests for the Protocol-style baselines (voter, 2-choices,
3-majority, trivial, random recolouring)."""

import numpy as np
import pytest

from repro.baselines import (
    RandomRecolouring,
    ThreeMajority,
    TrivialResampling,
    TwoChoices,
    VoterModel,
    partition_imbalance,
    uniform_partition_protocol,
)
from repro.core.state import DARK, AgentState, dark
from repro.core.weights import WeightTable


class TestVoter:
    def test_adopts_sampled_colour(self, rng):
        assert VoterModel().transition(dark(0), [dark(3)], rng) == dark(3)

    def test_same_colour_returns_same_object(self, rng):
        state = dark(1)
        assert VoterModel().transition(state, [dark(1)], rng) is state

    def test_initial_state(self):
        assert VoterModel().initial_state(2) == AgentState(2, DARK)


class TestTwoChoices:
    def test_agreeing_samples_win(self, rng):
        protocol = TwoChoices()
        assert (
            protocol.transition(dark(0), [dark(2), dark(2)], rng) == dark(2)
        )

    def test_disagreeing_samples_noop(self, rng):
        protocol = TwoChoices()
        state = dark(0)
        assert protocol.transition(state, [dark(1), dark(2)], rng) is state

    def test_arity(self):
        assert TwoChoices().arity == 2


class TestThreeMajority:
    def test_majority_with_self(self, rng):
        protocol = ThreeMajority()
        state = dark(0)
        # Own colour + one sample agree -> keep own colour.
        assert protocol.transition(state, [dark(0), dark(2)], rng) is state

    def test_majority_of_samples(self, rng):
        protocol = ThreeMajority()
        assert (
            protocol.transition(dark(0), [dark(1), dark(1)], rng) == dark(1)
        )

    def test_three_distinct_uniform_choice(self):
        protocol = ThreeMajority()
        rng = np.random.default_rng(0)
        outcomes = [
            protocol.transition(dark(0), [dark(1), dark(2)], rng).colour
            for _ in range(6000)
        ]
        counts = np.bincount(outcomes, minlength=3)
        np.testing.assert_allclose(counts / 6000, [1 / 3] * 3, atol=0.03)


class TestTrivialResampling:
    def test_resamples_proportionally(self):
        weights = WeightTable([1.0, 3.0])
        protocol = TrivialResampling(weights)
        rng = np.random.default_rng(1)
        outcomes = [
            protocol.transition(dark(0), [dark(0)], rng).colour
            for _ in range(20_000)
        ]
        share = sum(outcomes) / len(outcomes)
        assert share == pytest.approx(0.75, abs=0.02)

    def test_snapshot_is_blind_to_new_colours(self):
        weights = WeightTable([1.0, 1.0])
        protocol = TrivialResampling(weights)
        weights.add_colour(10.0)  # added after the snapshot
        rng = np.random.default_rng(2)
        outcomes = {
            protocol.transition(dark(0), [dark(0)], rng).colour
            for _ in range(5000)
        }
        assert 2 not in outcomes  # never adopts the new colour
        assert protocol.known_k == 2

    def test_resample_probability_validated(self):
        with pytest.raises(ValueError):
            TrivialResampling(WeightTable([1.0]), resample_probability=0.0)

    def test_partial_resampling_rate(self):
        weights = WeightTable([1.0, 1.0])
        protocol = TrivialResampling(weights, resample_probability=0.1)
        rng = np.random.default_rng(3)
        changes = sum(
            protocol.transition(dark(0), [dark(0)], rng).colour != 0
            for _ in range(20_000)
        )
        # Change requires resampling (10%) AND drawing colour 1 (50%).
        assert changes / 20_000 == pytest.approx(0.05, abs=0.01)


class TestUniformPartition:
    def test_factory_builds_unit_weights(self):
        protocol = uniform_partition_protocol(4)
        assert protocol.weights.k == 4
        assert all(w == 1.0 for w in protocol.weights)

    def test_random_recolouring_uniform(self):
        protocol = RandomRecolouring(4)
        rng = np.random.default_rng(4)
        outcomes = [
            protocol.transition(dark(0), [dark(0)], rng).colour
            for _ in range(20_000)
        ]
        counts = np.bincount(outcomes, minlength=4)
        np.testing.assert_allclose(counts / 20_000, [0.25] * 4, atol=0.02)

    def test_random_recolouring_needs_two_colours(self):
        with pytest.raises(ValueError):
            RandomRecolouring(1)

    def test_partition_imbalance(self):
        assert partition_imbalance([5, 5, 5]) == 0
        assert partition_imbalance([3, 7, 5]) == 4
