"""Unit tests for repro.core.state."""

import pytest

from repro.core.state import DARK, LIGHT, AgentState, dark, light


class TestAgentState:
    def test_constructor_stores_fields(self):
        state = AgentState(colour=3, shade=1)
        assert state.colour == 3
        assert state.shade == 1

    def test_negative_colour_rejected(self):
        with pytest.raises(ValueError):
            AgentState(-1, 0)

    def test_negative_shade_rejected(self):
        with pytest.raises(ValueError):
            AgentState(0, -1)

    def test_is_light_and_is_dark_binary(self):
        assert AgentState(0, LIGHT).is_light
        assert not AgentState(0, LIGHT).is_dark
        assert AgentState(0, DARK).is_dark
        assert not AgentState(0, DARK).is_light

    def test_multi_shade_counts_as_dark(self):
        assert AgentState(0, 5).is_dark

    def test_lightened_decrements_shade(self):
        assert AgentState(2, 3).lightened() == AgentState(2, 2)

    def test_lightened_from_light_rejected(self):
        with pytest.raises(ValueError):
            AgentState(0, 0).lightened()

    def test_equality_is_structural(self):
        assert AgentState(1, 1) == AgentState(1, 1)
        assert AgentState(1, 1) != AgentState(1, 0)
        assert AgentState(1, 1) != AgentState(2, 1)

    def test_hashable(self):
        states = {AgentState(0, 0), AgentState(0, 0), AgentState(0, 1)}
        assert len(states) == 2

    def test_immutable(self):
        state = AgentState(0, 0)
        with pytest.raises(AttributeError):
            state.colour = 1


class TestConvenienceConstructors:
    def test_dark(self):
        assert dark(3) == AgentState(3, DARK)

    def test_light(self):
        assert light(3) == AgentState(3, LIGHT)

    def test_constants(self):
        assert LIGHT == 0
        assert DARK == 1
