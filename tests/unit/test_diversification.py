"""Unit tests for the Diversification transition rule (Eq. (2))."""

import numpy as np
import pytest

from repro.core.diversification import Diversification
from repro.core.state import DARK, LIGHT, AgentState, dark, light


class FixedRng:
    """Deterministic stand-in for numpy Generator (random() only)."""

    def __init__(self, value: float):
        self.value = value

    def random(self):
        return self.value


@pytest.fixture
def protocol(skewed_weights):
    return Diversification(skewed_weights)


class TestInitialState:
    def test_agents_start_dark(self, protocol):
        assert protocol.initial_state(1) == AgentState(1, DARK)

    def test_unknown_colour_rejected(self, protocol):
        with pytest.raises(ValueError):
            protocol.initial_state(3)

    def test_negative_colour_rejected(self, protocol):
        with pytest.raises(ValueError):
            protocol.initial_state(-1)


class TestRuleOne:
    """Light observer + dark sample -> adopt colour, become dark."""

    def test_light_adopts_dark(self, protocol, rng):
        new = protocol.transition(light(0), [dark(2)], rng)
        assert new == AgentState(2, DARK)

    def test_light_adopts_dark_same_colour(self, protocol, rng):
        # Adopting the same colour still flips the shade to dark.
        new = protocol.transition(light(1), [dark(1)], rng)
        assert new == AgentState(1, DARK)

    def test_light_ignores_light(self, protocol, rng):
        state = light(0)
        assert protocol.transition(state, [light(2)], rng) == state


class TestRuleTwo:
    """Dark + same dark colour -> lighten with probability 1/w_i."""

    def test_unit_weight_always_lightens(self, protocol):
        # Colour 0 has weight 1 -> deterministic lightening.
        new = protocol.transition(dark(0), [dark(0)], FixedRng(0.999))
        assert new == AgentState(0, LIGHT)

    def test_heavy_weight_coin_success(self, protocol):
        # Colour 2 has weight 3: lighten iff uniform < 1/3.
        new = protocol.transition(dark(2), [dark(2)], FixedRng(0.2))
        assert new == AgentState(2, LIGHT)

    def test_heavy_weight_coin_failure(self, protocol):
        state = dark(2)
        assert protocol.transition(state, [dark(2)], FixedRng(0.5)) == state

    def test_dark_different_colour_noop(self, protocol, rng):
        state = dark(0)
        assert protocol.transition(state, [dark(1)], rng) == state

    def test_dark_ignores_light(self, protocol, rng):
        state = dark(0)
        assert protocol.transition(state, [light(0)], rng) == state


class TestExhaustiveness:
    """Every (shade_u, shade_v, same/different colour) case is covered
    by exactly one of the three Eq. (2) branches."""

    @pytest.mark.parametrize("u_shade", [LIGHT, DARK])
    @pytest.mark.parametrize("v_shade", [LIGHT, DARK])
    @pytest.mark.parametrize("same_colour", [True, False])
    def test_all_cases_return_valid_state(
        self, protocol, u_shade, v_shade, same_colour
    ):
        u = AgentState(0, u_shade)
        v = AgentState(0 if same_colour else 1, v_shade)
        new = protocol.transition(u, [v], FixedRng(0.0))
        assert 0 <= new.colour < 3
        assert new.shade in (LIGHT, DARK)
        # A colour change can only happen via rule one.
        if new.colour != u.colour:
            assert u.shade == LIGHT and v.shade == DARK

    def test_lone_dark_agent_never_changes(self, protocol):
        """The sustainability invariant at the rule level: a dark agent
        only moves when meeting its own colour dark."""
        u = dark(1)
        for v in (light(0), light(1), light(2), dark(0), dark(2)):
            assert protocol.transition(u, [v], FixedRng(0.0)) == u


class TestStatistics:
    def test_lighten_frequency_matches_inverse_weight(self, skewed_weights):
        protocol = Diversification(skewed_weights)
        rng = np.random.default_rng(7)
        trials = 20_000
        lightened = sum(
            protocol.transition(dark(2), [dark(2)], rng).shade == LIGHT
            for _ in range(trials)
        )
        assert lightened / trials == pytest.approx(1 / 3, abs=0.02)

    def test_weight_table_is_shared_not_copied(self, skewed_weights):
        protocol = Diversification(skewed_weights)
        skewed_weights.add_colour(4.0)
        # The protocol sees the new colour immediately.
        assert protocol.initial_state(3) == AgentState(3, DARK)
