"""Ablated variants of the Diversification protocol.

The paper's intuition (Sec 1.2) attributes the protocol's behaviour to
two rules: (1) only light agents change colour, and (2) dark agents
lighten with probability inversely proportional to their weight.  These
ablations remove one rule each so the ablation experiment can quantify
its contribution (``repro run ablations``, built in
:mod:`repro.experiments.variants`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .protocol import Protocol
from .state import DARK, AgentState
from .weights import WeightTable


class UnweightedLightening(Protocol):
    """Ablation A2: lighten with probability 1 instead of ``1 / w_i``.

    Removing the weight-scaled coin makes every colour equally quick to
    abandon, so the dark populations equalise per *colour* instead of per
    *weight*: the prediction is that colour shares collapse towards the
    uniform partition ``1/k`` regardless of the weight vector.
    """

    name = "ablation-unweighted-lightening"
    arity = 1

    def __init__(self, weights: WeightTable):
        self.weights = weights

    def initial_state(self, colour: int) -> AgentState:
        return AgentState(colour, DARK)

    def transition(
        self,
        u: AgentState,
        sampled: Sequence[AgentState],
        rng: np.random.Generator,
    ) -> AgentState:
        v = sampled[0]
        if u.is_light and v.is_dark:
            return AgentState(v.colour, DARK)
        if u.is_dark and v.is_dark and u.colour == v.colour:
            return AgentState(u.colour, 0)
        return u


class EagerRecolouring(Protocol):
    """Ablation A1: remove the light buffer state.

    When two same-coloured agents meet, the scheduled one immediately
    adopts the colour of a *second* sampled agent (with probability
    ``1 / w_i``) instead of first becoming light and waiting to observe a
    dark agent.  This removes the reservoir of light agents that the real
    protocol uses to meter colour flow; the prediction is noisier shares
    (larger diversity error) and loss of the dark/light equilibrium
    structure of Eq. (7).
    """

    name = "ablation-eager-recolouring"
    arity = 2

    def __init__(self, weights: WeightTable):
        self.weights = weights

    def initial_state(self, colour: int) -> AgentState:
        return AgentState(colour, DARK)

    def transition(
        self,
        u: AgentState,
        sampled: Sequence[AgentState],
        rng: np.random.Generator,
    ) -> AgentState:
        v, x = sampled[0], sampled[1]
        if u.colour == v.colour:
            if rng.random() < self.weights.lighten_probability(u.colour):
                return AgentState(x.colour, DARK)
        return u
