"""SIS epidemic / contact-process baseline (Sec 1.1, refs [8, 24, 27]).

The paper situates consensus dynamics among "classic epidemic
processes".  In the SIS (susceptible-infected-susceptible) model an
infected agent recovers with probability ``recovery`` when scheduled,
and a susceptible agent becomes infected with probability
``transmission`` when it samples an infected agent.  Unlike
Diversification, the all-susceptible state is *absorbing*: the process
is the textbook example of a dynamic that is not sustainable — below
the epidemic threshold the "colour" (infection) dies out.

Colour convention: 0 = susceptible, 1 = infected.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.protocol import Protocol
from ..core.state import DARK, AgentState


class SISEpidemic(Protocol):
    """Pairwise SIS dynamics as a population protocol.

    Args:
        transmission: Infection probability on contact with an
            infected agent.
        recovery: Recovery probability per activation of an infected
            agent (recovery is spontaneous, checked before contact).
    """

    name = "sis-epidemic"
    arity = 1

    SUSCEPTIBLE = 0
    INFECTED = 1

    def __init__(self, transmission: float, recovery: float):
        if not 0.0 <= transmission <= 1.0:
            raise ValueError("transmission must be in [0, 1]")
        if not 0.0 <= recovery <= 1.0:
            raise ValueError("recovery must be in [0, 1]")
        self.transmission = float(transmission)
        self.recovery = float(recovery)

    def initial_state(self, colour: int) -> AgentState:
        if colour not in (self.SUSCEPTIBLE, self.INFECTED):
            raise ValueError("SIS states are 0 (susceptible), 1 (infected)")
        return AgentState(colour, DARK)

    def transition(
        self,
        u: AgentState,
        sampled: Sequence[AgentState],
        rng: np.random.Generator,
    ) -> AgentState:
        if u.colour == self.INFECTED:
            if rng.random() < self.recovery:
                return AgentState(self.SUSCEPTIBLE, DARK)
            return u
        if sampled[0].colour == self.INFECTED:
            if rng.random() < self.transmission:
                return AgentState(self.INFECTED, DARK)
        return u
