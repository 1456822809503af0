"""Agent state model for the Diversification protocol and its relatives.

The paper's agents carry a *colour* ``i`` (a task identity, modelled as a
small non-negative integer) and a *shade* ``b``.  In the randomised
Diversification protocol the shade is a single bit: ``0`` (light, open to
change) or ``1`` (dark, committed).  In the derandomised variant the shade
is an integer counter in ``{0, ..., w_i}``.

States are small immutable value objects so that they can be shared,
hashed, used as dictionary keys, and compared structurally in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

LIGHT = 0
DARK = 1


@dataclass(frozen=True, slots=True)
class AgentState:
    """Immutable (colour, shade) pair held by a single agent.

    Attributes:
        colour: Non-negative integer colour identifier.
        shade: Confidence value.  For the randomised protocol this is
            ``LIGHT`` (0) or ``DARK`` (1); the derandomised protocol uses
            the full range ``0..w_i``.
    """

    colour: int
    shade: int

    def __post_init__(self) -> None:
        if self.colour < 0:
            raise ValueError(f"colour must be non-negative, got {self.colour}")
        if self.shade < 0:
            raise ValueError(f"shade must be non-negative, got {self.shade}")

    @property
    def is_light(self) -> bool:
        """True when the agent is open to adopting another colour."""
        return self.shade == LIGHT

    @property
    def is_dark(self) -> bool:
        """True when the agent has positive confidence in its colour."""
        return self.shade > LIGHT

    def lightened(self) -> "AgentState":
        """Return the same colour with shade decreased by one.

        Raises:
            ValueError: if the state is already light.
        """
        if self.is_light:
            raise ValueError("cannot lighten an already-light state")
        return AgentState(self.colour, self.shade - 1)


def dark(colour: int) -> AgentState:
    """Convenience constructor for a dark (committed) state."""
    return AgentState(colour, DARK)


def light(colour: int) -> AgentState:
    """Convenience constructor for a light (open) state."""
    return AgentState(colour, LIGHT)
