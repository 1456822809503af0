"""Adversarial structural changes (Sec 1 and Sec 1.2 of the paper).

The paper claims Diversification is robust to an adversary that *adds*
agents or colours, and that sustainability survives as long as new
colours arrive dark and recolourings never erase the last dark
representative of a colour.  Interventions apply to every engine:

* the agent-level :class:`~repro.engine.simulator.Simulation` (between
  ``run`` calls), via the per-agent :meth:`Intervention.apply_to_simulation`;
* the count-API engines — the scalar
  :class:`~repro.engine.aggregate.AggregateSimulation`, the row-batched
  :class:`~repro.engine.hetero.HeterogeneousAggregateBatch` with its
  replicated special case
  :class:`~repro.engine.batched.BatchedAggregateSimulation`, and the
  vectorised :class:`~repro.engine.array_engine.ArraySimulation` — via
  :meth:`Intervention.apply_to_aggregate`, which calls their shared
  ``add_agents`` / ``add_colour`` / ``recolour`` interface.  On the
  batched engines one intervention applies to every row at once
  (``rows=None``), matching the scalar loop's shared deterministic
  schedule.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from ..core.state import DARK, LIGHT, AgentState
from ..engine.simulator import Simulation


class Intervention(abc.ABC):
    """A structural change applied instantaneously at a chosen step."""

    @abc.abstractmethod
    def apply_to_simulation(self, simulation: Simulation) -> None:
        """Apply against the agent-level engine."""

    @abc.abstractmethod
    def apply_to_aggregate(self, aggregate) -> None:
        """Apply against a count-API engine (aggregate, batched or
        array)."""

    def apply(self, engine) -> None:
        """Dispatch on the engine's interface: the agent-level
        :class:`~repro.engine.simulator.Simulation` mutates its
        population; anything exposing the count-level ``add_agents`` /
        ``add_colour`` / ``recolour`` API (aggregate, batched, array —
        or wrappers of them) takes the aggregate path."""
        if isinstance(engine, Simulation):
            self.apply_to_simulation(engine)
        elif hasattr(engine, "add_colour") and hasattr(engine, "recolour"):
            self.apply_to_aggregate(engine)
        else:
            raise TypeError(f"unsupported engine {type(engine).__name__}")


@dataclass(frozen=True)
class AddAgents(Intervention):
    """Inject ``count`` fresh agents of an existing colour."""

    colour: int
    count: int
    dark: bool = True

    def apply_to_simulation(self, simulation: Simulation) -> None:
        shade = DARK if self.dark else LIGHT
        for _ in range(self.count):
            simulation.population.add_agent(AgentState(self.colour, shade))

    def apply_to_aggregate(self, aggregate) -> None:
        aggregate.add_agents(self.colour, self.count, dark=self.dark)


@dataclass(frozen=True)
class AddColour(Intervention):
    """Introduce a brand-new colour supported by ``count`` agents.

    The paper requires new colours to be *dark* initially for
    sustainability to carry over; light insertion is allowed here so
    that experiments can demonstrate why the requirement matters.
    """

    weight: float
    count: int
    dark: bool = True

    def apply_to_simulation(self, simulation: Simulation) -> None:
        weights = getattr(simulation.protocol, "weights", None)
        if weights is None:
            raise TypeError(
                f"protocol {simulation.protocol.name!r} has no weight table"
            )
        colour = weights.add_colour(self.weight)
        shade = DARK if self.dark else LIGHT
        for _ in range(self.count):
            simulation.population.add_agent(AgentState(colour, shade))

    def apply_to_aggregate(self, aggregate) -> None:
        aggregate.add_colour(self.weight, self.count, dark=self.dark)


@dataclass(frozen=True)
class RecolourColour(Intervention):
    """Repaint every agent of ``source`` colour as ``target`` — the
    paper's "an external agent recolours all red agents blue" example,
    which effectively removes a colour from the system."""

    source: int
    target: int

    def apply_to_simulation(self, simulation: Simulation) -> None:
        population = simulation.population
        for agent in range(population.n):
            state = population.state_of(agent)
            if state.colour == self.source:
                population.set_state(
                    agent, AgentState(self.target, state.shade)
                )

    def apply_to_aggregate(self, aggregate) -> None:
        aggregate.recolour(self.source, self.target)
