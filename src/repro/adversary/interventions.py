"""Adversarial structural changes (Sec 1 and Sec 1.2 of the paper).

The paper claims Diversification is robust to an adversary that *adds*
agents or colours, and that sustainability survives as long as new
colours arrive dark and recolourings never erase the last dark
representative of a colour.  Every engine takes interventions through
the same count-level ``add_agents`` / ``add_colour`` / ``recolour``
interface: the agent-level
:class:`~repro.engine.simulator.Simulation` and
:class:`~repro.engine.array_engine.ArraySimulation`, the scalar
:class:`~repro.engine.aggregate.AggregateSimulation`, and the
row-batched :class:`~repro.engine.hetero.HeterogeneousAggregateBatch`
with its replicated special case
:class:`~repro.engine.batched.BatchedAggregateSimulation`.  Each engine
checks an intervention before it changes anything, so a rejected one
leaves the engine and its weight table as they were.  On the batched
engines one intervention applies to every row at once (``rows=None``),
matching the scalar loop's shared deterministic schedule.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass


class Intervention(abc.ABC):
    """A structural change applied instantaneously at a chosen step."""

    def apply(self, engine) -> None:
        """Apply through the engine's count-level interface."""
        if not (hasattr(engine, "add_colour") and hasattr(engine, "recolour")):
            raise TypeError(f"unsupported engine {type(engine).__name__}")
        self._apply(engine)

    @abc.abstractmethod
    def _apply(self, engine) -> None:
        """Make the change with ``add_agents``, ``add_colour`` or
        ``recolour``."""


@dataclass(frozen=True)
class AddAgents(Intervention):
    """Inject ``count`` fresh agents of an existing colour."""

    colour: int
    count: int
    dark: bool = True

    def _apply(self, engine) -> None:
        engine.add_agents(self.colour, self.count, dark=self.dark)


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

    def _apply(self, engine) -> None:
        engine.add_colour(self.weight, self.count, dark=self.dark)


@dataclass(frozen=True)
class RecolourColour(Intervention):
    """Repaint every agent of ``source`` colour as ``target`` — the
    paper's "an external agent recolours all red agents blue" example,
    which effectively removes a colour from the system."""

    source: int
    target: int

    def _apply(self, engine) -> None:
        engine.recolour(self.source, self.target)
