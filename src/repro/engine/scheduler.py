"""Agent schedulers.

The paper assumes the *uniformly random* scheduler: at each time-step
one agent is activated u.a.r.  We additionally provide a round-robin
scheduler (useful for deterministic unit tests and for contrasting with
the adversarial-scheduler literature of Yasumi et al., Sec 1.1).

Schedulers produce activation indices in blocks so the simulator can
amortise random-number generation.
"""

from __future__ import annotations

import abc

import numpy as np


class Scheduler(abc.ABC):
    """Produces the index of the agent activated at each time-step."""

    name: str = "scheduler"

    @abc.abstractmethod
    def draw_block(
        self, n: int, size: int, rng: np.random.Generator
    ):
        """Return ``size`` activation indices for a population of ``n``."""

    def reset(self) -> None:
        """Return to the initial scheduling state.

        Engines call this once per simulation (at construction), so a
        scheduler instance shared across replications starts every
        simulation from the same point instead of silently continuing
        mid-cycle.  Stateless schedulers need not override it.
        """

    def state_dict(self) -> dict:
        """JSON-able scheduling progress, for engine snapshots.

        Stateless schedulers (the uniform default) have nothing to
        report; stateful ones capture everything ``draw_block``
        depends on besides its arguments.
        """
        return {}


class UniformScheduler(Scheduler):
    """The paper's model: each step activates an agent u.a.r."""

    name = "uniform"

    def draw_block(
        self, n: int, size: int, rng: np.random.Generator
    ):
        return rng.integers(0, n, size=size)


class RoundRobinScheduler(Scheduler):
    """Deterministic cyclic activation 0, 1, ..., n-1, 0, 1, ...

    Not the paper's model; provided for deterministic testing and for
    exploring scheduler sensitivity (the equi-partition line of work
    referenced in Sec 1.1 studies adversarial deterministic schedules).
    """

    name = "round-robin"

    def __init__(self, start: int = 0):
        self._start = int(start)
        self._next = int(start)

    def reset(self) -> None:
        self._next = self._start

    def state_dict(self) -> dict:
        return {"start": self._start, "next": self._next}

    def draw_block(
        self, n: int, size: int, rng: np.random.Generator
    ):
        block = (self._next + np.arange(size)) % n
        self._next = int((self._next + size) % n)
        return block
