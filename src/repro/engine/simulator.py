"""Agent-level discrete-event simulator.

Implements the paper's execution model exactly: at every time-step one
agent is scheduled uniformly at random, samples ``arity`` other agents —
uniformly over the whole population on the complete graph
(``topology=None`` or a :class:`~repro.topology.base.CompleteGraph`,
which draw the same stream), or over its neighbourhood on an explicit
topology — and applies the protocol's transition rule.  Only the
scheduled agent changes state.

The loop amortises random-number generation in blocks and notifies
observers only on actual state changes, so instrumented runs stay fast.
Populations may grow between (not during) ``run`` calls, which is how
the adversary interventions of :mod:`repro.adversary` are applied;
growth requires the complete graph (an explicit topology cannot gain
agents, so the next ``run`` raises before any step samples).

Seeding contract
----------------
Randomness is consumed through an internal draw buffer that refills in
fixed blocks of :data:`_BLOCK` steps, at positions determined solely by
the *total number of executed steps* (not by how those steps were
partitioned into calls).  Consequently, for a fixed seed and a fixed
population size:

* ``step()`` consumes exactly the draws of ``run(1)``, and ``k`` calls
  to ``step()`` produce the same trajectory as one ``run(k)`` (only the
  observers' per-``run`` ``on_start``/``on_end`` framing differs);
* any split ``run(a); run(b)`` equals ``run(a + b)`` — in particular,
  recording intervals and intervention segmentation do not perturb the
  trajectory.

Refilling may advance the underlying generator past the executed
horizon; the buffer is discarded whenever the population grows, so
interventions that add agents re-anchor the stream.  For the
*vectorised* agent-level engine with the same transition semantics see
:mod:`repro.engine.array_engine`.

A refill draws the block's initiators (``rng.integers(0, n, _BLOCK)``)
and, on the complete graph, then its partners.  Within a block the
generator is called in a fixed order: on an explicit topology, the
``arity`` ``sample_neighbour`` draws of a step precede its transition's
own draws (its coin, if any); on the complete graph the partners come
from the buffer.  ``tests/unit/test_scalar_loop_digest.py`` pins the
resulting trajectories.

The loop
--------
Each step does O(1) interpreter work and builds no state object of its
own: the consumed slice of the buffer is converted to Python lists once,
and
:meth:`~repro.engine.population.Population.state_of` returns the stored
immutable :class:`~repro.core.state.AgentState` of an agent.  A
transition that changes nothing returns its input state, so the loop
tests ``new is old`` before the structural ``new == old``.  The clock
and change counter are written back before each ``on_change`` (the
observers read them) and at the end of each slice.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..core.protocol import Protocol
from ..core.weights import WeightTable
from ..topology.base import CompleteGraph
from . import checkpoint as ckpt
from .observers import Observer
from .population import Population
from .rng import make_rng


_BLOCK = 4096


class Simulation:
    """Drives a :class:`~repro.core.protocol.Protocol` over a population.

    Args:
        protocol: The local update rule.
        population: Initial population (mutated in place).
        topology: Optional interaction graph from :mod:`repro.topology`;
            ``None`` or a :class:`~repro.topology.base.CompleteGraph`
            means the complete graph (the paper's setting).
        rng: Seed or generator for all randomness.
        observers: Change-driven instrumentation.
    """

    def __init__(
        self,
        protocol: Protocol,
        population: Population,
        *,
        topology=None,
        rng: int | np.random.Generator | None = None,
        observers: Iterable[Observer] = (),
    ):
        if population.n < 2:
            raise ValueError("need at least two agents to interact")
        self.protocol = protocol
        self.population = population
        self.topology = topology
        self._complete = topology is None or isinstance(
            topology, CompleteGraph
        )
        self.rng = make_rng(rng)
        self.observers: list[Observer] = list(observers)
        self.time = 0
        self.changes = 0
        self._buf_initiators = None
        self._buf_partners = None
        self._buf_pos = 0
        self._buf_n = -1
        if topology is not None and topology.n != population.n:
            raise ValueError(
                f"topology has {topology.n} nodes but population has "
                f"{population.n} agents"
            )

    def colour_counts(self):
        """``C_i`` per colour (delegates to the population)."""
        return self.population.colour_counts()

    def dark_counts(self):
        """``A_i`` per colour (delegates to the population)."""
        return self.population.dark_counts()

    def light_counts(self):
        """``a_i`` per colour (delegates to the population)."""
        return self.population.light_counts()

    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute one time-step; returns True if a state changed.

        Trajectory-equivalent to ``run(1)`` (same draws — see the
        module docstring for the seeding contract), but does not fire
        the observers' ``on_start``/``on_end`` lifecycle hooks: those
        frame whole ``run`` calls, and some (e.g. the occupancy
        tracker's flush) cost O(n), which would dominate step-driven
        loops.
        """
        before = self.changes
        self._execute(1)
        return self.changes > before

    def run(self, steps: int) -> "Simulation":
        """Execute ``steps`` time-steps; returns self for chaining."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        for observer in self.observers:
            observer.on_start(self)
        self._execute(steps)
        for observer in self.observers:
            observer.on_end(self)
        return self

    def _execute(self, steps: int) -> None:
        remaining = steps
        arity = self.protocol.arity
        transition = self.protocol.transition
        population = self.population
        state_of = population.state_of
        set_state = population.set_state
        observers = self.observers
        rng = self.rng
        complete = self._complete
        if not complete and population.n != self.topology.n:
            raise ValueError(
                "population growth requires the complete graph; explicit "
                "topologies cannot gain agents"
            )
        sample = None if complete else self.topology.sample_neighbour
        while remaining > 0:
            if self._buf_pos >= _BLOCK or self._buf_n != population.n:
                self._refill(population.n, arity, complete)
            start = self._buf_pos
            stop = start + min(remaining, _BLOCK - start)
            initiators = self._buf_initiators[start:stop].tolist()
            partners = (
                self._buf_partners[start:stop].tolist() if complete
                else None
            )
            now = self.time
            for offset, u in enumerate(initiators):
                if complete:
                    # Partner draws lie in [0, n - 1): shifting those at
                    # or above u up by one is uniform over the others.
                    sampled = [
                        state_of(v + 1 if v >= u else v)
                        for v in partners[offset]
                    ]
                else:
                    sampled = [
                        state_of(sample(u, rng)) for _ in range(arity)
                    ]
                now += 1
                old = state_of(u)
                new = transition(old, sampled, rng)
                if new is old or new == old:
                    continue
                set_state(u, new)
                self.time = now
                self.changes += 1
                for observer in observers:
                    observer.on_change(self, u, old, new)
            self.time = now
            self._buf_pos = stop
            remaining -= stop - start

    # ------------------------------------------------------------------

    def _refill(self, n: int, arity: int, complete: bool) -> None:
        """Refill the draw buffer with a full block of ``_BLOCK`` steps.

        Refills happen whenever the buffer is exhausted or the
        population has grown, so buffer boundaries depend only on the
        executed-step count and the intervention points — not on how
        ``run`` calls were chunked.
        """
        self._buf_initiators = self.rng.integers(0, n, size=_BLOCK)
        if complete:
            self._buf_partners = self.rng.integers(
                0, n - 1, size=(_BLOCK, arity)
            )
        else:
            self._buf_partners = None
        self._buf_pos = 0
        self._buf_n = n

    # ------------------------------------------------------------------
    # State view

    def snapshot(self) -> dict:
        """Read-only ``repro-ckpt/v1`` view of all run-relevant state.

        Captures the agent states, clocks, the partially consumed draw
        buffer (initiators and — on the complete graph — partner
        draws), the RNG bit-generator state, and the protocol's weight
        table when it has one.  Observer state is not part of it.
        """
        population = self.population
        buffered = self._buf_initiators is not None
        weights = getattr(self.protocol, "weights", None)
        fields = {
            "colours": np.asarray(
                population.colours_view(), dtype=np.int64
            ),
            "shades": np.asarray(population.shades_view(), dtype=np.int64),
            "k": int(population.k),
            "time": int(self.time),
            "changes": int(self.changes),
            "buffered": int(buffered),
            "buf_pos": int(self._buf_pos),
            "buf_n": int(self._buf_n),
            "rng": ckpt.rng_state(self.rng),
        }
        if buffered:
            fields["buf_initiators"] = self._buf_initiators.copy()
            if self._buf_partners is not None:
                fields["buf_partners"] = self._buf_partners.copy()
        if isinstance(weights, WeightTable):
            fields["weights"] = weights.as_array()
        return ckpt.payload("Simulation", **fields)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulation(protocol={self.protocol.name!r}, "
            f"n={self.population.n}, t={self.time})"
        )
