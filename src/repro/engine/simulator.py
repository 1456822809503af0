"""Agent-level discrete-event simulator.

Implements the paper's execution model exactly: at every time-step one
agent is scheduled (uniformly at random by default), samples ``arity``
other agents — uniformly over the whole population on the complete
graph, or over its neighbourhood on an explicit topology — and applies
the protocol's transition rule.  Only the scheduled agent changes state.

The loop amortises random-number generation in blocks and notifies
observers only on actual state changes, so instrumented runs stay fast.
Populations may grow between (not during) ``run`` calls, which is how
the adversary interventions of :mod:`repro.adversary` are applied.

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

Refilling may advance the underlying generator (and a stateful
scheduler) past the executed horizon; the buffer is discarded whenever
the population grows, so interventions that add agents re-anchor the
stream.  For the *vectorised* agent-level engine with the same
transition semantics see :mod:`repro.engine.array_engine`.

Within a block the generator is called in a fixed order: on an explicit
topology, the ``arity`` ``sample_neighbour`` draws of a step precede its
transition's own draws (its coin, if any); on the complete graph the
partners come from the buffer.  ``tests/unit/test_scalar_loop_digest.py``
pins the resulting trajectories.

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

from ..core.protocol import Protocol
from ..core.weights import WeightTable
from . import checkpoint as ckpt
from .backend import HOST, INT64, Generator
from .observers import Observer
from .population import Population
from .rng import make_rng
from .scheduler import Scheduler, UniformScheduler

np = HOST.xp  # host namespace: the agent-level loop is scalar/CPU

_BLOCK = 4096


class Simulation:
    """Drives a :class:`~repro.core.protocol.Protocol` over a population.

    Args:
        protocol: The local update rule.
        population: Initial population (mutated in place).
        topology: Optional interaction graph from :mod:`repro.topology`;
            ``None`` means the complete graph (the paper's setting).
        scheduler: Activation policy; defaults to the uniform scheduler.
            The scheduler is :meth:`~repro.engine.scheduler.Scheduler.reset`
            at construction so that instances shared across replications
            start each simulation from their initial state.
        rng: Seed or generator for all randomness.
        observers: Change-driven instrumentation.
    """

    def __init__(
        self,
        protocol: Protocol,
        population: Population,
        *,
        topology=None,
        scheduler: Scheduler | None = None,
        rng: int | Generator | None = None,
        observers: Iterable[Observer] = (),
    ):
        if population.n < 2:
            raise ValueError("need at least two agents to interact")
        self.protocol = protocol
        self.population = population
        self.topology = topology
        self.scheduler = scheduler or UniformScheduler()
        self.scheduler.reset()
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

    def add_observer(self, observer: Observer) -> None:
        """Attach an observer before (or between) runs."""
        self.observers.append(observer)

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
        complete = self.topology is None
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
        self._buf_initiators = self.scheduler.draw_block(
            n, _BLOCK, self.rng
        )
        if complete:
            self._buf_partners = self.rng.integers(
                0, n - 1, size=(_BLOCK, arity)
            )
        else:
            self._buf_partners = None
        self._buf_pos = 0
        self._buf_n = n

    # ------------------------------------------------------------------
    # Checkpointing

    def snapshot(self) -> dict:
        """``repro-ckpt/v1`` payload of all run-relevant state.

        Captures the agent states, clocks, the partially consumed draw
        buffer (initiators and — on the complete graph — partner
        draws), scheduler progress, the RNG bit-generator state, and
        the protocol's weight table when it has one, so restoring
        mid-block reproduces the uninterrupted trajectory bit-for-bit.
        Observer state is deliberately *not* part of the engine payload:
        observers snapshot themselves (``state_dict``/``load_state``).
        """
        population = self.population
        buffered = self._buf_initiators is not None
        weights = getattr(self.protocol, "weights", None)
        fields = {
            "colours": np.asarray(
                population.colours_view(), dtype=INT64
            ),
            "shades": np.asarray(population.shades_view(), dtype=INT64),
            "k": int(population.k),
            "time": int(self.time),
            "changes": int(self.changes),
            "buffered": int(buffered),
            "buf_pos": int(self._buf_pos),
            "buf_n": int(self._buf_n),
            "scheduler": self.scheduler.state_dict(),
            "rng": ckpt.rng_state(self.rng),
        }
        if buffered:
            fields["buf_initiators"] = self._buf_initiators.copy()
            if self._buf_partners is not None:
                fields["buf_partners"] = self._buf_partners.copy()
        if isinstance(weights, WeightTable):
            fields["weights"] = weights.as_array()
        return ckpt.payload("Simulation", **fields)

    def restore(self, data: dict) -> "Simulation":
        """Restore a :meth:`snapshot` payload in place.

        Raises:
            ValueError: if the buffer cursor lies outside
                ``[0, _BLOCK]``, or a buffered block is not shaped
                ``(_BLOCK,)`` (initiators) and ``(_BLOCK, arity)``
                (partners, required on the complete graph); nothing is
                restored then.
        """
        ckpt.check(data, "Simulation")
        buf_pos = ckpt.as_int(data["buf_pos"])
        if not 0 <= buf_pos <= _BLOCK:
            raise ValueError(
                f"checkpoint buf_pos {buf_pos} is outside [0, {_BLOCK}]"
            )
        initiators = partners = None
        if ckpt.as_int(data["buffered"]):
            initiators = ckpt.as_row_vector(
                data["buf_initiators"], INT64, _BLOCK, "buf_initiators"
            )
            if "buf_partners" in data:
                partners = ckpt.as_array(data["buf_partners"], INT64)
                expected = (_BLOCK, self.protocol.arity)
                if partners.shape != expected:
                    raise ValueError(
                        f"checkpoint buf_partners has shape "
                        f"{partners.shape}, expected {expected}"
                    )
            elif self.topology is None:
                raise ValueError(
                    "checkpoint lacks the buffered partner draws a "
                    "complete-graph run needs"
                )
        rng = ckpt.checked_rng_state(self.rng, data["rng"])
        weights = getattr(self.protocol, "weights", None)
        if isinstance(weights, WeightTable) and "weights" in data:
            ckpt.restore_weight_table(weights, data["weights"])
        self.population.restore_states(
            ckpt.as_array(data["colours"], INT64),
            ckpt.as_array(data["shades"], INT64),
            ckpt.as_int(data["k"]),
        )
        self.time = ckpt.as_int(data["time"])
        self.changes = ckpt.as_int(data["changes"])
        self._buf_initiators = initiators
        self._buf_partners = partners
        self._buf_pos = buf_pos
        self._buf_n = ckpt.as_int(data["buf_n"])
        self.scheduler.load_state(data["scheduler"])
        ckpt.set_rng_state(self.rng, rng)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulation(protocol={self.protocol.name!r}, "
            f"n={self.population.n}, t={self.time})"
        )
