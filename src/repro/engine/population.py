"""Mutable population container with incremental count maintenance.

The container stores one immutable :class:`~repro.core.state.AgentState`
per agent, mirrored in parallel colour/shade lists for the bulk views,
and maintains the aggregate statistics the analysis needs — per-colour
totals ``C_i``, dark counts ``A_i`` (shade > 0) and light counts ``a_i``
(shade == 0) — updated in O(1) per state change.  Agents may be *added*
at run time (the paper's adversary model); they are never removed.

:meth:`Population.state_of` hands out the stored value itself, never a
fresh object, so the agent-level loop reads states without allocating:
states are immutable, and agents restored from plain colour/shade
arrays share one value per ``(colour, shade)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..core.protocol import Protocol
from ..core.state import AgentState
from .backend import HOST, INT64

np = HOST.xp  # host namespace: the scalar container is CPU-resident


class Population:
    """A growable collection of agents with live aggregate counts."""

    def __init__(self, states: Iterable[AgentState], k: int | None = None):
        states = list(states)
        if not states:
            raise ValueError("population must contain at least one agent")
        self._states: list[AgentState] = states
        self._colours: list[int] = [s.colour for s in states]
        self._shades: list[int] = [s.shade for s in states]
        observed_k = max(self._colours) + 1
        if k is None:
            k = observed_k
        elif k < observed_k:
            raise ValueError(f"k={k} smaller than max colour {observed_k - 1}")
        self._k = k
        self._colour_counts = [0] * k
        self._dark_counts = [0] * k
        self._light_counts = [0] * k
        for colour, shade in zip(self._colours, self._shades):
            self._colour_counts[colour] += 1
            if shade > 0:
                self._dark_counts[colour] += 1
            else:
                self._light_counts[colour] += 1

    @classmethod
    def from_colours(
        cls,
        colours: Sequence[int],
        protocol: Protocol,
        k: int | None = None,
    ) -> "Population":
        """Build a population whose agents start in the protocol's
        initial state for the given colours."""
        return cls([protocol.initial_state(c) for c in colours], k=k)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def n(self) -> int:
        """Number of agents."""
        return len(self._colours)

    @property
    def k(self) -> int:
        """Number of colour slots (grows when colours are added)."""
        return self._k

    def state_of(self, agent: int) -> AgentState:
        """Current (immutable, shared) state of one agent."""
        return self._states[agent]

    def colour_of(self, agent: int) -> int:
        """Current colour of one agent."""
        return self._colours[agent]

    def shade_of(self, agent: int) -> int:
        """Current shade of one agent."""
        return self._shades[agent]

    def states(self) -> list[AgentState]:
        """Snapshot of all agent states (new list)."""
        return list(self._states)

    def colour_counts(self):
        """``C_i``: agents per colour, shape ``(k,)``."""
        return np.asarray(self._colour_counts, dtype=INT64)

    def dark_counts(self):
        """``A_i``: committed (shade > 0) agents per colour."""
        return np.asarray(self._dark_counts, dtype=INT64)

    def light_counts(self):
        """``a_i``: open (shade == 0) agents per colour."""
        return np.asarray(self._light_counts, dtype=INT64)

    def colours_view(self) -> Sequence[int]:
        """Read-only view of the internal colour list (do not mutate)."""
        return self._colours

    def shades_view(self) -> Sequence[int]:
        """Read-only view of the internal shade list (do not mutate)."""
        return self._shades

    # ------------------------------------------------------------------
    # Mutation

    def set_state(self, agent: int, new_state: AgentState) -> AgentState:
        """Replace an agent's state; returns the previous state."""
        if new_state.colour >= self._k:
            self._grow_colours(new_state.colour + 1)
        old = self._states[agent]
        self._bump_counts(old.colour, old.shade, -1)
        self._states[agent] = new_state
        self._colours[agent] = new_state.colour
        self._shades[agent] = new_state.shade
        self._bump_counts(new_state.colour, new_state.shade, +1)
        return old

    def add_agent(self, state: AgentState) -> int:
        """Append a new agent; returns its index."""
        if state.colour >= self._k:
            self._grow_colours(state.colour + 1)
        self._states.append(state)
        self._colours.append(state.colour)
        self._shades.append(state.shade)
        self._bump_counts(state.colour, state.shade, +1)
        return len(self._colours) - 1

    def restore_states(
        self, colours: Sequence[int], shades: Sequence[int], k: int
    ) -> None:
        """Bulk-replace all agent states (checkpoint restore path).

        Rewrites the parallel colour/shade lists and recomputes the
        aggregate counts from scratch.  Agents are never removed, so the
        restored population must be at least as large as the current
        one; ``k`` may only grow.
        """
        colours = [int(c) for c in colours]
        shades = [int(s) for s in shades]
        if len(colours) != len(shades):
            raise ValueError("colour and shade lists must match in length")
        if len(colours) < self.n:
            raise ValueError(
                f"cannot shrink the population ({self.n} -> {len(colours)})"
            )
        k = int(k)
        if k < self._k or (colours and max(colours) >= k):
            raise ValueError(f"k={k} is inconsistent with the states")
        if any(c < 0 for c in colours) or any(s < 0 for s in shades):
            raise ValueError("colours and shades must be non-negative")
        shared = {key: AgentState(*key) for key in set(zip(colours, shades))}
        self._states = [shared[key] for key in zip(colours, shades)]
        self._colours = colours
        self._shades = shades
        self._k = k
        self._colour_counts = [0] * k
        self._dark_counts = [0] * k
        self._light_counts = [0] * k
        for colour, shade in zip(colours, shades):
            self._bump_counts(colour, shade, +1)

    def _grow_colours(self, new_k: int) -> None:
        extra = new_k - self._k
        self._colour_counts.extend([0] * extra)
        self._dark_counts.extend([0] * extra)
        self._light_counts.extend([0] * extra)
        self._k = new_k

    def _bump_counts(self, colour: int, shade: int, delta: int) -> None:
        self._colour_counts[colour] += delta
        if shade > 0:
            self._dark_counts[colour] += delta
        else:
            self._light_counts[colour] += delta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Population(n={self.n}, k={self.k})"
