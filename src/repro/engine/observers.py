"""Observers: change-driven instrumentation for the agent-level engine.

The simulator notifies observers only when an agent actually changes
state, so instrumentation stays O(changes) rather than O(steps).
Snapshot-style recording at fixed intervals is handled separately by
:class:`repro.experiments.recorder.CountRecorder`.
"""

from __future__ import annotations

import numpy as np

from ..core.state import AgentState


class Observer:
    """Base class; subclasses override the hooks they need."""

    def on_start(self, simulation) -> None:
        """Called once before the first step."""

    def on_change(
        self,
        simulation,
        agent: int,
        old: AgentState,
        new: AgentState,
    ) -> None:
        """Called after an agent's state changed (old != new)."""

    def on_end(self, simulation) -> None:
        """Called when a run() invocation finishes."""


class OccupancyTracker(Observer):
    """Accumulates, per agent, time spent in each (colour, dark/light)
    cell — the raw material of the fairness property (Def 1.1(2)).

    Time is measured in simulator time-steps.  The tracker handles
    populations and colour sets that grow mid-run.
    """

    def __init__(self):
        self._occupancy = None  # (n, k, 2) float64
        self._last_change = None  # (n,) int64
        self._start_time = 0

    def on_start(self, simulation) -> None:
        n, k = simulation.population.n, simulation.population.k
        if self._occupancy is None:
            self._occupancy = np.zeros((n, k, 2), dtype=np.float64)
            self._last_change = np.full(n, simulation.time, dtype=np.int64)
            self._start_time = simulation.time
        else:
            self._ensure_capacity(n, k)

    def on_change(self, simulation, agent, old, new) -> None:
        self._ensure_capacity(
            simulation.population.n, simulation.population.k
        )
        now = simulation.time
        elapsed = now - self._last_change[agent]
        shade_cell = 1 if old.shade > 0 else 0
        self._occupancy[agent, old.colour, shade_cell] += elapsed
        self._last_change[agent] = now

    def on_end(self, simulation) -> None:
        self.flush(simulation)

    def flush(self, simulation) -> None:
        """Credit all agents up to the current simulator time."""
        self._ensure_capacity(
            simulation.population.n, simulation.population.k
        )
        now = simulation.time
        colours = simulation.population.colours_view()
        shades = simulation.population.shades_view()
        for agent in range(simulation.population.n):
            elapsed = now - self._last_change[agent]
            if elapsed > 0:
                cell = 1 if shades[agent] > 0 else 0
                self._occupancy[agent, colours[agent], cell] += elapsed
                self._last_change[agent] = now

    def _ensure_capacity(self, n: int, k: int) -> None:
        rows, cols, _ = self._occupancy.shape
        if n > rows or k > cols:
            grown = np.zeros((max(n, rows), max(k, cols), 2), dtype=np.float64)
            grown[:rows, :cols, :] = self._occupancy
            self._occupancy = grown
            if n > rows:
                last = np.full(n, 0, dtype=np.int64)
                last[:rows] = self._last_change
                # New agents start accumulating from their insertion time;
                # callers adding agents mid-run should call flush() first.
                last[rows:] = self._last_change.max(initial=self._start_time)
                self._last_change = last

    def occupancy_fractions(self):
        """Per-agent colour occupancy fractions, shape ``(n, k)``.

        Rows sum to 1 once at least one time-step has elapsed.
        """
        totals = self._occupancy.sum(axis=2)
        horizons = totals.sum(axis=1, keepdims=True)
        if np.any(horizons <= 0):
            raise ValueError("no elapsed time recorded; call flush() first")
        return totals / horizons

    def shade_occupancy_fractions(self):
        """Per-agent (colour, light/dark) occupancy, shape ``(n, k, 2)``.

        ``[..., 0]`` is light time, ``[..., 1]`` dark time; each agent's
        cells sum to 1.
        """
        horizons = self._occupancy.sum(axis=(1, 2), keepdims=True)
        if np.any(horizons <= 0):
            raise ValueError("no elapsed time recorded; call flush() first")
        return self._occupancy / horizons


class MinCountTracker(Observer):
    """Tracks the minimum per-colour totals and dark counts ever seen —
    a streaming witness for sustainability (Def 1.1(3))."""

    def __init__(self):
        self.min_colour_counts = None
        self.min_dark_counts = None

    def on_start(self, simulation) -> None:
        counts = simulation.population.colour_counts()
        darks = simulation.population.dark_counts()
        if self.min_colour_counts is None:
            self.min_colour_counts = counts.astype(np.int64)
            self.min_dark_counts = darks.astype(np.int64)
        else:
            self._refresh(simulation)

    def on_change(self, simulation, agent, old, new) -> None:
        self._refresh(simulation)

    def _refresh(self, simulation) -> None:
        counts = simulation.population.colour_counts()
        darks = simulation.population.dark_counts()
        if len(counts) > len(self.min_colour_counts):
            grow = len(counts) - len(self.min_colour_counts)
            self.min_colour_counts = np.concatenate(
                [self.min_colour_counts, counts[-grow:]]
            )
            self.min_dark_counts = np.concatenate(
                [self.min_dark_counts, darks[-grow:]]
            )
        np.minimum(self.min_colour_counts, counts, out=self.min_colour_counts)
        np.minimum(self.min_dark_counts, darks, out=self.min_dark_counts)
