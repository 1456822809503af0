"""Timed intervention schedules and the segmented runner.

Interventions must not interrupt an engine's inner block loop, so the
runner splits the horizon into segments at intervention times (and at
recording times) and advances the engine segment by segment.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .interventions import Intervention


class InterventionSchedule:
    """Sorted multiset of ``(time_step, intervention)`` pairs."""

    def __init__(
        self, entries: Iterable[tuple[int, Intervention]] = ()
    ):
        self._entries: list[tuple[int, Intervention]] = sorted(
            ((int(t), iv) for t, iv in entries), key=lambda pair: pair[0]
        )
        if any(t < 0 for t, _ in self._entries):
            raise ValueError("intervention times must be non-negative")

    def add(self, time_step: int, intervention: Intervention) -> None:
        """Insert one more intervention, keeping order."""
        if time_step < 0:
            raise ValueError("intervention times must be non-negative")
        self._entries.append((int(time_step), intervention))
        self._entries.sort(key=lambda pair: pair[0])

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Sequence[tuple[int, Intervention]]:
        """The ordered (time, intervention) pairs."""
        return tuple(self._entries)

    def pending_after(self, time_step: int) -> list[tuple[int, Intervention]]:
        """Entries strictly later than ``time_step``."""
        return [(t, iv) for t, iv in self._entries if t > time_step]


def run_with_interventions(
    engine,
    total_steps: int,
    schedule: InterventionSchedule | None = None,
    *,
    recorder=None,
) -> None:
    """Advance ``engine`` by ``total_steps``, applying interventions and
    recording snapshots at their scheduled times.

    ``engine`` may be either simulation engine (anything exposing
    ``time``, ``run(steps)`` and the three count methods).  ``recorder``
    is an optional :class:`~repro.experiments.recorder.CountRecorder`.
    """
    if total_steps < 0:
        raise ValueError("total_steps must be non-negative")
    start = engine.time
    horizon = start + total_steps
    pending = list(schedule.entries()) if schedule is not None else []
    pending = [(t, iv) for t, iv in pending if start <= t <= horizon]
    if recorder is not None:
        recorder.record_from(engine)
    index = 0
    while engine.time < horizon:
        next_stop = horizon
        if index < len(pending):
            next_stop = min(next_stop, pending[index][0])
        if recorder is not None:
            next_stop = min(next_stop, recorder.next_time_after(engine.time))
        if next_stop > engine.time:
            engine.run(next_stop - engine.time)
        while index < len(pending) and pending[index][0] <= engine.time:
            pending[index][1].apply(engine)
            index += 1
        if recorder is not None and recorder.is_due(engine.time):
            recorder.record_from(engine)
    # Only a zero-step run leaves entries pending (the loop never ran):
    # they are due at its start, which is also its horizon.
    leftover = pending[index:]
    for _, intervention in leftover:
        intervention.apply(engine)
    # The horizon snapshot is unconditional: without it, an interval
    # that does not divide ``total_steps`` would leave the record's
    # final row up to interval-1 steps short of the requested state.
    if recorder is not None and (
        leftover or recorder.last_time() != engine.time
    ):
        recorder.record_from(engine)
