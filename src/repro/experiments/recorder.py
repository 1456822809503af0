"""Snapshot recording of configuration time series.

The recorder is engine-agnostic: anything exposing ``time``,
``colour_counts()``, ``dark_counts()`` and ``light_counts()`` can be
recorded.  Colour sets may grow mid-run (adversarial colour addition);
earlier snapshots are zero-padded when the record is materialised.
"""

from __future__ import annotations

import numpy as np


class CountRecorder:
    """Records (time, C, A, a) snapshots every ``interval`` steps."""

    def __init__(self, interval: int):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = int(interval)
        self._times: list[int] = []
        self._colour: list[np.ndarray] = []
        self._dark: list[np.ndarray] = []
        self._light: list[np.ndarray] = []
        self._next: int | None = None

    def record_from(self, engine) -> None:
        """Append a snapshot of the engine's current configuration."""
        self._times.append(int(engine.time))
        self._colour.append(engine.colour_counts().copy())
        self._dark.append(engine.dark_counts().copy())
        self._light.append(engine.light_counts().copy())
        self._next = int(engine.time) + self.interval

    def is_due(self, time: int) -> bool:
        """Whether a snapshot is due at (or before) ``time``."""
        return self._next is None or time >= self._next

    def next_time_after(self, time: int) -> int:
        """The next snapshot time strictly after ``time``."""
        if self._next is None or self._next <= time:
            return time + self.interval
        return self._next

    def last_time(self) -> int | None:
        """Time of the latest snapshot, or None before the first.

        The segmented runner uses this to force a horizon snapshot, so
        a record always ends with the state at the requested final
        time-step even when the interval does not divide the horizon.
        """
        return self._times[-1] if self._times else None

    def __len__(self) -> int:
        return len(self._times)

    def times(self) -> np.ndarray:
        """Recorded time-steps, shape ``(T,)``."""
        return np.asarray(self._times, dtype=np.int64)

    def colour_counts(self) -> np.ndarray:
        """Recorded ``C_i`` series, shape ``(T, k_max)`` zero-padded."""
        return _pad_stack(self._colour)

    def dark_counts(self) -> np.ndarray:
        """Recorded ``A_i`` series, shape ``(T, k_max)`` zero-padded."""
        return _pad_stack(self._dark)

    def light_counts(self) -> np.ndarray:
        """Recorded ``a_i`` series, shape ``(T, k_max)`` zero-padded."""
        return _pad_stack(self._light)


def _pad_stack(rows: list[np.ndarray]) -> np.ndarray:
    if not rows:
        return np.zeros((0, 0), dtype=np.int64)
    width = max(row.shape[0] for row in rows)
    out = np.zeros((len(rows), width), dtype=np.int64)
    for index, row in enumerate(rows):
        out[index, : row.shape[0]] = row
    return out
