"""Planted RL3 violations in fields that ``__init__`` assigns through
helpers.  ``_clock`` is assigned in ``_setup()``, advanced by ``run()``
and never serialised.  ``_block`` is assigned in ``_rebase()``, which
both ``__init__`` and ``run()`` call, and is missing from both
payloads.  ``_rows`` is never written after construction (static
configuration) and ``_events`` round-trips, so neither may be
flagged."""


class HelperInitEngine:
    def __init__(self, rows):
        self._setup(rows)
        self._rebase()

    def _setup(self, rows):
        self._rows = rows
        self._clock = 0  # planted: RL301,RL302
        self._events = []

    def _rebase(self):
        self._block = len(self._events) // 64  # planted: RL301,RL302

    def run(self, steps):
        self._clock += steps
        self._events.append(steps)
        self._rebase()

    def snapshot(self):
        return {"rows": self._rows, "events": list(self._events)}

    def restore(self, state):
        self._events = list(state["events"])
