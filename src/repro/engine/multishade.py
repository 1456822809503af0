"""Aggregate (count-based) simulator for the *derandomised* protocol.

The derandomised Diversification protocol (Sec 1.2) replaces the
``1/w_i`` coin with ``1 + w_i`` shades of grey.  On the complete graph
the configuration is again exchangeable, so the process is fully
described by the counts ``S_i[s]`` of agents holding colour ``i`` at
shade ``s ∈ {0..w_i}``.  Exactly two event types change the counts:

* **decrement** — the scheduled agent has colour ``i`` at shade
  ``s > 0`` and samples *another* positive-shade agent of the same
  colour: ``S_i[s] -= 1, S_i[s-1] += 1``.  Probability
  ``S_i[s] (P_i − 1) / (n (n − 1))`` where ``P_i = Σ_{s≥1} S_i[s]``.
* **adopt** — the scheduled agent has shade 0 (any colour) and samples
  a positive-shade agent of colour ``j``: it joins colour ``j`` at full
  shade ``w_j``.  Probability ``Z · P_j / (n (n − 1))`` with
  ``Z = Σ_i S_i[0]``.

As with :class:`~repro.engine.aggregate.AggregateSimulation`, no-op
steps are skipped in geometrically-distributed jumps, which keeps the
simulation exact in distribution.  Analysing this protocol is an open
problem of the paper (Sec 3); this engine makes the empirical study
(experiment E9) feasible at large ``n``.

Incremental totals
------------------
The event rates only need four integer totals: ``Z``, the positive
counts ``P_i`` with their sum ``P``, and the decrement total
``D = Σ_i P_i (P_i − 1)`` (the sum of every decrement rate; colours with
``P_i < 2`` contribute 0).  The adopt's source pick also needs the
zero-shade counts ``Z_i``.  One loop serves ``run`` and ``step``: each
call rebuilds these from the shade table once, and every event updates
them in O(1): an adopt from colour ``i`` into colour ``j`` does
``Z_i -= 1, Z -= 1, P_j += 1`` and adds ``2 P_j`` (the old ``P_j``) to
``D``; a decrement at shade 1 of colour ``i`` does ``P_i -= 1,
Z_i += 1, Z += 1`` and subtracts ``2 (P_i − 1)``; a decrement at a
higher shade changes no total.  The totals live in the call, not on the
engine, so ``snapshot()`` is the shade table alone.

Draw-order contract
-------------------
For a fixed seed the trajectory is a fixed function of the generator.
``run`` draws each gap as ``geometric(min((Z·P + D) / (n (n − 1)),
1.0))``; ``step`` draws one uniform per step against that probability.
Each event then draws one uniform ``u`` scaled by ``float(Z·P + D)`` to
pick its type.  An adopt draws two more: one scaled by ``float(Z)`` to
pick the source colour over the ``Z_i``, and one scaled by ``float(P)``
to pick the target over the ``P_i``; each pick is the first index whose
running sum of counts exceeds it (at the numerical edge where none
does, the last non-empty one).  A decrement reuses ``u``: the first
colour whose running sum of ``P_i (P_i − 1)`` exceeds ``u·(Z·P + D) −
Z·P``, then, continuing that colour's running sum with the terms
``S_i[s] (P_i − 1)``, its first shade ``s >= 1`` to exceed it.  These
are the partial sums of one scan over every (colour, shade) term, so
the colour-first pick lands on the same term.  Every rate is an exact
integer below 2**53, so the float arguments and each comparison of a
uniform against a partial sum are exact, and any split of a horizon
into ``run`` calls replays the same draws
(``tests/unit/test_scalar_loop_digest.py`` pins them).

The draws are pooled, yet each call leaves the generator exactly where
one generator call per draw would:

* **Blocks.**  Uniforms are served by index from blocks of ``_BLOCK``
  values drawn by one ``rng.random(_BLOCK)`` call; ``step`` draws a
  block of ``_STEP_BLOCK``, the most one step uses.
  ``Generator.random()`` and ``Generator.random(size)`` both take one
  ``next_double`` of the bit generator per value, so the i-th pooled
  value is the double the i-th scalar call would return, for every
  NumPy bit generator.
* **Gaps.**  For ``p`` at or above the double nearest 1/3,
  ``Generator.geometric(p)`` searches on one ``next_double``:
  ``x = 1; sum = prod = p; q = 1 - p; while u > sum: prod *= q;
  sum += prod; x += 1``.  The loop runs the same float operations on a
  pooled uniform and gets the same ``x``.  Below 1/3 NumPy inverts a
  ziggurat exponential whose tables Python cannot see, so the loop syncs
  the generator, calls ``rng.geometric(p)`` and draws a new block.
* **Sync.**  To sync is to restore the ``bit_generator.state`` saved
  before the current block and redraw the uniforms served from it.
  (``advance`` would zero PCG64's buffered 32-bit word, and MT19937 and
  SFC64 have none.)  ``run`` and ``step`` sync before each gap below
  1/3 and at every exit, exceptions included.  The loop moves its pool
  index past an event's uniforms before it writes a shade row, so an
  exception raised by that write leaves them drawn, as it leaves the
  per-call draws.  This relies on nothing else drawing from the
  generator during a call.

``tests/property/test_multishade_pooled_draws.py`` checks both methods
against a loop that makes one generator call per draw, on five bit
generators.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.weights import WeightTable
from . import checkpoint as ckpt
from .rng import make_rng


#: Uniforms per pooled ``rng.random`` call in ``run``.
_BLOCK = 1024
#: Uniforms one iteration draws at most: a gap (or ``step``'s coin), an
#: event type and two picks.  ``step``'s block holds exactly one
#: iteration's.
_STEP_BLOCK = 4
#: NumPy's ``geometric`` searches on one uniform from this ``p`` up.
_SEARCH_FROM = 1 / 3


class MultiShadeAggregate:
    """Count-based simulator of the derandomised protocol.

    Args:
        weights: Integer weight table.
        colour_counts: Initial number of agents per colour; all agents
            start at full shade ``w_i`` (the protocol's initial state).
        rng: Seed or generator.
    """

    def __init__(
        self,
        weights: WeightTable,
        colour_counts: Sequence[int],
        *,
        rng: int | np.random.Generator | None = None,
    ):
        if not weights.is_integer():
            raise ValueError("derandomised protocol requires integer weights")
        if len(colour_counts) != weights.k:
            raise ValueError(
                f"colour_counts must have length k={weights.k}"
            )
        if any(int(c) < 0 for c in colour_counts):
            raise ValueError("counts must be non-negative")
        self.weights = weights
        #: shade_counts[i][s] = agents of colour i at shade s.
        self._shades: list[list[int]] = []
        for colour, count in enumerate(colour_counts):
            full = int(weights.weight(colour))
            row = [0] * (full + 1)
            row[full] = int(count)
            self._shades.append(row)
        self.rng = make_rng(rng)
        self.time = 0
        self._pending: int | None = None
        if self.n < 2:
            raise ValueError("need at least two agents")

    # ------------------------------------------------------------------
    # Introspection

    @property
    def n(self) -> int:
        """Total number of agents."""
        return sum(sum(row) for row in self._shades)

    @property
    def k(self) -> int:
        """Number of colours."""
        return len(self._shades)

    def shade_counts(self, colour: int) -> list[int]:
        """Counts per shade ``0..w_i`` for one colour (copy)."""
        return list(self._shades[colour])

    def colour_counts(self):
        """``C_i`` per colour."""
        return np.asarray(
            [sum(row) for row in self._shades], dtype=np.int64
        )

    def dark_counts(self):
        """Positive-shade (committed) agents per colour, ``P_i``."""
        return np.asarray(
            [sum(row[1:]) for row in self._shades], dtype=np.int64
        )

    def light_counts(self):
        """Shade-0 (open) agents per colour, ``Z_i``."""
        return np.asarray(
            [row[0] for row in self._shades], dtype=np.int64
        )

    # ------------------------------------------------------------------
    # Dynamics

    def step(self) -> bool:
        """One faithful time-step; True if the configuration changed."""
        self._pending = None  # per-step mode re-examines every step
        return self._advance(1, per_step=True)

    def run(self, steps: int) -> "MultiShadeAggregate":
        """Advance exactly ``steps`` time-steps using event jumps.

        An arrival drawn past the horizon is kept in ``_pending`` and
        consumed by the next call, so any split of a horizon into
        consecutive ``run`` calls yields the bit-identical trajectory
        (cf. :mod:`repro.engine.aggregate`).
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self._advance(steps, per_step=False)
        return self

    def _advance(self, steps: int, per_step: bool) -> bool:
        """The event loop of ``run`` and ``step`` (see the module
        docstring): advance ``steps`` time-steps, drawing each gap by
        NumPy's geometric search or, ``per_step``, one uniform against
        the event probability.  Returns whether the last step applied an
        event (meaningful for ``per_step`` only)."""
        time, pending = self.time, self._pending
        horizon = time + steps
        shades = self._shades
        light = [row[0] for row in shades]
        positive = [sum(row[1:]) for row in shades]
        zero, total = sum(light), sum(positive)
        decrement = sum(count * (count - 1) for count in positive)
        pairs = (zero + total) * (zero + total - 1)
        block = _STEP_BLOCK if per_step else _BLOCK
        # Last pool index from which one iteration's uniforms still fit.
        last, search_from = block - _STEP_BLOCK, _SEARCH_FROM
        changed = False
        rng = self.rng
        start, pool = _block(rng, block)
        used = 0
        try:
            while time < horizon:
                adopt = zero * total
                rate = adopt + decrement
                if used > last:
                    _sync(rng, start, used)
                    start, pool = _block(rng, block)
                    used = 0
                if per_step:
                    changed = pool[used] < rate / pairs
                    used += 1
                    if not changed:
                        time = horizon
                        break
                    pending = horizon
                elif pending is None:
                    if not rate:
                        time = horizon
                        break
                    p = rate / pairs if rate < pairs else 1.0
                    if p >= search_from:
                        # NumPy's geometric search, on a pooled uniform.
                        u = pool[used]
                        used += 1
                        gap = 1
                        cumulative = prod = p
                        q = 1.0 - p
                        while u > cumulative:
                            prod *= q
                            cumulative += prod
                            gap += 1
                    else:
                        _sync(rng, start, used)
                        gap = int(rng.geometric(p))
                        start, pool = _block(rng, block)
                        used = 0
                    pending = time + gap
                if pending > horizon:
                    time = horizon
                    break
                time, pending = pending, None
                # The event.  Its uniforms are served (``used`` moves
                # past them) before any row is written.
                pick = pool[used] * rate
                if pick < adopt:
                    # Adopt: a shade-0 agent (colour i ∝ Z_i) joins
                    # colour j (∝ P_j) at full shade.
                    pick = pool[used + 1] * zero
                    acc = 0
                    for source, count in enumerate(light):
                        acc += count
                        if pick < acc:
                            break
                    else:  # numerical edge: the last non-empty colour
                        source = max(i for i, c in enumerate(light) if c)
                    pick = pool[used + 2] * total
                    acc = 0
                    for target, count in enumerate(positive):
                        acc += count
                        if pick < acc:
                            break
                    else:
                        target = max(i for i, c in enumerate(positive) if c)
                        count = positive[target]
                    used += 3
                    light[source] -= 1
                    shades[source][0] -= 1
                    shades[target][-1] += 1
                    positive[target] = count + 1
                    zero -= 1
                    total += 1
                    decrement += 2 * count
                    continue
                # Decrement: pick the colour i ∝ P_i (P_i − 1), then its
                # shade s ∝ S_i[s] from the same running sum.
                used += 1
                pick -= adopt
                acc = 0
                for colour, count in enumerate(positive):
                    acc += count * (count - 1)
                    if pick < acc:
                        break
                else:  # numerical edge: the last positive term
                    colour = max(i for i, c in enumerate(positive) if c > 1)
                    count = positive[colour]
                row = shades[colour]
                partner = count - 1
                acc -= count * partner
                for shade in range(1, len(row)):
                    acc += row[shade] * partner
                    if pick < acc:
                        break
                else:
                    shade = max(s for s in range(1, len(row)) if row[s])
                row[shade] -= 1
                row[shade - 1] += 1
                if shade == 1:
                    light[colour] += 1
                    positive[colour] = partner
                    zero += 1
                    total -= 1
                    decrement -= 2 * partner
        finally:
            _sync(rng, start, used)
        self.time, self._pending = time, pending
        return changed

    # ------------------------------------------------------------------
    # State view

    def snapshot(self) -> dict:
        """Read-only ``repro-ckpt/v1`` view of all run-relevant state.

        The ragged shade table is flattened into one int64 array plus
        per-colour offsets so the view stays a dict of plain arrays.
        """
        flat = [count for row in self._shades for count in row]
        offsets = np.zeros(self.k + 1, dtype=np.int64)
        for colour, row in enumerate(self._shades):
            offsets[colour + 1] = offsets[colour] + len(row)
        return ckpt.payload(
            "MultiShadeAggregate",
            weights=self.weights.as_array(),
            shades=np.asarray(flat, dtype=np.int64),
            offsets=offsets,
            time=int(self.time),
            pending=-1 if self._pending is None else int(self._pending),
            rng=ckpt.rng_state(self.rng),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiShadeAggregate(n={self.n}, k={self.k}, t={self.time})"


def _block(
    rng: np.random.Generator, size: int
) -> tuple[dict, list[float]]:
    """The generator's state, then the next ``size`` uniforms it draws
    (see the module docstring)."""
    return rng.bit_generator.state, rng.random(size).tolist()


def _sync(rng: np.random.Generator, state: dict, used: int) -> None:
    """Leave ``rng`` where one call per draw would: at ``state``, the
    start of the current block, plus the ``used`` uniforms served from
    it."""
    rng.bit_generator.state = state
    rng.random(used)
