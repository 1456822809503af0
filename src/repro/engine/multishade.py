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
``P_i < 2`` contribute 0).  Each ``run``/``step`` call rebuilds them
from the shade table once, and every event updates them in O(1): an
adopt into colour ``j`` does ``Z -= 1, P_j += 1`` and adds ``2 P_j`` (the
old ``P_j``) to ``D``; a decrement at shade 1 of colour ``i`` does
``P_i -= 1, Z += 1`` and subtracts ``2 (P_i − 1)``; a decrement at a
higher shade changes no total.  The totals live in the call, not on the
engine, so the checkpoint payload is the shade table alone.

Draw-order contract
-------------------
For a fixed seed the trajectory is a fixed function of the generator.
``run`` draws each gap as ``geometric(min((Z·P + D) / (n (n − 1)),
1.0))``; ``step`` draws one uniform per step against that probability.
Each event then draws one uniform scaled by ``float(Z·P + D)`` to pick
its type and, for an adopt, one uniform per :func:`_pick`, over the
zero-shade counts and then over the positive counts.  Every rate is an
exact integer below 2**53, so the float arguments and each comparison
of a uniform against a partial sum are exact, and any split of a
horizon into ``run`` calls replays the same draws
(``tests/unit/test_scalar_loop_digest.py`` pins them).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.weights import WeightTable
from . import checkpoint as ckpt
from .backend import HOST, INT64, Generator
from .rng import make_rng

np = HOST.xp  # host namespace: the scalar shade engine is CPU-resident


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
        rng: int | Generator | None = None,
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
            [sum(row) for row in self._shades], dtype=INT64
        )

    def dark_counts(self):
        """Positive-shade (committed) agents per colour, ``P_i``."""
        return np.asarray(
            [sum(row[1:]) for row in self._shades], dtype=INT64
        )

    def light_counts(self):
        """Shade-0 (open) agents per colour, ``Z_i``."""
        return np.asarray(
            [row[0] for row in self._shades], dtype=INT64
        )

    # ------------------------------------------------------------------
    # Dynamics

    def step(self) -> bool:
        """One faithful time-step; True if the configuration changed."""
        self._pending = None  # per-step mode re-examines every step
        self.time += 1
        shades = self._shades
        positive, zero, total, decrement = _totals(shades)
        n = zero + total
        if self.rng.random() >= (zero * total + decrement) / (n * (n - 1)):
            return False
        _apply_event(shades, positive, zero, total, decrement, self.rng)
        return True

    def run(self, steps: int) -> "MultiShadeAggregate":
        """Advance exactly ``steps`` time-steps using event jumps.

        An arrival drawn past the horizon is kept in ``_pending`` and
        consumed by the next call, so any split of a horizon into
        consecutive ``run`` calls yields the bit-identical trajectory
        (cf. :mod:`repro.engine.aggregate`).
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        time, pending = self.time, self._pending
        horizon = time + steps
        shades = self._shades
        positive, zero, total, decrement = _totals(shades)
        n = zero + total
        pairs = n * (n - 1)
        rng = self.rng
        while time < horizon:
            rate = zero * total + decrement
            if not rate:
                time = horizon
                break
            if pending is None:
                pending = time + int(rng.geometric(min(rate / pairs, 1.0)))
            if pending > horizon:
                time = horizon
                break
            time, pending = pending, None
            zero, total, decrement = _apply_event(
                shades, positive, zero, total, decrement, rng
            )
        self.time, self._pending = time, pending
        return self

    # ------------------------------------------------------------------
    # Checkpointing

    def snapshot(self) -> dict:
        """``repro-ckpt/v1`` payload of all run-relevant state.

        The ragged shade table is flattened into one int64 array plus
        per-colour offsets so the payload stays a dict of plain arrays.
        """
        flat = [count for row in self._shades for count in row]
        offsets = np.zeros(self.k + 1, dtype=INT64)
        for colour, row in enumerate(self._shades):
            offsets[colour + 1] = offsets[colour] + len(row)
        return ckpt.payload(
            "MultiShadeAggregate",
            weights=self.weights.as_array(),
            shades=np.asarray(flat, dtype=INT64),
            offsets=offsets,
            time=int(self.time),
            pending=-1 if self._pending is None else int(self._pending),
            rng=ckpt.rng_state(self.rng),
        )

    def restore(self, data: dict) -> "MultiShadeAggregate":
        """Restore a :meth:`snapshot` payload in place.

        Raises:
            ValueError: if the shade table does not match the weights,
                holds a negative count or fewer than two agents, the
                clock is negative, or the pending arrival is neither
                ``-1`` (none) nor later than the clock.
        """
        ckpt.check(data, "MultiShadeAggregate")
        rng = ckpt.checked_rng_state(self.rng, data["rng"])
        ckpt.restore_weight_table(self.weights, data["weights"])
        flat = ckpt.as_array(data["shades"], INT64)
        offsets = ckpt.as_array(data["offsets"], INT64)
        if offsets.shape != (self.weights.k + 1,):
            raise ValueError("shade offsets do not match the colour count")
        shades = [
            [int(c) for c in flat[offsets[i]:offsets[i + 1]]]
            for i in range(self.weights.k)
        ]
        for colour, row in enumerate(shades):
            if len(row) != int(self.weights.weight(colour)) + 1:
                raise ValueError(
                    f"colour {colour} shade row length {len(row)} does "
                    f"not match weight {self.weights.weight(colour)}"
                )
        if any(count < 0 for row in shades for count in row):
            raise ValueError("checkpoint shade counts must be non-negative")
        if sum(sum(row) for row in shades) < 2:
            raise ValueError("checkpoint holds fewer than two agents")
        time = ckpt.as_int(data["time"])
        if time < 0:
            raise ValueError(f"checkpoint time {time} is negative")
        pending = ckpt.as_int(data["pending"])
        if pending != -1 and pending <= time:
            raise ValueError(
                f"checkpoint pending arrival {pending} is neither -1 nor "
                f"after time {time}"
            )
        self._shades = shades
        self.time = time
        self._pending = None if pending == -1 else pending
        ckpt.set_rng_state(self.rng, rng)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiShadeAggregate(n={self.n}, k={self.k}, t={self.time})"


def _totals(shades: list[list[int]]) -> tuple[list[int], int, int, int]:
    """``(P_i per colour, Z, P, D)`` of a shade table (see the module
    docstring)."""
    positive = [sum(row[1:]) for row in shades]
    zero = sum(row[0] for row in shades)
    decrement = sum(count * (count - 1) for count in positive)
    return positive, zero, sum(positive), decrement


def _apply_event(
    shades: list[list[int]],
    positive: list[int],
    zero: int,
    total: int,
    decrement: int,
    rng: Generator,
) -> tuple[int, int, int]:
    """Draw and apply one active event; returns the updated
    ``(Z, P, D)``.  ``shades`` and ``positive`` are updated in place."""
    adopt = zero * total
    pick = rng.random() * float(adopt + decrement)
    if pick < adopt:
        # Adopt: a shade-0 agent (colour i ∝ Z_i) joins colour j (∝ P_j)
        # at full shade.
        source = _pick([row[0] for row in shades], zero, rng)
        target = _pick(positive, total, rng)
        shades[source][0] -= 1
        shades[target][-1] += 1
        old = positive[target]
        positive[target] = old + 1
        return zero - 1, total + 1, decrement + 2 * old
    # Decrement: pick (colour, shade) ∝ S_i[s] (P_i − 1).
    pick -= adopt
    acc = 0
    for colour, row in enumerate(shades):
        partner = positive[colour] - 1
        if partner > 0:
            for shade in range(1, len(row)):
                acc += row[shade] * partner
                if pick < acc:
                    return _decrement(
                        shades, positive, colour, shade,
                        zero, total, decrement,
                    )
    # Numerical edge: apply to the last positive term.
    colour = max(i for i, count in enumerate(positive) if count > 1)
    row = shades[colour]
    shade = max(s for s in range(1, len(row)) if row[s] > 0)
    return _decrement(
        shades, positive, colour, shade, zero, total, decrement
    )


def _decrement(
    shades: list[list[int]],
    positive: list[int],
    colour: int,
    shade: int,
    zero: int,
    total: int,
    decrement: int,
) -> tuple[int, int, int]:
    """Move one agent of ``colour`` down from ``shade``; returns the
    updated ``(Z, P, D)``."""
    row = shades[colour]
    row[shade] -= 1
    row[shade - 1] += 1
    if shade > 1:
        return zero, total, decrement
    old = positive[colour]
    positive[colour] = old - 1
    return zero + 1, total - 1, decrement - 2 * (old - 1)


def _pick(masses: Sequence[int], total: int, rng: Generator) -> int:
    """Index drawn with probability ``masses[i] / total``, where
    ``total`` is the (positive) sum of the integer ``masses``."""
    pick = rng.random() * float(total)
    acc = 0
    for index, mass in enumerate(masses):
        acc += mass
        if pick < acc:
            return index
    for index in reversed(range(len(masses))):
        if masses[index] > 0:
            return index
    raise ValueError("cannot sample from all-zero masses")
