"""Aggregate (count-based) simulator for the Diversification protocol.

On the complete graph the configuration process
``ξ(t) = (A_1..A_k, a_1..a_k)`` (dark and light counts per colour,
Sec 2 of the paper) is itself a Markov chain: agent identities are
exchangeable, so the counts can be simulated directly without touching
individual agents.  Per time-step only two event types change the
configuration (cf. the rate sketch in Sec 1.2):

* **adopt** — the scheduled agent is light with colour ``i`` and samples
  a dark agent of colour ``j``:  ``a_i -= 1, A_j += 1``.  Probability
  ``a_i A_j / (n (n - 1))``.
* **lighten** — the scheduled agent is dark with colour ``i``, samples
  another dark agent of the same colour and passes the ``1/w_i`` coin:
  ``A_i -= 1, a_i += 1``.  Probability ``A_i (A_i - 1) / (w_i n (n-1))``.

All other steps are no-ops.  The engine therefore supports an
*event-driven* mode: it draws the geometric number of steps until the
next active event and jumps time forward, which is exact in distribution
and several times faster near equilibrium (the active fraction is about
``2w/(1+w)^2``).

Split invariance.  A drawn arrival that lands beyond the current
horizon is *carried over* (``_pending``) instead of discarded, so the
next ``run`` call consumes it first.  By memorylessness of the
geometric this is distribution-identical to the truncate-and-redraw
rule, but it additionally makes ``run(a); run(b)`` bit-identical to
``run(a + b)`` for any split.  Interventions change the event rates, so
they drop the pending arrival (the redraw at the new rates is the
correct truncation semantics there).  ``snapshot()`` is a read-only
view of the run-relevant state, the pending arrival included.

A per-step mode (:meth:`AggregateSimulation.step`) is kept for the
engine-equivalence tests against the agent-level simulator.

The ``lighten_probabilities`` override generalises the coin to arbitrary
per-colour values, which also gives the A2 ablation
(:class:`~repro.core.ablations.UnweightedLightening`) a fast path.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.weights import WeightTable
from . import checkpoint as ckpt
from .rng import make_rng


def resolve_lighten_probabilities(
    weights: WeightTable,
    override: Sequence[float] | None,
) -> list[float]:
    """Per-colour lightening coins: the protocol's ``1/w_i`` default,
    or a validated override (shared by the scalar and batched
    engines)."""
    if override is None:
        return [1.0 / weights.weight(i) for i in range(weights.k)]
    lighten = [float(p) for p in override]
    if len(lighten) != weights.k:
        raise ValueError("lighten_probabilities must have length k")
    if any(not 0.0 <= p <= 1.0 for p in lighten):
        raise ValueError("lighten probabilities must be in [0, 1]")
    return lighten


class AggregateSimulation:
    """Count-based simulator of Diversification on the complete graph.

    Args:
        weights: Colour weight table (shared; adversarial colour
            additions through :meth:`add_colour` keep it in sync).
        dark_counts: Initial ``A_i`` per colour.
        light_counts: Initial ``a_i`` per colour (defaults to all zero —
            the paper's all-dark start).
        rng: Seed or generator.
        lighten_probabilities: Optional per-colour override of the
            ``1/w_i`` lightening coin.
    """

    def __init__(
        self,
        weights: WeightTable,
        dark_counts: Sequence[int],
        light_counts: Sequence[int] | None = None,
        *,
        rng: int | np.random.Generator | None = None,
        lighten_probabilities: Sequence[float] | None = None,
    ):
        self.weights = weights
        self._dark = [int(c) for c in dark_counts]
        if light_counts is None:
            light_counts = [0] * len(self._dark)
        self._light = [int(c) for c in light_counts]
        if len(self._dark) != weights.k or len(self._light) != weights.k:
            raise ValueError(
                "count vectors must match the weight table size "
                f"(k={weights.k})"
            )
        if any(c < 0 for c in self._dark) or any(c < 0 for c in self._light):
            raise ValueError("counts must be non-negative")
        self._lighten = resolve_lighten_probabilities(
            weights, lighten_probabilities
        )
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
        return sum(self._dark) + sum(self._light)

    @property
    def k(self) -> int:
        """Number of colours."""
        return len(self._dark)

    def dark_counts(self):
        """``A_i`` per colour."""
        return np.asarray(self._dark, dtype=np.int64)

    def light_counts(self):
        """``a_i`` per colour."""
        return np.asarray(self._light, dtype=np.int64)

    def colour_counts(self):
        """``C_i = A_i + a_i`` per colour."""
        return self.dark_counts() + self.light_counts()

    # ------------------------------------------------------------------
    # Per-step mode (used by the equivalence tests)

    def step(self) -> bool:
        """Simulate one time-step faithfully; True if counts changed."""
        self._pending = None  # per-step mode re-examines every step
        self.time += 1
        n = self.n
        rng = self.rng
        # Scheduled agent u: light colour i w.p. a_i/n, dark w.p. A_i/n.
        pick = rng.random() * n
        acc = 0.0
        u_colour, u_dark = -1, False
        for i in range(self.k):
            acc += self._light[i]
            if pick < acc:
                u_colour, u_dark = i, False
                break
            acc += self._dark[i]
            if pick < acc:
                u_colour, u_dark = i, True
                break
        else:  # numerical edge: attribute to the last non-empty class
            for i in reversed(range(self.k)):
                if self._dark[i]:
                    u_colour, u_dark = i, True
                    break
                if self._light[i]:
                    u_colour, u_dark = i, False
                    break
        # Sampled agent v among the other n-1 agents.
        pick = rng.random() * (n - 1)
        acc = 0.0
        v_colour, v_dark = -1, False
        for j in range(self.k):
            light = self._light[j] - (
                1 if (j == u_colour and not u_dark) else 0
            )
            acc += light
            if pick < acc:
                v_colour, v_dark = j, False
                break
            darkc = self._dark[j] - (1 if (j == u_colour and u_dark) else 0)
            acc += darkc
            if pick < acc:
                v_colour, v_dark = j, True
                break
        else:
            v_colour, v_dark = u_colour, u_dark
        # Apply the Diversification rule.
        if not u_dark and v_dark:
            self._light[u_colour] -= 1
            self._dark[v_colour] += 1
            return True
        if u_dark and v_dark and u_colour == v_colour:
            if rng.random() < self._lighten[u_colour]:
                self._dark[u_colour] -= 1
                self._light[u_colour] += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Event-driven mode

    def _event_rates(self) -> tuple[float, float, list[float]]:
        """(adopt_rate, lighten_rate, per-colour lighten terms), scaled
        by ``n (n - 1)``."""
        total_light = float(sum(self._light))
        total_dark = float(sum(self._dark))
        adopt = total_light * total_dark
        lighten_terms = [
            self._dark[i] * (self._dark[i] - 1) * self._lighten[i]
            for i in range(self.k)
        ]
        return adopt, float(sum(lighten_terms)), lighten_terms

    def run(self, steps: int) -> "AggregateSimulation":
        """Advance exactly ``steps`` time-steps using event jumps.

        An arrival drawn past the horizon is kept in ``_pending`` and
        consumed by the next call, so any split of a horizon into
        consecutive ``run`` calls yields the bit-identical trajectory.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        horizon = self.time + steps
        rng = self.rng
        while self.time < horizon:
            adopt, lighten, lighten_terms = self._event_rates()
            denom = self.n * (self.n - 1)
            p_active = (adopt + lighten) / denom
            if p_active <= 0.0:
                self.time = horizon
                break
            if self._pending is None:
                gap = int(rng.geometric(min(p_active, 1.0)))
                self._pending = self.time + gap
            if self._pending > horizon:
                # The next active event falls beyond the horizon; the
                # remaining steps are no-ops, and the arrival is kept
                # for the next run call (memorylessness makes keeping
                # and redrawing equal in distribution; keeping is also
                # split-invariant bit-for-bit).
                self.time = horizon
                break
            self.time = self._pending
            self._pending = None
            self._apply_active_event(adopt, lighten, lighten_terms)
        return self

    def run_until(
        self,
        predicate,
        *,
        max_steps: int,
        check_interval: int = 1,
    ) -> int | None:
        """Run until ``predicate(self)`` is true at an active event.

        Returns the hitting time-step, or None if ``max_steps`` elapsed.
        The predicate is evaluated after every ``check_interval``-th
        active event (the configuration is constant in between).
        """
        if predicate(self):
            return self.time
        horizon = self.time + max_steps
        rng = self.rng
        events = 0
        while self.time < horizon:
            adopt, lighten, lighten_terms = self._event_rates()
            denom = self.n * (self.n - 1)
            p_active = (adopt + lighten) / denom
            if p_active <= 0.0:
                return None
            if self._pending is None:
                gap = int(rng.geometric(min(p_active, 1.0)))
                self._pending = self.time + gap
            if self._pending > horizon:
                self.time = horizon
                return None
            self.time = self._pending
            self._pending = None
            self._apply_active_event(adopt, lighten, lighten_terms)
            events += 1
            if events % check_interval == 0 and predicate(self):
                return self.time
        return None

    def _apply_active_event(
        self,
        adopt: float,
        lighten: float,
        lighten_terms: list[float],
    ) -> None:
        rng = self.rng
        if rng.random() * (adopt + lighten) < adopt:
            # Adopt: light colour i -> dark colour j.
            i = _pick_weighted(self._light, rng)
            j = _pick_weighted(self._dark, rng)
            self._light[i] -= 1
            self._dark[j] += 1
        else:
            i = _pick_weighted(lighten_terms, rng)
            self._dark[i] -= 1
            self._light[i] += 1

    # ------------------------------------------------------------------
    # Adversary support

    def add_agents(self, colour: int, count: int, dark: bool = True) -> None:
        """Inject ``count`` fresh agents of an existing colour."""
        if not 0 <= colour < self.k:
            raise ValueError(f"unknown colour {colour}")
        if count < 0:
            raise ValueError("count must be non-negative")
        if dark:
            self._dark[colour] += count
        else:
            self._light[colour] += count
        self._pending = None  # rates changed: redraw the next arrival

    def add_colour(self, weight: float, count: int, dark: bool = True) -> int:
        """Introduce a brand-new colour with ``count`` supporters.

        Sustainability requires new colours to arrive dark (Sec 1.2).
        """
        if count < 0:  # validate before any widening takes effect
            raise ValueError("count must be non-negative")
        colour = self.weights.add_colour(weight)
        self._dark.append(0)
        self._light.append(0)
        self._lighten.append(1.0 / weight)
        self.add_agents(colour, count, dark=dark)
        return colour

    def recolour(self, source: int, target: int) -> None:
        """Repaint all agents of ``source`` as ``target`` (shades kept)."""
        if not (0 <= source < self.k and 0 <= target < self.k):
            raise ValueError("source and target must be existing colours")
        if source == target:
            return
        self._dark[target] += self._dark[source]
        self._light[target] += self._light[source]
        self._dark[source] = 0
        self._light[source] = 0
        self._pending = None  # rates changed: redraw the next arrival

    # ------------------------------------------------------------------
    # State view

    def snapshot(self) -> dict:
        """Read-only ``repro-ckpt/v1`` view of all run-relevant state."""
        return ckpt.payload(
            "AggregateSimulation",
            weights=self.weights.as_array(),
            dark=self.dark_counts(),
            light=self.light_counts(),
            lighten=np.asarray(self._lighten, dtype=np.float64),
            time=int(self.time),
            pending=-1 if self._pending is None else int(self._pending),
            rng=ckpt.rng_state(self.rng),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AggregateSimulation(n={self.n}, k={self.k}, t={self.time})"


def _pick_weighted(
    masses: Sequence[float], rng: np.random.Generator
) -> int:
    """Index sampled proportionally to non-negative masses."""
    total = float(sum(masses))
    pick = rng.random() * total
    acc = 0.0
    for index, mass in enumerate(masses):
        acc += mass
        if pick < acc:
            return index
    for index in reversed(range(len(masses))):  # numerical edge
        if masses[index] > 0:
            return index
    raise ValueError("cannot sample from all-zero masses")
