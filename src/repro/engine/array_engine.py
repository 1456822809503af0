"""Structure-of-arrays agent-level engine.

:class:`ArraySimulation` executes the same per-step model as the scalar
:class:`~repro.engine.simulator.Simulation` — one scheduled agent per
time-step samples ``arity`` partners and applies the protocol's
transition, and *only the scheduled agent changes state* — but holds the
population as flat ``(colour, shade)`` integer arrays, draws its steps
in vectorised blocks and applies each protocol's transition *kernel* to
them.

Exactness.  A run copies the colours and shades into Python lists once,
walks the pre-drawn steps one by one in order — each step reads the
state every earlier step left and writes its initiator's change before
the next step reads — and writes the arrays back once at the end.  The
trajectory is therefore the sequential trajectory of the engine's own
draw sequence *exactly*, not just in distribution.  Against the scalar
engine the equivalence is distributional (the draw streams differ); it
is verified with seeded Kolmogorov-Smirnov tests in
``tests/integration/test_array_equivalence.py``.

Eight protocols have kernels: the Diversification protocol
(light-adopts-dark, dark-dark lightening with probability ``1/w_i``),
its unweighted ablation, and the baselines Voter, 2-Choices,
3-Majority, SIS epidemic, random recolouring and trivial resampling;
protocols without a kernel raise and should run on the scalar engine
(the experiment runners fall back automatically).  Supported
interaction graphs are the complete graph (``topology=None`` or
:class:`~repro.topology.base.CompleteGraph`) and any CSR-adjacency
topology exposing ``neighbour_arrays()``
(:class:`~repro.topology.graphs.AdjacencyTopology` and subclasses),
sampled with vectorised gathers.

The engine shares the scalar engine's seeding contract: draws are
buffered in fixed-size blocks anchored to the executed-step count (a
refill draws the block's initiators with ``rng.integers(0, n,
_BLOCK)``, then its partner uniforms, then its coins), so
``step()`` equals ``run(1)`` and ``run(a); run(b)`` equals
``run(a + b)`` for a fixed seed.  The adversary interventions of
:mod:`repro.adversary` apply between (not during) ``run`` calls through
:meth:`ArraySimulation.add_agents`, :meth:`ArraySimulation.add_colour`
and :meth:`ArraySimulation.recolour`; population growth discards the
draw buffer (re-anchoring the stream, exactly like the scalar engine)
and requires the complete graph, since CSR adjacency cannot grow.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable

import numpy as np

from ..baselines.epidemic import SISEpidemic
from ..baselines.three_majority import ThreeMajority
from ..baselines.trivial import TrivialResampling
from ..baselines.two_choices import TwoChoices
from ..baselines.uniform_partition import RandomRecolouring
from ..baselines.voter import VoterModel
from ..core.ablations import UnweightedLightening
from ..core.diversification import Diversification
from ..core.protocol import Protocol
from ..core.state import DARK, LIGHT, AgentState
from ..core.weights import WeightTable
from ..topology.base import CompleteGraph
from . import checkpoint as ckpt
from .observers import Observer
from .population import Population
from .rng import make_rng

_BLOCK = 8192


# ----------------------------------------------------------------------
# Transition kernels


class _Kernel:
    """A transition kernel: :meth:`apply` runs a slice of pre-drawn
    steps in order on the population's colour and shade lists.  Step
    ``j`` of the slice has initiator ``initiators[j]``, sampled
    partners ``partners[a][j]`` (one list per partner slot) and coins
    ``coins[c][j]`` (one list per coin).  Only initiators' entries
    change; each change is written before the next step reads, then
    reported as ``on_change(j, agent, old_colour, old_shade,
    new_colour, new_shade)`` when a callback is given.  ``apply``
    returns the number of changes.  :meth:`refresh` runs before each
    run with the engine's colour slot count ``k``."""

    coins = 0

    def __init__(self, protocol):
        self._protocol = protocol

    def refresh(self, k: int) -> None:
        """Check ``k`` and rebind per-colour tables (none by default)."""


class _DiversificationKernel(_Kernel):
    """Eq. (2): adopt when light meets dark, lighten a dark pair of
    equal colour with the per-colour coin ``1/w_i`` (or 1 for the
    unweighted ablation)."""

    coins = 1

    def __init__(self, protocol, unweighted: bool = False):
        super().__init__(protocol)
        self._unweighted = unweighted
        self._lighten = None

    def refresh(self, k: int) -> None:
        weights = self._protocol.weights
        if weights.k != k:
            raise ValueError(
                f"weight table grew to {weights.k} colours but the array "
                f"engine was built for k={k}; colour addition needs the "
                "scalar engines"
            )
        if self._unweighted:
            self._lighten = [1.0] * k
        else:
            self._lighten = (1.0 / weights.as_array()).tolist()

    def apply(self, colours, shades, initiators, partners, coins, on_change):
        lighten = self._lighten
        sampled = partners[0]
        coin = coins[0]
        changes = 0
        for j, u in enumerate(initiators):
            v = sampled[j]
            if shades[v] <= LIGHT:
                continue
            uc = colours[u]
            us = shades[u]
            if us <= LIGHT:
                new_c, new_s = colours[v], DARK
            elif uc == colours[v] and coin[j] < lighten[uc]:
                new_c, new_s = uc, LIGHT
            else:
                continue
            colours[u] = new_c
            shades[u] = new_s
            changes += 1
            if on_change is not None:
                on_change(j, u, uc, us, new_c, new_s)
        return changes


class _VoterKernel(_Kernel):
    """Adopt the sampled colour unconditionally (dark shade)."""

    def apply(self, colours, shades, initiators, partners, coins, on_change):
        sampled = partners[0]
        changes = 0
        for j, u in enumerate(initiators):
            uc = colours[u]
            new_c = colours[sampled[j]]
            if new_c == uc:
                continue
            us = shades[u]
            colours[u] = new_c
            shades[u] = DARK
            changes += 1
            if on_change is not None:
                on_change(j, u, uc, us, new_c, DARK)
        return changes


class _ThreeMajorityKernel(_Kernel):
    """Majority of {own, sample, sample}; uniform pick among full ties."""

    coins = 1

    def apply(self, colours, shades, initiators, partners, coins, on_change):
        first, second = partners
        coin = coins[0]
        changes = 0
        for j, u in enumerate(initiators):
            uc = colours[u]
            c1 = colours[first[j]]
            c2 = colours[second[j]]
            if uc == c1 or uc == c2:
                continue
            if c1 == c2:
                new_c = c1
            else:
                pick = int(coin[j] * 3.0)  # 0, 1 or 2
                new_c = uc if pick == 0 else c1 if pick == 1 else c2
                if new_c == uc:
                    continue
            us = shades[u]
            colours[u] = new_c
            shades[u] = DARK
            changes += 1
            if on_change is not None:
                on_change(j, u, uc, us, new_c, DARK)
        return changes


class _TwoChoicesKernel(_Kernel):
    """Adopt the sampled colour only when both samples agree on a
    colour different from one's own (dark shade on change)."""

    def apply(self, colours, shades, initiators, partners, coins, on_change):
        first, second = partners
        changes = 0
        for j, u in enumerate(initiators):
            uc = colours[u]
            new_c = colours[first[j]]
            if new_c == uc or new_c != colours[second[j]]:
                continue
            us = shades[u]
            colours[u] = new_c
            shades[u] = DARK
            changes += 1
            if on_change is not None:
                on_change(j, u, uc, us, new_c, DARK)
        return changes


class _SISKernel(_Kernel):
    """SIS contact process: spontaneous recovery for infected agents,
    transmission on contact for susceptible ones.  The branches are
    exclusive per agent, so one pre-drawn coin serves both (the scalar
    engine draws lazily; only the distribution must match)."""

    coins = 1

    def refresh(self, k: int) -> None:
        if k != 2:
            raise ValueError(
                f"the SIS kernel needs exactly two colour slots "
                f"(susceptible/infected), got k={k}"
            )

    def apply(self, colours, shades, initiators, partners, coins, on_change):
        protocol = self._protocol
        infected, susceptible = protocol.INFECTED, protocol.SUSCEPTIBLE
        recovery, transmission = protocol.recovery, protocol.transmission
        sampled = partners[0]
        coin = coins[0]
        changes = 0
        for j, u in enumerate(initiators):
            uc = colours[u]
            if uc == infected:
                if not coin[j] < recovery:
                    continue
                new_c = susceptible
            elif colours[sampled[j]] == infected and coin[j] < transmission:
                new_c = infected
            else:
                continue
            us = shades[u]
            colours[u] = new_c
            shades[u] = DARK
            changes += 1
            if on_change is not None:
                on_change(j, u, uc, us, new_c, DARK)
        return changes


class _RandomRecolouringKernel(_Kernel):
    """Relabel to a uniformly random colour on same-colour meetings
    (the strawman's global-knowledge redraw over all ``k`` colours)."""

    coins = 1

    def refresh(self, k: int) -> None:
        if self._protocol.k > k:
            raise ValueError(
                f"random recolouring redraws over {self._protocol.k} "
                f"colours but the engine has only k={k} slots"
            )

    def apply(self, colours, shades, initiators, partners, coins, on_change):
        k = self._protocol.k
        sampled = partners[0]
        coin = coins[0]
        changes = 0
        for j, u in enumerate(initiators):
            uc = colours[u]
            if colours[sampled[j]] != uc:
                continue
            new_c = min(int(coin[j] * k), k - 1)  # ulp guard on coin ~ 1
            us = shades[u]
            if new_c == uc and us == DARK:
                continue
            colours[u] = new_c
            shades[u] = DARK
            changes += 1
            if on_change is not None:
                on_change(j, u, uc, us, new_c, DARK)
        return changes


class _TrivialResamplingKernel(_Kernel):
    """Redraw own colour proportionally to the protocol's private
    weight snapshot, gated by the resample probability."""

    coins = 2

    def refresh(self, k: int) -> None:
        if self._protocol.known_k > k:
            raise ValueError(
                f"trivial resampling draws over {self._protocol.known_k} "
                f"colours but the engine has only k={k} slots"
            )

    def apply(self, colours, shades, initiators, partners, coins, on_change):
        protocol = self._protocol
        gate = protocol.resample_probability
        cumulative = protocol.cumulative_shares().tolist()
        last = protocol.known_k - 1
        gate_coin, pick_coin = coins
        changes = 0
        for j, u in enumerate(initiators):
            if not gate_coin[j] < gate:
                continue
            uc = colours[u]
            new_c = min(bisect_right(cumulative, pick_coin[j]), last)
            if new_c == uc:
                continue
            us = shades[u]
            colours[u] = new_c
            shades[u] = DARK
            changes += 1
            if on_change is not None:
                on_change(j, u, uc, us, new_c, DARK)
        return changes


#: Exact protocol type -> kernel factory (called with the protocol).
#: Exact matches only: a subclass overriding ``transition`` must not
#: inherit its parent's kernel.
_KERNEL_FACTORIES = {
    Diversification: _DiversificationKernel,
    UnweightedLightening: lambda p: _DiversificationKernel(
        p, unweighted=True
    ),
    VoterModel: _VoterKernel,
    ThreeMajority: _ThreeMajorityKernel,
    TwoChoices: _TwoChoicesKernel,
    SISEpidemic: _SISKernel,
    RandomRecolouring: _RandomRecolouringKernel,
    TrivialResampling: _TrivialResamplingKernel,
}


def kernel_for(protocol: Protocol):
    """The transition kernel for ``protocol``, or None if it has none."""
    factory = _KERNEL_FACTORIES.get(type(protocol))
    if factory is None:
        return None
    return factory(protocol)


def has_kernel(protocol: Protocol) -> bool:
    """Whether ``protocol`` can run on :class:`ArraySimulation`."""
    return type(protocol) in _KERNEL_FACTORIES


def supports_topology(topology) -> bool:
    """Whether the array engine can sample neighbours on ``topology``.

    ``None`` and :class:`~repro.topology.base.CompleteGraph` use the
    shifted-uniform complete-graph draw; anything exposing
    ``neighbour_arrays()`` (CSR adjacency) uses vectorised gathers.
    """
    return (
        topology is None
        or isinstance(topology, CompleteGraph)
        or hasattr(topology, "neighbour_arrays")
    )


def _whole_numbers(values, name: str):
    """``values`` as an int64 array; ``ValueError`` unless every entry
    is a whole number (``1.0`` is one, ``0.5`` is not)."""
    raw = np.asarray(values)
    if raw.dtype.kind == "f" and not bool(
        (np.isfinite(raw) & (np.floor(raw) == raw)).all()
    ):
        raise ValueError(f"{name} must be whole numbers")
    return np.asarray(raw, dtype=np.int64)


# ----------------------------------------------------------------------


class ArrayPopulationView:
    """Read-mostly :class:`~repro.engine.population.Population` facade
    over an :class:`ArraySimulation`'s state arrays, so observers and
    recording code written against the scalar engine keep working."""

    def __init__(self, simulation: "ArraySimulation"):
        self._simulation = simulation

    @property
    def n(self) -> int:
        return self._simulation.n

    @property
    def k(self) -> int:
        return self._simulation.k

    def state_of(self, agent: int) -> AgentState:
        return AgentState(self.colour_of(agent), self.shade_of(agent))

    def colour_of(self, agent: int) -> int:
        return int(self._simulation._colours[agent])

    def shade_of(self, agent: int) -> int:
        return int(self._simulation._shades[agent])

    def states(self) -> list[AgentState]:
        return [
            AgentState(int(c), int(s))
            for c, s in zip(
                self._simulation._colours, self._simulation._shades
            )
        ]

    def colour_counts(self):
        return self._simulation.colour_counts()

    def dark_counts(self):
        return self._simulation.dark_counts()

    def light_counts(self):
        return self._simulation.light_counts()

    def colours_view(self):
        return self._simulation._colours

    def shades_view(self):
        return self._simulation._shades

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayPopulationView(n={self.n}, k={self.k})"


class ArraySimulation:
    """Structure-of-arrays agent-level engine with per-protocol kernels.

    Args:
        protocol: The local update rule; must have a registered kernel
            (see :func:`has_kernel`).
        colours: Initial colours — a
            :class:`~repro.engine.population.Population` (colours and
            shades are copied out) or a flat length-``n`` sequence of
            whole numbers.
        shades: Optional initial shades, same length as ``colours``;
            defaults to each colour's ``protocol.initial_state`` shade.
        k: Number of colour slots (default: inferred from the
            protocol's weight table, else ``max(colour) + 1``).
        topology: ``None`` / complete graph, or a CSR-adjacency
            topology (see :func:`supports_topology`).
        rng: Seed or generator driving all randomness (vectorised
            draws).
        observers: Change-driven instrumentation.  With observers
            attached, the step loop writes each change to the state
            arrays, the live counts and the clock before it calls them,
            so each callback sees the exact mid-trajectory state.
    """

    def __init__(
        self,
        protocol: Protocol,
        colours,
        *,
        shades=None,
        k: int | None = None,
        topology=None,
        rng: int | np.random.Generator | None = None,
        observers: Iterable[Observer] = (),
    ):
        self.protocol = protocol
        self._kernel = kernel_for(protocol)
        if self._kernel is None:
            raise ValueError(
                f"protocol {protocol.name!r} has no vectorised kernel; "
                "use repro.engine.Simulation"
            )
        if isinstance(colours, Population):
            if shades is None:
                shades = colours.shades_view()
            if k is None:
                k = colours.k
            colours = colours.colours_view()
        colours = _whole_numbers(colours, "colours")
        if colours.ndim != 1:
            raise ValueError("colours must be a flat (n,) sequence")
        self._n = int(colours.shape[0])
        if self._n < 2:
            raise ValueError("need at least two agents to interact")
        if int(colours.min()) < 0:
            raise ValueError("colours must be non-negative")
        observed_k = int(colours.max()) + 1
        if k is None:
            weights = getattr(protocol, "weights", None)
            k = weights.k if weights is not None else observed_k
        if k < observed_k:
            raise ValueError(
                f"k={k} smaller than max colour {observed_k - 1}"
            )
        self._k = int(k)
        if shades is None:
            shade_map = np.asarray(
                [protocol.initial_state(c).shade for c in range(self._k)],
                dtype=np.int64,
            )
            shades = shade_map[colours]
        else:
            shades = _whole_numbers(shades, "shades")
            if shades.shape != colours.shape:
                raise ValueError("shades must match the shape of colours")
            if int(shades.min()) < 0:
                raise ValueError("shades must be non-negative")
        self._colours = colours.copy()
        self._shades = shades.copy()
        self.topology = topology
        if topology is not None and topology.n != self._n:
            raise ValueError(
                f"topology has {topology.n} nodes but population has "
                f"{self._n} agents"
            )
        self._complete = topology is None or isinstance(
            topology, CompleteGraph
        )
        if self._complete:
            self._offsets = self._targets = None
        elif hasattr(topology, "neighbour_arrays"):
            offsets, targets = topology.neighbour_arrays()
            self._offsets = np.asarray(offsets, dtype=np.int64)
            self._targets = np.asarray(targets, dtype=np.int64)
        else:
            raise ValueError(
                f"topology {type(topology).__name__} exposes no CSR "
                "adjacency (neighbour_arrays); use repro.engine.Simulation"
            )
        self.observers: list[Observer] = list(observers)
        self.rng = make_rng(rng)
        self._time = 0
        self.changes = 0
        self._arity = int(protocol.arity)
        self._ncoins = int(self._kernel.coins)
        self._buf_pos = _BLOCK  # empty; first run() refills
        # Live (k,) count tables are maintained only while observers
        # need per-change snapshots; otherwise counts are recomputed on
        # demand with one bincount.
        self._live_counts: dict | None = None
        self._population_view = ArrayPopulationView(self)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def n(self) -> int:
        """Number of agents."""
        return self._n

    @property
    def k(self) -> int:
        """Number of colour slots (fixed for the engine's lifetime)."""
        return self._k

    @property
    def time(self) -> int:
        """Executed time-steps."""
        return self._time

    @property
    def population(self) -> ArrayPopulationView:
        """Population facade over the state arrays."""
        return self._population_view

    def colour_counts(self):
        """``C_i`` per colour, shape ``(k,)``."""
        if self._live_counts is not None:
            return self._live_counts["colour"].copy()
        return self._bincount(None)

    def dark_counts(self):
        """``A_i`` (shade > 0), shape ``(k,)``."""
        if self._live_counts is not None:
            return self._live_counts["dark"].copy()
        return self._bincount(self._shades > LIGHT)

    def light_counts(self):
        """``a_i`` (shade == 0), shape ``(k,)``."""
        if self._live_counts is not None:
            return self._live_counts["light"].copy()
        return self._bincount(self._shades == LIGHT)

    def _bincount(self, mask):
        data = self._colours if mask is None else self._colours[mask]
        return np.bincount(data, minlength=self._k)

    # ------------------------------------------------------------------
    # Adversary support (between, never during, ``run`` calls)

    def add_agents(self, colour: int, count: int, dark: bool = True) -> None:
        """Inject ``count`` fresh agents of an existing colour.

        Growth discards the draw buffer — partner draws are relative to
        the population size — which re-anchors the stream exactly like
        the scalar engine's refill-on-growth; it requires the complete
        graph because CSR adjacency cannot grow.
        """
        if not 0 <= colour < self._k:
            raise ValueError(f"unknown colour {colour}")
        self._check_growth(count)
        if count == 0:
            return
        shade = DARK if dark else LIGHT
        self._colours = np.concatenate(
            [self._colours, np.full(count, colour, dtype=np.int64)]
        )
        self._shades = np.concatenate(
            [self._shades, np.full(count, shade, dtype=np.int64)]
        )
        self._n += count
        self._buf_pos = _BLOCK  # discard stale partner draws
        if self._live_counts is not None:
            counts = self._live_counts
            counts["colour"][colour] += count
            counts["dark" if dark else "light"][colour] += count

    def add_colour(self, weight: float, count: int, dark: bool = True) -> int:
        """Introduce a brand-new colour with ``count`` supporters,
        widening the protocol's weight table (the kernel rebinds its
        per-colour tables from that table on the next run)."""
        weights = getattr(self.protocol, "weights", None)
        if weights is None:
            raise TypeError(
                f"protocol {self.protocol.name!r} has no weight table"
            )
        self._check_growth(count)  # before any widening takes effect
        colour = weights.add_colour(weight)
        self._grow_colour_slots(weights.k)
        self._kernel.refresh(self._k)
        self.add_agents(colour, count, dark=dark)
        return colour

    def recolour(self, source: int, target: int) -> None:
        """Repaint every agent of ``source`` colour as ``target``
        (shades kept).  Indices are stable, so the draw buffer stays
        valid."""
        if not (0 <= source < self._k and 0 <= target < self._k):
            raise ValueError("source and target must be existing colours")
        if source == target:
            return
        self._colours[self._colours == source] = target
        if self._live_counts is not None:
            self._live_counts = {
                "colour": self._bincount(None),
                "dark": self._bincount(self._shades > LIGHT),
                "light": self._bincount(self._shades == LIGHT),
            }

    def _check_growth(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count and not self._complete:
            raise ValueError(
                "population growth requires the complete graph; explicit "
                "topologies cannot gain agents"
            )

    def _grow_colour_slots(self, new_k: int) -> None:
        if new_k < self._k:
            raise ValueError("colour slots can only grow")
        extra = new_k - self._k
        self._k = int(new_k)
        if extra and self._live_counts is not None:
            self._live_counts = {
                key: np.concatenate(
                    [table, np.zeros(extra, dtype=table.dtype)]
                )
                for key, table in self._live_counts.items()
            }

    # ------------------------------------------------------------------
    # Stepping

    def step(self) -> bool:
        """Execute one time-step; returns True if a state changed.

        Trajectory-equivalent to ``run(1)`` (same draws), but — like
        the scalar engine — does not fire the observers'
        ``on_start``/``on_end`` lifecycle hooks, which frame whole
        ``run`` calls.
        """
        before = self.changes
        self._prepare()
        self._run_single(1)
        return self.changes > before

    def run(self, steps: int) -> "ArraySimulation":
        """Execute ``steps`` time-steps; returns self for chaining."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self._prepare()
        for observer in self.observers:
            observer.on_start(self)
        self._run_single(steps)
        for observer in self.observers:
            observer.on_end(self)
        return self

    def _prepare(self) -> None:
        self._kernel.refresh(self._k)
        if self.observers and self._live_counts is None:
            self._live_counts = {
                "colour": self._bincount(None),
                "dark": self._bincount(self._shades > LIGHT),
                "light": self._bincount(self._shades == LIGHT),
            }

    # ------------------------------------------------------------------
    # The step loop

    def _run_single(self, steps: int) -> None:
        """Apply ``steps`` pre-drawn steps one by one on list copies of
        the state, refilling the draw buffer whenever it runs dry, and
        write the arrays back once at the end."""
        kernel = self._kernel
        colours = self._colours.tolist()
        shades = self._shades.tolist()
        remaining = steps
        while remaining > 0:
            if self._buf_pos >= _BLOCK:
                self._refill_single()
            lo = self._buf_pos
            hi = min(_BLOCK, lo + remaining)
            time, changes = self._time, self.changes
            on_change = self._observed(time) if self.observers else None
            changes += kernel.apply(
                colours,
                shades,
                self._buf_init[lo:hi].tolist(),
                self._buf_partners[lo:hi].T.tolist(),
                self._buf_coins[lo:hi].T.tolist(),
                on_change,
            )
            self._time, self.changes = time + hi - lo, changes
            self._buf_pos = hi
            remaining -= hi - lo
        self._colours[:] = colours
        self._shades[:] = shades

    def _refill_single(self) -> None:
        """Draw a full block of steps."""
        n = self._n
        rng = self.rng
        initiators = rng.integers(0, n, size=_BLOCK)
        partner_uniforms = rng.random((_BLOCK, self._arity))
        if self._ncoins:
            self._buf_coins = rng.random((_BLOCK, self._ncoins))
        else:
            self._buf_coins = np.zeros((_BLOCK, 0), dtype=np.float64)
        if self._complete:
            draw = (partner_uniforms * (n - 1)).astype(np.int64)
            partners = draw + (draw >= initiators[:, None])
        else:
            degrees = (
                self._offsets[initiators + 1] - self._offsets[initiators]
            )
            local = (partner_uniforms * degrees[:, None]).astype(np.int64)
            partners = self._targets[
                self._offsets[initiators][:, None] + local
            ]
        self._buf_init = initiators
        self._buf_partners = partners
        self._buf_pos = 0

    def _observed(self, origin: int):
        """The per-change callback of an observed slice that starts at
        clock ``origin``: it writes the change to the arrays, the live
        counts and the clocks, then calls the observers, so each one
        sees the exact mid-trajectory state."""
        colours, shades = self._colours, self._shades
        counts = self._live_counts
        colour, dark, light = counts["colour"], counts["dark"], counts["light"]
        observers = self.observers

        def on_change(j, agent, old_c, old_s, new_c, new_s):
            self._time = origin + j + 1
            colours[agent] = new_c
            shades[agent] = new_s
            colour[old_c] -= 1
            colour[new_c] += 1
            (dark if old_s > LIGHT else light)[old_c] -= 1
            (dark if new_s > LIGHT else light)[new_c] += 1
            self.changes += 1
            old, new = AgentState(old_c, old_s), AgentState(new_c, new_s)
            for observer in observers:
                observer.on_change(self, agent, old, new)

        return on_change

    # ------------------------------------------------------------------
    # State view

    def snapshot(self) -> dict:
        """Read-only ``repro-ckpt/v1`` view of all run-relevant state.

        Captures the state arrays, clocks, the partially consumed draw
        buffer (initiators, partners and coins), the RNG bit-generator
        state, and the protocol's weight table when it has one.  An
        exhausted buffer is dropped (the next run refills at the same
        stream position either way).  Every array in the view is a
        copy.
        """
        buffered = hasattr(self, "_buf_init") and self._buf_pos < _BLOCK
        weights = getattr(self.protocol, "weights", None)
        fields = {
            "colours": self._colours.copy(),
            "shades": self._shades.copy(),
            "k": int(self._k),
            "n": int(self._n),
            "time": int(self._time),
            "changes": int(self.changes),
            "buffered": int(buffered),
            "buf_pos": int(self._buf_pos),
            "rng": ckpt.rng_state(self.rng),
        }
        if buffered:
            fields["buf_init"] = self._buf_init.copy()
            fields["buf_partners"] = self._buf_partners.copy()
            fields["buf_coins"] = self._buf_coins.copy()
        if isinstance(weights, WeightTable):
            fields["weights"] = weights.as_array()
        return ckpt.payload("ArraySimulation", **fields)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArraySimulation(protocol={self.protocol.name!r}, "
            f"n={self.n}, k={self.k}, t={self.time})"
        )
