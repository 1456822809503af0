"""Vectorised structure-of-arrays agent-level engine.

:class:`ArraySimulation` executes the same per-step model as the scalar
:class:`~repro.engine.simulator.Simulation` — one scheduled agent per
time-step samples ``arity`` partners and applies the protocol's
transition, and *only the scheduled agent changes state* — but holds the
population as flat ``(colour, shade)`` integer arrays and applies
transition *kernels* to whole blocks of steps at once.

Exactness.  Single-run mode evaluates the kernel over a **window** of
pre-drawn steps against the window-start state, then commits the
window up to the first step that reads (as initiator or partner) an
agent an earlier step of the window *changed* — an effective write,
not merely a scheduled one, since most steps change nothing.  Every
committed step therefore read what the sequential loop would have
shown it, and no agent changes twice in a committed prefix, so
scattering the changed entries reproduces the sequential trajectory of
the engine's own draw sequence *exactly*, not just in distribution.
The first uncommitted step opens the next window; draws are buffered
by executed-step count, so how steps group into windows never shows.
Against the scalar engine the equivalence is distributional (the draw
streams differ); it is verified with seeded Kolmogorov-Smirnov tests in
``tests/integration/test_array_equivalence.py``.

Kernels exist for the Diversification protocol (light-adopts-dark,
dark-dark lightening with probability ``1/w_i``), its unweighted
ablation, and the whole baseline suite (Voter, 2-Choices, 3-Majority,
anti-voter, SIS epidemic, random recolouring, trivial resampling);
protocols without a kernel raise and should run on the scalar engine
(the experiment runners fall back automatically).  Supported
interaction graphs are the
complete graph (``topology=None`` or
:class:`~repro.topology.base.CompleteGraph`) and any CSR-adjacency
topology exposing ``neighbour_arrays()``
(:class:`~repro.topology.graphs.AdjacencyTopology` and subclasses),
sampled with vectorised gathers.

A batched ``(R, n)`` axis advances R independent replications of the
same instance together, mirroring
:class:`~repro.engine.batched.BatchedAggregateSimulation`: one step is
applied to all replications per iteration, so the Python-level loop
count is paid once instead of R times.

The engine shares the scalar engine's seeding contract: draws are
buffered in fixed-size blocks anchored to the executed-step count, so
``step()`` equals ``run(1)`` and ``run(a); run(b)`` equals
``run(a + b)`` for a fixed seed.  The adversary interventions of
:mod:`repro.adversary` apply between (not during) ``run`` calls through
:meth:`ArraySimulation.add_agents`, :meth:`ArraySimulation.add_colour`
and :meth:`ArraySimulation.recolour`; population growth discards the
draw buffer (re-anchoring the stream, exactly like the scalar engine)
and requires the complete graph, since CSR adjacency cannot grow.  In
batched mode an intervention applies to every replication at once.

Backends.  All array work routes through :mod:`repro.engine.backend`:
the transition kernels restrict themselves to the array-API standard
(``take`` instead of fancy indexing, ``astype`` as a function, no
``out=``), so :func:`kernel_for` can build a kernel against any
resolved backend — including ``array-api-strict`` — while the engine
step loops, which need NumPy-compatible scatter (and the ``minimum.at``
scatter-min) and ``bincount``, gate on
:func:`~repro.engine.backend.require_engine_loops`.  Randomness
stays on the host (see :mod:`repro.engine.rng`) and is device-placed
per block; checkpoints always serialise as host NumPy arrays.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..baselines.anti_voter import AntiVoterModel
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
from .backend import (
    FLOAT64,
    HOST,
    INT64,
    Backend,
    Generator,
    require_engine_loops,
    resolve_backend,
)
from .observers import Observer
from .population import Population
from .rng import make_rng
from .scheduler import Scheduler, UniformScheduler

_BLOCK = 8192
#: Target total draws (steps x replications) per batched refill.
_BATCH_DRAWS = 65536
#: Single-run window: the first one's length, and the least a cut one
#: shrinks to (windows grow and shrink with the committed lengths).
_FIRST_WINDOW = 32
_MIN_WINDOW = 16


# ----------------------------------------------------------------------
# Transition kernels
#
# Kernels are written against the array-API standard — element-wise
# operators, ``xp.where`` on arrays, ``xp.take`` gathers, ``xp.astype``
# — so the same source runs on NumPy, CuPy and ``array-api-strict``.
# Scalar constants that feed ``xp.where`` branches are materialised as
# 0-d arrays once per ``refresh`` (the strict namespace insists on
# arrays where NumPy would promote a Python scalar).


class _DiversificationKernel:
    """Vectorised Eq. (2): adopt when light meets dark, lighten a dark
    pair of equal colour with the per-colour coin ``1/w_i`` (or 1 for
    the unweighted ablation).

    In batched ``(R, n)`` mode the kernel optionally carries a *per-row*
    ``(R, k)`` lighten table (:meth:`set_row_lighten`), so replications
    with different weight tables fuse into one engine: Diversification's
    dynamics depend on the weights only through the lightening coins, so
    per-row coins capture per-row weight tables exactly.
    """

    coins = 1

    def __init__(
        self, protocol, unweighted: bool = False, backend: Backend = HOST
    ):
        self._protocol = protocol
        self._unweighted = unweighted
        self._backend = backend
        self._lighten = None
        self._row_lighten = None

    def set_row_lighten(self, table) -> None:
        """Install a per-row ``(R, k)`` lighten table (batched mode;
        row ``r`` holds the coins of replication ``r``)."""
        bk = self._backend
        self._row_lighten = bk.asarray(table, dtype=bk.dtypes.float64)

    def refresh(self, k: int) -> None:
        bk = self._backend
        xp = bk.xp
        dt = bk.dtypes
        if self._row_lighten is not None:
            if self._row_lighten.shape[1] != k:
                raise ValueError(
                    f"per-row lighten table has {self._row_lighten.shape[1]} "
                    f"columns but the engine has k={k}; colour addition "
                    "is not supported with per-row tables"
                )
            self._lighten = self._row_lighten
        else:
            weights = self._protocol.weights
            if weights.k != k:
                raise ValueError(
                    f"weight table grew to {weights.k} colours but the array "
                    f"engine was built for k={k}; colour addition needs the "
                    "scalar engines"
                )
            if self._unweighted:
                self._lighten = xp.ones(k, dtype=dt.float64)
            else:
                self._lighten = bk.from_host(1.0 / weights.as_array())
        self._dark0 = xp.asarray(DARK, dtype=dt.int64)
        self._light0 = xp.asarray(LIGHT, dtype=dt.int64)

    def apply(self, uc, us, vc, vs, coins):
        xp = self._backend.xp
        v0c = vc[..., 0]
        v0s = vs[..., 0]
        u_dark = us > LIGHT
        v_dark = v0s > LIGHT
        adopt = ~u_dark & v_dark
        if self._lighten.ndim == 2:
            # Per-row table: batched calls pass one scheduled agent per
            # replication, so position i of ``uc`` is replication i.
            # Gather with a flat take — strict has no 2-D fancy index.
            k = self._lighten.shape[1]
            rows = xp.arange(
                uc.shape[0], dtype=self._backend.dtypes.int64
            )
            threshold = xp.take(
                xp.reshape(self._lighten, (-1,)), rows * k + uc
            )
        else:
            threshold = xp.take(self._lighten, uc)
        lighten = (
            u_dark
            & v_dark
            & (uc == v0c)
            & (coins[..., 0] < threshold)
        )
        new_c = xp.where(adopt, v0c, uc)
        new_s = xp.where(
            adopt, self._dark0, xp.where(lighten, self._light0, us)
        )
        return new_c, new_s


class _VoterKernel:
    """Adopt the sampled colour unconditionally (dark shade)."""

    coins = 0

    def __init__(self, protocol, backend: Backend = HOST):
        self._protocol = protocol
        self._backend = backend

    def refresh(self, k: int) -> None:
        bk = self._backend
        self._dark0 = bk.xp.asarray(DARK, dtype=bk.dtypes.int64)

    def apply(self, uc, us, vc, vs, coins):
        xp = self._backend.xp
        v0c = vc[..., 0]
        same = v0c == uc
        new_s = xp.where(same, us, self._dark0)
        return xp.asarray(v0c, copy=True), new_s


class _ThreeMajorityKernel:
    """Majority of {own, sample, sample}; uniform pick among full ties."""

    coins = 1

    def __init__(self, protocol, backend: Backend = HOST):
        self._protocol = protocol
        self._backend = backend

    def refresh(self, k: int) -> None:
        bk = self._backend
        self._dark0 = bk.xp.asarray(DARK, dtype=bk.dtypes.int64)

    def apply(self, uc, us, vc, vs, coins):
        xp = self._backend.xp
        c1 = vc[..., 0]
        c2 = vc[..., 1]
        # 0, 1 or 2
        pick = xp.astype(coins[..., 0] * 3.0, self._backend.dtypes.int64)
        random_choice = xp.where(pick == 0, uc, xp.where(pick == 1, c1, c2))
        winner = xp.where(
            (uc == c1) | (uc == c2),
            uc,
            xp.where(c1 == c2, c1, random_choice),
        )
        new_s = xp.where(winner == uc, us, self._dark0)
        return winner, new_s


class _TwoChoicesKernel:
    """Adopt the sampled colour only when both samples agree on a
    colour different from one's own (dark shade on change)."""

    coins = 0

    def __init__(self, protocol, backend: Backend = HOST):
        self._protocol = protocol
        self._backend = backend

    def refresh(self, k: int) -> None:
        bk = self._backend
        self._dark0 = bk.xp.asarray(DARK, dtype=bk.dtypes.int64)

    def apply(self, uc, us, vc, vs, coins):
        xp = self._backend.xp
        c1 = vc[..., 0]
        c2 = vc[..., 1]
        change = (c1 == c2) & (c1 != uc)
        new_c = xp.where(change, c1, uc)
        new_s = xp.where(change, self._dark0, us)
        return new_c, new_s


class _AntiVoterKernel:
    """Adopt the opposite of the sampled colour (two-colour model)."""

    coins = 0

    def __init__(self, protocol, backend: Backend = HOST):
        self._protocol = protocol
        self._backend = backend

    def refresh(self, k: int) -> None:
        if k != 2:
            raise ValueError(
                f"the anti-voter kernel needs exactly two colour slots, "
                f"got k={k}"
            )
        bk = self._backend
        self._dark0 = bk.xp.asarray(DARK, dtype=bk.dtypes.int64)

    def apply(self, uc, us, vc, vs, coins):
        xp = self._backend.xp
        opposite = 1 - vc[..., 0]
        change = opposite != uc
        new_c = xp.where(change, opposite, uc)
        new_s = xp.where(change, self._dark0, us)
        return new_c, new_s


class _SISKernel:
    """SIS contact process: spontaneous recovery for infected agents,
    transmission on contact for susceptible ones.  The branches are
    exclusive per agent, so one pre-drawn coin serves both (the scalar
    engine draws lazily; only the distribution must match)."""

    coins = 1

    def __init__(self, protocol, backend: Backend = HOST):
        self._protocol = protocol
        self._backend = backend

    def refresh(self, k: int) -> None:
        if k != 2:
            raise ValueError(
                f"the SIS kernel needs exactly two colour slots "
                f"(susceptible/infected), got k={k}"
            )
        bk = self._backend
        xp = bk.xp
        dt = bk.dtypes
        self._dark0 = xp.asarray(DARK, dtype=dt.int64)
        self._susceptible0 = xp.asarray(
            self._protocol.SUSCEPTIBLE, dtype=dt.int64
        )
        self._infected0 = xp.asarray(
            self._protocol.INFECTED, dtype=dt.int64
        )

    def apply(self, uc, us, vc, vs, coins):
        xp = self._backend.xp
        protocol = self._protocol
        infected = uc == protocol.INFECTED
        coin = coins[..., 0]
        recover = infected & (coin < protocol.recovery)
        catch = (
            ~infected
            & (vc[..., 0] == protocol.INFECTED)
            & (coin < protocol.transmission)
        )
        new_c = xp.where(
            recover,
            self._susceptible0,
            xp.where(catch, self._infected0, uc),
        )
        new_s = xp.where(recover | catch, self._dark0, us)
        return new_c, new_s


class _RandomRecolouringKernel:
    """Relabel to a uniformly random colour on same-colour meetings
    (the strawman's global-knowledge redraw over all ``k`` colours)."""

    coins = 1

    def __init__(self, protocol, backend: Backend = HOST):
        self._protocol = protocol
        self._backend = backend

    def refresh(self, k: int) -> None:
        if self._protocol.k > k:
            raise ValueError(
                f"random recolouring redraws over {self._protocol.k} "
                f"colours but the engine has only k={k} slots"
            )
        bk = self._backend
        xp = bk.xp
        dt = bk.dtypes
        self._dark0 = xp.asarray(DARK, dtype=dt.int64)
        self._kmax0 = xp.asarray(self._protocol.k - 1, dtype=dt.int64)

    def apply(self, uc, us, vc, vs, coins):
        xp = self._backend.xp
        k = self._protocol.k
        redraw = vc[..., 0] == uc
        pick = xp.astype(coins[..., 0] * k, self._backend.dtypes.int64)
        pick = xp.minimum(pick, self._kmax0)  # ulp guard on coin ~ 1
        new_c = xp.where(redraw, pick, uc)
        new_s = xp.where(redraw, self._dark0, us)
        return new_c, new_s


class _TrivialResamplingKernel:
    """Redraw own colour proportionally to the protocol's private
    weight snapshot, gated by the resample probability."""

    coins = 2

    def __init__(self, protocol, backend: Backend = HOST):
        self._protocol = protocol
        self._backend = backend

    def refresh(self, k: int) -> None:
        if self._protocol.known_k > k:
            raise ValueError(
                f"trivial resampling draws over {self._protocol.known_k} "
                f"colours but the engine has only k={k} slots"
            )
        bk = self._backend
        xp = bk.xp
        dt = bk.dtypes
        self._dark0 = xp.asarray(DARK, dtype=dt.int64)
        self._kmax0 = xp.asarray(self._protocol.known_k - 1, dtype=dt.int64)
        # The cumulative-share snapshot is private to the protocol and
        # fixed after construction; device-place it once per refresh.
        self._cum = bk.from_host(self._protocol.cumulative_shares())

    def apply(self, uc, us, vc, vs, coins):
        xp = self._backend.xp
        dt = self._backend.dtypes
        resample = coins[..., 0] < self._protocol.resample_probability
        pick = xp.searchsorted(self._cum, coins[..., 1], side="right")
        pick = xp.astype(xp.minimum(pick, self._kmax0), dt.int64)
        change = resample & (pick != uc)
        new_c = xp.where(change, pick, uc)
        new_s = xp.where(change, self._dark0, us)
        return new_c, new_s


#: Exact protocol type -> kernel factory (called with the protocol and
#: the resolved backend).  Exact matches only: a subclass overriding
#: ``transition`` must not inherit its parent's kernel.
_KERNEL_FACTORIES = {
    Diversification: lambda p, bk: _DiversificationKernel(p, backend=bk),
    UnweightedLightening: lambda p, bk: _DiversificationKernel(
        p, unweighted=True, backend=bk
    ),
    VoterModel: lambda p, bk: _VoterKernel(p, backend=bk),
    ThreeMajority: lambda p, bk: _ThreeMajorityKernel(p, backend=bk),
    TwoChoices: lambda p, bk: _TwoChoicesKernel(p, backend=bk),
    AntiVoterModel: lambda p, bk: _AntiVoterKernel(p, backend=bk),
    SISEpidemic: lambda p, bk: _SISKernel(p, backend=bk),
    RandomRecolouring: lambda p, bk: _RandomRecolouringKernel(
        p, backend=bk
    ),
    TrivialResampling: lambda p, bk: _TrivialResamplingKernel(
        p, backend=bk
    ),
}


def kernel_for(protocol: Protocol, backend: str | Backend | None = None):
    """The vectorised kernel for ``protocol``, or None if it has none.

    ``backend`` selects the array namespace the kernel computes with
    (name, resolved :class:`~repro.engine.backend.Backend`, or None for
    the ``REPRO_BACKEND``/NumPy default).  Kernels run on *any* known
    backend, including ``array-api-strict``.
    """
    factory = _KERNEL_FACTORIES.get(type(protocol))
    if factory is None:
        return None
    return factory(protocol, resolve_backend(backend))


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
    """Structure-of-arrays agent-level engine with vectorised kernels.

    Args:
        protocol: The local update rule; must have a registered kernel
            (see :func:`has_kernel`).
        colours: Initial colours — a
            :class:`~repro.engine.population.Population` (colours and
            shades are copied out), a flat length-``n`` sequence, or an
            ``(R, n)`` matrix giving each replication its own start.
        shades: Optional initial shades, same shape as ``colours``;
            defaults to each colour's ``protocol.initial_state`` shade.
        k: Number of colour slots (default: inferred from the
            protocol's weight table, else ``max(colour) + 1``).
        topology: ``None`` / complete graph, or a CSR-adjacency
            topology (see :func:`supports_topology`).
        scheduler: Activation policy (default uniform; reset at
            construction).  Batched runs require the uniform scheduler.
        rng: Seed or generator driving all randomness (one shared
            stream for all replications, vectorised draws).  Draws are
            host-resident on every backend — the seeding contract.
        observers: Change-driven instrumentation (single-run mode
            only).  With observers attached, kernel evaluation stays
            vectorised but changes are applied one at a time so each
            callback sees the exact mid-trajectory state.
        replications: Fuse R replications into an ``(R, n)`` state
            matrix.  ``None`` (with 1-D ``colours``) selects single-run
            mode; 2-D ``colours`` implies batched mode.
        lighten_rows: Optional ``(R, k)`` per-row lightening coins for
            the Diversification kernel in batched mode, letting rows
            with *different* weight tables share one fused engine (the
            dynamics depend on the weights only through these coins).
            Incompatible with colour addition (the per-row table cannot
            grow).
        backend: Array backend for state and kernels — a name, a
            resolved :class:`~repro.engine.backend.Backend`, or None
            (``REPRO_BACKEND`` env var, default NumPy).  The step loops
            need a NumPy-compatible namespace, so ``array-api-strict``
            is rejected here (use :func:`kernel_for` to exercise the
            kernel layer on it).
    """

    def __init__(
        self,
        protocol: Protocol,
        colours,
        *,
        shades=None,
        k: int | None = None,
        topology=None,
        scheduler: Scheduler | None = None,
        rng: int | Generator | None = None,
        observers: Iterable[Observer] = (),
        replications: int | None = None,
        lighten_rows=None,
        backend: str | Backend | None = None,
    ):
        self.protocol = protocol
        self._backend = require_engine_loops(
            resolve_backend(backend), "ArraySimulation"
        )
        bk = self._backend
        xp = bk.xp
        dt = bk.dtypes
        self._kernel = kernel_for(protocol, backend=bk)
        if self._kernel is None:
            raise ValueError(
                f"protocol {protocol.name!r} has no vectorised kernel; "
                "use repro.engine.Simulation"
            )
        if isinstance(colours, Population):
            if shades is None:
                shades = xp.asarray(colours.shades_view(), dtype=dt.int64)
            if k is None:
                k = colours.k
            colours = xp.asarray(colours.colours_view(), dtype=dt.int64)
        colours = xp.asarray(colours, dtype=dt.int64)
        if colours.ndim == 1 and replications is not None:
            if replications < 1:
                raise ValueError("need at least one replication")
            colours = xp.tile(colours, (replications, 1))
        elif colours.ndim == 2:
            if replications is not None and replications != colours.shape[0]:
                raise ValueError(
                    f"colours has {colours.shape[0]} rows but "
                    f"replications={replications}"
                )
            replications = colours.shape[0]
        elif colours.ndim != 1:
            raise ValueError("colours must be 1-D (n,) or 2-D (R, n)")
        self._batched = colours.ndim == 2
        self._n = int(colours.shape[-1])
        if self._n < 2:
            raise ValueError("need at least two agents to interact")
        if colours.size and int(colours.min()) < 0:
            raise ValueError("colours must be non-negative")
        observed_k = int(colours.max()) + 1 if colours.size else 1
        if k is None:
            weights = getattr(protocol, "weights", None)
            k = weights.k if weights is not None else observed_k
        if k < observed_k:
            raise ValueError(
                f"k={k} smaller than max colour {observed_k - 1}"
            )
        self._k = int(k)
        if shades is None:
            shade_map = xp.asarray(
                [protocol.initial_state(c).shade for c in range(self._k)],
                dtype=dt.int64,
            )
            shades = shade_map[colours]
        else:
            shades = xp.asarray(shades, dtype=dt.int64)
            if self._batched and shades.ndim == 1:
                shades = xp.tile(shades, (colours.shape[0], 1))
            if shades.shape != colours.shape:
                raise ValueError("shades must match the shape of colours")
            if shades.size and int(shades.min()) < 0:
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
            self._offsets = xp.asarray(offsets, dtype=dt.int64)
            self._targets = xp.asarray(targets, dtype=dt.int64)
        else:
            raise ValueError(
                f"topology {type(topology).__name__} exposes no CSR "
                "adjacency (neighbour_arrays); use repro.engine.Simulation"
            )
        self.scheduler = scheduler or UniformScheduler()
        self.scheduler.reset()
        self.observers: list[Observer] = list(observers)
        if self._batched:
            if self.observers:
                raise ValueError(
                    "observers are only supported in single-run mode"
                )
            if not isinstance(self.scheduler, UniformScheduler):
                raise ValueError(
                    "batched replications require the uniform scheduler"
                )
        if lighten_rows is not None:
            if not self._batched:
                raise ValueError(
                    "lighten_rows requires batched (R, n) mode"
                )
            table = xp.asarray(lighten_rows, dtype=dt.float64)
            expected = (self._colours.shape[0], self._k)
            if table.shape != expected:
                raise ValueError(
                    f"lighten_rows must have shape {expected}, "
                    f"got {table.shape}"
                )
            if bool((table < 0.0).any()) or bool((table > 1.0).any()):
                raise ValueError(
                    "lighten probabilities must be in [0, 1]"
                )
            if not hasattr(self._kernel, "set_row_lighten"):
                raise ValueError(
                    "per-row lighten tables are only supported by the "
                    "Diversification kernel"
                )
            self._kernel.set_row_lighten(table)
        self.rng = make_rng(rng)
        self._time = 0
        self.changes = 0
        self._arity = int(protocol.arity)
        self._ncoins = int(self._kernel.coins)
        self._batch_block = (
            max(1, _BATCH_DRAWS // colours.shape[0])
            if self._batched
            else _BLOCK
        )
        self._buf_pos = self._batch_block  # empty; first run() refills
        self._step_index = xp.arange(_BLOCK, dtype=dt.int64)
        self._reset_window()
        # Live (k,) count tables are maintained only while observers
        # need per-change snapshots; otherwise counts are recomputed on
        # demand with one bincount.
        # repro-lint: disable=RL301 -- pure cache; restore() invalidates it, rebuilt on first query
        self._live_counts: dict | None = None
        self._population_view = (
            None if self._batched else ArrayPopulationView(self)
        )

    # ------------------------------------------------------------------
    # Introspection

    @property
    def n(self) -> int:
        """Number of agents (per replication, in batched mode)."""
        return self._n

    @property
    def k(self) -> int:
        """Number of colour slots (fixed for the engine's lifetime)."""
        return self._k

    @property
    def backend(self) -> Backend:
        """The resolved array backend this engine computes with."""
        return self._backend

    @property
    def replications(self) -> int:
        """Number of fused replications (1 in single-run mode)."""
        return self._colours.shape[0] if self._batched else 1

    @property
    def time(self) -> int:
        """Executed time-steps (shared by all replications)."""
        return self._time

    @property
    def population(self) -> ArrayPopulationView:
        """Population facade (single-run mode only)."""
        if self._population_view is None:
            raise ValueError(
                "batched runs have no single population view; use the "
                "(R, k) count matrices"
            )
        return self._population_view

    def add_observer(self, observer: Observer) -> None:
        """Attach an observer before (or between) runs."""
        if self._batched:
            raise ValueError(
                "observers are only supported in single-run mode"
            )
        self.observers.append(observer)

    def colour_counts(self):
        """``C_i`` per colour — ``(k,)``, or ``(R, k)`` batched."""
        if self._live_counts is not None:
            return self._live_counts["colour"].copy()
        return self._bincount(None)

    def dark_counts(self):
        """``A_i`` (shade > 0) — ``(k,)``, or ``(R, k)`` batched."""
        if self._live_counts is not None:
            return self._live_counts["dark"].copy()
        return self._bincount(self._shades > LIGHT)

    def light_counts(self):
        """``a_i`` (shade == 0) — ``(k,)``, or ``(R, k)`` batched."""
        if self._live_counts is not None:
            return self._live_counts["light"].copy()
        return self._bincount(self._shades == LIGHT)

    def _bincount(self, mask):
        xp = self._backend.xp
        k = self._k
        if not self._batched:
            data = self._colours if mask is None else self._colours[mask]
            return xp.bincount(data, minlength=k)
        rows = self._colours.shape[0]
        keys = self._colours + (xp.arange(rows) * k)[:, None]
        data = keys.ravel() if mask is None else keys[mask]
        return xp.bincount(data, minlength=rows * k).reshape(rows, k)

    # ------------------------------------------------------------------
    # Adversary support (between, never during, ``run`` calls)

    def add_agents(self, colour: int, count: int, dark: bool = True) -> None:
        """Inject ``count`` fresh agents of an existing colour (into
        every replication, in batched mode).

        Growth discards the draw buffer — partner draws are relative to
        the population size — which re-anchors the stream exactly like
        the scalar engine's refill-on-growth; it requires the complete
        graph because CSR adjacency cannot grow.
        """
        if not 0 <= colour < self._k:
            raise ValueError(f"unknown colour {colour}")
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        if not self._complete:
            raise ValueError(
                "population growth requires the complete graph; explicit "
                "topologies cannot gain agents"
            )
        xp = self._backend.xp
        dt = self._backend.dtypes
        shade = DARK if dark else LIGHT
        shape = (
            (self.replications, count) if self._batched else (count,)
        )
        self._colours = xp.concatenate(
            [self._colours, xp.full(shape, colour, dtype=dt.int64)],
            axis=-1,
        )
        self._shades = xp.concatenate(
            [self._shades, xp.full(shape, shade, dtype=dt.int64)],
            axis=-1,
        )
        self._n += count
        self._buf_pos = self._batch_block  # discard stale partner draws
        self._reset_window()
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
        if count < 0:  # validate before any widening takes effect
            raise ValueError("count must be non-negative")
        colour = weights.add_colour(weight)
        self._grow_colour_slots(weights.k)
        self._kernel.refresh(self._k)
        self.add_agents(colour, count, dark=dark)
        return colour

    def recolour(self, source: int, target: int) -> None:
        """Repaint every agent of ``source`` colour as ``target``
        (shades kept; batch-wide in batched mode).  Indices are stable,
        so the draw buffer stays valid."""
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

    def _grow_colour_slots(self, new_k: int) -> None:
        if new_k < self._k:
            raise ValueError("colour slots can only grow")
        xp = self._backend.xp
        extra = new_k - self._k
        self._k = int(new_k)
        if extra and self._live_counts is not None:
            self._live_counts = {
                key: xp.concatenate(
                    [table, xp.zeros(extra, dtype=table.dtype)]
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
        if self._batched:
            self._run_batched(1)
        else:
            self._run_single(1)
        return self.changes > before

    def run(self, steps: int) -> "ArraySimulation":
        """Execute ``steps`` time-steps; returns self for chaining."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self._prepare()
        for observer in self.observers:
            observer.on_start(self)
        if self._batched:
            self._run_batched(steps)
        else:
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
    # Single-run mode: windows cut on effective writes

    def _reset_window(self) -> None:
        """Size the window scratch for the current ``n``: every agent's
        first changing step in the window, ``_BLOCK`` (none) between
        windows, and the next window's length."""
        bk = self._backend
        # repro-lint: disable=RL301 -- all _BLOCK between windows; restore() resets it
        self._first_change = bk.xp.full(
            self._n, _BLOCK, dtype=bk.dtypes.int64
        )
        # repro-lint: disable=RL301 -- sizes windows, never what a step reads
        self._window = _FIRST_WINDOW

    def _run_single(self, steps: int) -> None:
        remaining = steps
        while remaining > 0:
            if self._buf_pos >= _BLOCK:
                self._refill_single()
            take = min(remaining, _BLOCK - self._buf_pos)
            self._process_slice(self._buf_pos, self._buf_pos + take)
            self._buf_pos += take
            remaining -= take

    def _refill_single(self) -> None:
        """Draw a full block of steps."""
        bk = self._backend
        xp = bk.xp
        dt = bk.dtypes
        n = self._n
        rng = self.rng
        initiators = xp.asarray(
            self.scheduler.draw_block(n, _BLOCK, rng), dtype=dt.int64
        )
        partner_uniforms = bk.uniform_block(rng, (_BLOCK, self._arity))
        if self._ncoins:
            self._buf_coins = bk.uniform_block(rng, (_BLOCK, self._ncoins))
        else:
            self._buf_coins = xp.zeros((_BLOCK, 0), dtype=dt.float64)
        if self._complete:
            draw = xp.astype(partner_uniforms * (n - 1), dt.int64)
            partners = draw + (draw >= initiators[:, None])
        else:
            degrees = (
                self._offsets[initiators + 1] - self._offsets[initiators]
            )
            local = xp.astype(partner_uniforms * degrees[:, None], dt.int64)
            partners = self._targets[
                self._offsets[initiators][:, None] + local
            ]
        self._buf_init = initiators
        self._buf_partners = partners
        self._buf_pos = 0

    def _process_slice(self, lo: int, hi: int) -> None:
        """Apply buffered steps ``[lo, hi)`` in windows cut on effective
        writes.

        The kernel runs over a window against the window-start state.
        ``xp.minimum.at`` records each changed agent's first changing
        step (a scatter-min, well defined for repeated agents), and the
        window commits up to the first step that reads an agent with an
        earlier change, which opens the next window; only the committed
        changes are scattered, each agent at most once.  A whole-window
        commit doubles the window, a cut one sets it to twice the
        committed length.
        """
        xp = self._backend.xp
        initiators = self._buf_init
        partners = self._buf_partners
        coins = self._buf_coins
        colours = self._colours
        shades = self._shades
        kernel = self._kernel
        first = self._first_change
        window = self._window
        start = lo
        while start < hi:
            end = min(hi, start + window)
            length = end - start
            u = initiators[start:end]
            v = partners[start:end]
            uc = colours[u]
            us = shades[u]
            new_c, new_s = kernel.apply(
                uc, us, colours[v], shades[v], coins[start:end]
            )
            changed = ((new_c != uc) | (new_s != us)).nonzero()[0]
            writers = u[changed]
            committed = length
            # A change at the window's last step is read by no later one.
            if changed.size and changed[0] < length - 1:
                xp.minimum.at(first, writers, changed)
                steps = self._step_index[:length]
                stale = (
                    (first[u] < steps)
                    | (first[v] < steps[:, None]).any(axis=1)
                ).nonzero()[0]
                first[writers] = _BLOCK
                if stale.size:
                    committed = int(stale[0])
                    kept = xp.searchsorted(changed, committed)
                    changed = changed[:kept]
                    writers = writers[:kept]
            if self.observers:
                self._apply_observed(
                    committed, u, uc, us, new_c, new_s, changed
                )
            else:
                colours[writers] = new_c[changed]
                shades[writers] = new_s[changed]
                self.changes += int(changed.size)
                self._time += committed
            if committed < length:
                window = min(_BLOCK, max(_MIN_WINDOW, 2 * committed))
            elif length == window:
                window = min(_BLOCK, 2 * window)
            start += committed
        self._window = window

    def _apply_observed(
        self, length, u, uc, us, new_c, new_s, changed
    ) -> None:
        """Apply a committed window change-by-change (``changed`` holds
        the window positions of its changes, ascending) so observers see
        exact mid-trajectory state: the vectorised kernel already fixed
        the outcomes, and no committed step read an earlier change."""
        base = self._time
        counts = self._live_counts
        for j in changed:
            j = int(j)
            agent = int(u[j])
            old = AgentState(int(uc[j]), int(us[j]))
            new = AgentState(int(new_c[j]), int(new_s[j]))
            self._time = base + j + 1
            self._colours[agent] = new.colour
            self._shades[agent] = new.shade
            counts["colour"][old.colour] -= 1
            counts["colour"][new.colour] += 1
            counts["dark" if old.shade > LIGHT else "light"][
                old.colour
            ] -= 1
            counts["dark" if new.shade > LIGHT else "light"][
                new.colour
            ] += 1
            self.changes += 1
            for observer in self.observers:
                observer.on_change(self, agent, old, new)
        self._time = base + length

    # ------------------------------------------------------------------
    # Batched mode: one step for all replications per iteration

    def _run_batched(self, steps: int) -> None:
        xp = self._backend.xp
        remaining = steps
        rows = xp.arange(self._colours.shape[0])
        while remaining > 0:
            if self._buf_pos >= self._batch_block:
                self._refill_batched()
            take = min(remaining, self._batch_block - self._buf_pos)
            start = self._buf_pos
            for t in range(start, start + take):
                self._step_batched(rows, t)
            self._buf_pos += take
            remaining -= take

    def _refill_batched(self) -> None:
        bk = self._backend
        xp = bk.xp
        dt = bk.dtypes
        n = self._n
        rng = self.rng
        block = self._batch_block
        r = self._colours.shape[0]
        initiators = xp.asarray(
            self.scheduler.draw_block(n, block * r, rng), dtype=dt.int64
        ).reshape(block, r)
        partner_uniforms = bk.uniform_block(rng, (block, r, self._arity))
        if self._ncoins:
            self._buf_coins = bk.uniform_block(
                rng, (block, r, self._ncoins)
            )
        else:
            self._buf_coins = xp.zeros((block, r, 0), dtype=dt.float64)
        if self._complete:
            draw = xp.astype(partner_uniforms * (n - 1), dt.int64)
            partners = draw + (draw >= initiators[..., None])
        else:
            degrees = (
                self._offsets[initiators + 1] - self._offsets[initiators]
            )
            local = xp.astype(
                partner_uniforms * degrees[..., None], dt.int64
            )
            partners = self._targets[
                self._offsets[initiators][..., None] + local
            ]
        self._buf_init = initiators
        self._buf_partners = partners
        self._buf_pos = 0

    def _step_batched(self, rows, t: int) -> None:
        xp = self._backend.xp
        colours = self._colours
        shades = self._shades
        u = self._buf_init[t]
        v = self._buf_partners[t]
        uc = colours[rows, u]
        us = shades[rows, u]
        new_c, new_s = self._kernel.apply(
            uc,
            us,
            colours[rows[:, None], v],
            shades[rows[:, None], v],
            self._buf_coins[t],
        )
        changed = (new_c != uc) | (new_s != us)
        target_rows = rows[changed]
        target_cols = u[changed]
        colours[target_rows, target_cols] = new_c[changed]
        shades[target_rows, target_cols] = new_s[changed]
        self.changes += int(xp.count_nonzero(changed))
        self._time += 1

    # ------------------------------------------------------------------
    # Checkpointing

    def snapshot(self) -> dict:
        """``repro-ckpt/v1`` payload of all run-relevant state.

        Captures the state arrays, clocks, the partially consumed draw
        buffer (initiators, partners and coins), scheduler progress,
        the RNG bit-generator state, and the protocol's weight table
        when it has one.  An exhausted buffer is dropped (the next run
        refills at the same stream position either way).  All arrays
        cross ``Backend.to_numpy`` so the payload restores on any
        backend.
        """
        bk = self._backend
        buffered = (
            hasattr(self, "_buf_init")
            and self._buf_pos < self._batch_block
        )
        weights = getattr(self.protocol, "weights", None)
        fields = {
            "colours": bk.to_numpy(self._colours, copy=True),
            "shades": bk.to_numpy(self._shades, copy=True),
            "k": int(self._k),
            "n": int(self._n),
            "time": int(self._time),
            "changes": int(self.changes),
            "buffered": int(buffered),
            "buf_pos": int(self._buf_pos),
            "scheduler": self.scheduler.state_dict(),
            "rng": ckpt.rng_state(self.rng),
        }
        if buffered:
            fields["buf_init"] = bk.to_numpy(self._buf_init, copy=True)
            fields["buf_partners"] = bk.to_numpy(
                self._buf_partners, copy=True
            )
            fields["buf_coins"] = bk.to_numpy(self._buf_coins, copy=True)
        if isinstance(weights, WeightTable):
            fields["weights"] = weights.as_array()
        return ckpt.payload("ArraySimulation", **fields)

    def restore(self, data: dict) -> "ArraySimulation":
        """Restore a :meth:`snapshot` payload in place.

        Raises:
            ValueError: if ``k`` is below the engine's colour slots or
                disagrees with the payload's weights, the states do not
                fit the engine's mode, a colour lies outside ``[0, k)``,
                a shade is negative, ``n`` is not the number of stored
                agents, the clock or change count is negative, the
                buffer cursor lies outside ``[0, block]``, or a buffered
                block is mis-shaped or names an agent outside
                ``[0, n)``; nothing is restored then.
        """
        ckpt.check(data, "ArraySimulation")
        bk = self._backend
        k = ckpt.as_int(data["k"])
        if k < self._k:
            raise ValueError(
                f"checkpoint k={k} is below the engine's {self._k} colour "
                "slots; colour slots can only grow"
            )
        weights = getattr(self.protocol, "weights", None)
        table = None
        if isinstance(weights, WeightTable) and "weights" in data:
            table = ckpt.as_array(data["weights"], FLOAT64)
            if table.shape != (k,):
                raise ValueError(
                    f"checkpoint weights have shape {table.shape} but k={k}"
                )
            ckpt.restore_weight_table(weights.copy(), table)  # check only
        colours = ckpt.as_array(data["colours"], INT64)
        shades = ckpt.as_array(data["shades"], INT64)
        if colours.ndim != self._colours.ndim or colours.shape != shades.shape:
            raise ValueError(
                f"state shape {colours.shape} does not match the "
                f"engine's mode (expected {self._colours.ndim}-D)"
            )
        if self._batched and colours.shape[0] != self.replications:
            raise ValueError(
                f"checkpoint has {colours.shape[0]} replications but "
                f"the engine has {self.replications}"
            )
        n = ckpt.as_int(data["n"])
        if n != colours.shape[-1]:
            raise ValueError(
                f"checkpoint n={n} does not match its "
                f"{colours.shape[-1]} stored agents"
            )
        if n < 2:
            raise ValueError("checkpoint holds fewer than two agents")
        if not self._complete and n != self._n:
            raise ValueError(
                "checkpoint population size does not match the topology"
            )
        if int(colours.min()) < 0 or int(colours.max()) >= k:
            raise ValueError(f"checkpoint colours must lie in [0, {k})")
        if int(shades.min()) < 0:
            raise ValueError("checkpoint shades must be non-negative")
        time = ckpt.as_int(data["time"])
        changes = ckpt.as_int(data["changes"])
        for name, value in (("time", time), ("changes", changes)):
            if value < 0:
                raise ValueError(f"checkpoint {name} {value} is negative")
        block = self._batch_block
        buf_pos = ckpt.as_int(data["buf_pos"])
        if not 0 <= buf_pos <= block:
            raise ValueError(
                f"checkpoint buf_pos {buf_pos} is outside [0, {block}]"
            )
        buffers = {}
        if ckpt.as_int(data["buffered"]):
            lead = (block, self.replications) if self._batched else (block,)
            expected = {
                "buf_init": (INT64, lead),
                "buf_partners": (INT64, (*lead, self._arity)),
                "buf_coins": (FLOAT64, (*lead, self._ncoins)),
            }
            for name, (dtype, shape) in expected.items():
                buffers[name] = ckpt.as_array(data[name], dtype)
                if buffers[name].shape != shape:
                    raise ValueError(
                        f"checkpoint {name} has shape "
                        f"{buffers[name].shape}, expected {shape}"
                    )
            for name in ("buf_init", "buf_partners"):
                agents = buffers[name]
                if int(agents.min()) < 0 or int(agents.max()) >= n:
                    raise ValueError(
                        f"checkpoint {name} names agents outside [0, {n})"
                    )
        rng = ckpt.checked_rng_state(self.rng, data["rng"])
        if table is not None:
            ckpt.restore_weight_table(weights, table)
        self._grow_colour_slots(k)
        self._colours = bk.from_host(colours)
        self._shades = bk.from_host(shades)
        self._n = n
        self._time = time
        self.changes = changes
        if buffers:
            self._buf_pos = buf_pos
            self._buf_init = bk.from_host(buffers["buf_init"])
            self._buf_partners = bk.from_host(buffers["buf_partners"])
            self._buf_coins = bk.from_host(buffers["buf_coins"])
        else:
            self._buf_pos = block
        self._reset_window()
        # Live counts are rebuilt lazily by _prepare() when observers
        # need them.
        self._live_counts = None
        self.scheduler.load_state(data["scheduler"])
        ckpt.set_rng_state(self.rng, rng)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = f"R={self.replications}, " if self._batched else ""
        return (
            f"ArraySimulation(protocol={self.protocol.name!r}, {mode}"
            f"n={self.n}, k={self.k}, t={self.time})"
        )

