"""Batched aggregate simulator: R independent replications at once.

Every experiment in the E1-E12 suite repeats the same chain tens of
times; running those replications one-by-one through the scalar
:class:`~repro.engine.aggregate.AggregateSimulation` pays the Python
interpreter overhead R times over.  This engine instead advances **R
independent replications simultaneously** as a single ``(R, 2k)`` count
matrix (dark counts ``A`` in the left block, light counts ``a`` in the
right block), drawing adopt/lighten events for all replications per
vectorised step.

Both of the scalar engine's modes are supported and are exact in
distribution (verified statistically by
``tests/integration/test_batched_equivalence.py``):

* **per-step** (:meth:`BatchedAggregateSimulation.step`) — one faithful
  time-step for every replication: the scheduled agent's class and its
  sampled partner's class are drawn by vectorised categorical sampling
  over the ``2k`` (light, dark) classes, with the scheduled agent
  excluded from the partner draw, and the adopt/lighten rules applied
  through boolean masks.
* **event-driven** (:meth:`BatchedAggregateSimulation.run`) — each
  replication draws its *own* geometric number of no-op steps until its
  next active event (per-replication jump lengths) and jumps its clock
  forward; replications that land beyond the horizon, or whose active
  rate has vanished, coast to the horizon and are masked out of the
  update.  One loop iteration therefore costs O(R k) NumPy work but
  advances every live replication by a full event, so the Python-level
  iteration count matches a *single* scalar run instead of R of them.

Replication clocks decouple mid-``run`` (each jumps at its own pace) and
re-synchronise at the horizon, so :meth:`run` always leaves all
replications at the same time-step.

Split invariance.  Every replication owns an independent PCG64
substream (:class:`~repro.engine.streams.RowStreams`), and an arrival
drawn past the horizon is carried in a per-row ``_pending`` slot
instead of being discarded, so ``run(a); run(b)`` is bit-identical to
``run(a + b)`` for any split — the foundation of the
``snapshot()``/``restore()`` checkpoint contract.  Interventions change
the event rates and therefore drop all pending arrivals.

The ``lighten_probabilities`` override mirrors the scalar engine and
gives the A2 ablation (:class:`~repro.core.ablations.UnweightedLightening`)
the same fast path.  Adversarial interventions are supported batch-wide
between ``run`` calls: :meth:`~BatchedAggregateSimulation.add_agents`,
:meth:`~BatchedAggregateSimulation.add_colour` (which widens the
``(R, 2k)`` count matrix and the shared weight table) and
:meth:`~BatchedAggregateSimulation.recolour` apply the *same*
deterministic intervention to every replication — exactly what the
scalar per-replication loop does with a shared
:class:`~repro.adversary.schedule.InterventionSchedule` — so E6/E7-style
robustness sweeps fuse all R replications into one engine (see
:func:`repro.experiments.replication.replicate_colour_counts`).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.weights import WeightTable
from . import checkpoint as ckpt
from .aggregate import resolve_lighten_probabilities
from .backend import (
    FLOAT64,
    HOST,
    INT64,
    Backend,
    Generator,
    require_engine_loops,
    resolve_backend,
)
from .rng import make_rng
from .streams import RowStreams, geometric_from_uniform


class BatchedAggregateSimulation:
    """Count-based simulator of R replications of Diversification.

    Args:
        weights: Colour weight table shared by all replications.
        dark_counts: Initial ``A_i`` per colour — either shape ``(k,)``
            (broadcast to every replication) or ``(R, k)``.
        light_counts: Initial ``a_i`` per colour, same accepted shapes
            (defaults to all zero — the paper's all-dark start).
        replications: Number of independent replications R.  Required
            when the count vectors are one-dimensional; otherwise it
            must match their leading dimension.
        rng: Seed or generator.  Each replication draws from its own
            PCG64 substream seeded off this base generator
            (:class:`~repro.engine.streams.RowStreams`), which is what
            makes runs split-invariant and checkpointable.
        lighten_probabilities: Optional per-colour override of the
            ``1/w_i`` lightening coin.
    """

    def __init__(
        self,
        weights: WeightTable,
        dark_counts,
        light_counts=None,
        *,
        replications: int | None = None,
        rng: int | Generator | None = None,
        lighten_probabilities: Sequence[float] | None = None,
        backend: str | Backend | None = None,
    ):
        self._backend = require_engine_loops(
            resolve_backend(backend), "BatchedAggregateSimulation"
        )
        xp = self._backend.xp
        self.weights = weights
        k = weights.k
        dark = xp.asarray(dark_counts, dtype=INT64)
        if light_counts is None:
            light = xp.zeros(dark.shape, dtype=INT64)
        else:
            light = xp.asarray(light_counts, dtype=INT64)
        dark = self._as_matrix(dark, replications, k, "dark_counts", xp)
        replications = dark.shape[0]
        light = self._as_matrix(light, replications, k, "light_counts", xp)
        if light.shape[0] != replications:
            raise ValueError(
                "dark_counts and light_counts disagree on the number of "
                f"replications ({replications} vs {light.shape[0]})"
            )
        if (dark < 0).any() or (light < 0).any():
            raise ValueError("counts must be non-negative")
        totals = dark.sum(axis=1) + light.sum(axis=1)
        if not (totals == totals[0]).all():
            raise ValueError(
                "all replications must share the same population size"
            )
        self._n = int(totals[0])
        if self._n < 2:
            raise ValueError("need at least two agents")
        # One contiguous (R, 2k) state matrix; dark and light are views.
        # repro-lint: disable=RL301 -- serialised via its _dark/_light views; restore() rebuilds it
        self._state = xp.concatenate([dark, light], axis=1)
        self._dark = self._state[:, :k]
        self._light = self._state[:, k:]
        self._lighten = xp.asarray(
            resolve_lighten_probabilities(weights, lighten_probabilities),
            dtype=FLOAT64,
        )
        self.rng = make_rng(rng)
        self._times = xp.zeros(replications, dtype=INT64)
        # Every replication draws from its own substream (seeded off the
        # base generator), so a row's consumed uniforms depend only on
        # its own event history — the basis of the split-invariance
        # contract (``run(a); run(b)`` bit-identical to ``run(a + b)``).
        self._streams = RowStreams.from_generator(self.rng, replications)
        # Next active-event arrival per row, carried across run calls
        # when it overshoots the horizon (-1 = none drawn yet).
        self._pending = xp.full(replications, -1, dtype=INT64)
        # repro-lint: disable=RL3 -- observer callbacks, re-registered by the owner after restore()
        self._taps: list = []

    @staticmethod
    def _as_matrix(counts, replications: int | None, k: int, name: str, xp):
        if counts.ndim == 1:
            if counts.shape[0] != k:
                raise ValueError(
                    f"{name} must match the weight table size (k={k})"
                )
            if replications is None:
                raise ValueError(
                    f"replications is required when {name} is 1-D"
                )
            if replications < 1:
                raise ValueError("need at least one replication")
            return xp.tile(counts, (replications, 1))
        if counts.ndim != 2 or counts.shape[1] != k:
            raise ValueError(
                f"{name} must have shape (k,) or (R, k) with k={k}"
            )
        if replications is not None and counts.shape[0] != replications:
            raise ValueError(
                f"{name} has {counts.shape[0]} rows but "
                f"replications={replications}"
            )
        return counts.copy()

    # ------------------------------------------------------------------
    # Introspection

    @property
    def n(self) -> int:
        """Number of agents (identical across replications)."""
        return self._n

    @property
    def k(self) -> int:
        """Number of colours."""
        return self.weights.k

    @property
    def replications(self) -> int:
        """Number of replications R."""
        return self._state.shape[0]

    @property
    def backend(self) -> Backend:
        """The array backend this engine computes on."""
        return self._backend

    @property
    def time(self) -> int:
        """Common time-step of all replications.

        Clocks decouple inside :meth:`run` but re-synchronise at every
        horizon; between calls they always agree.
        """
        return int(self._times.max(initial=0))

    def times(self):
        """Per-replication clocks, shape ``(R,)``."""
        return self._times.copy()

    def dark_counts(self):
        """``A_i`` per replication and colour, shape ``(R, k)``."""
        return self._dark.copy()

    def light_counts(self):
        """``a_i`` per replication and colour, shape ``(R, k)``."""
        return self._light.copy()

    def colour_counts(self):
        """``C_i = A_i + a_i`` per replication and colour, ``(R, k)``."""
        return self._dark + self._light

    # ------------------------------------------------------------------
    # Per-step mode (used by the equivalence tests)

    def step(self):
        """One faithful time-step in every replication.

        Each row consumes three uniforms from its own substream, so
        per-step trajectories are bit-identical for any chunking of
        ``run_per_step``/``step`` calls and for any interleaving with
        event-driven ``run`` segments (regression-tested in
        ``tests/property/test_batched_invariants.py``).

        Returns a boolean ``(R,)`` mask of the replications whose counts
        changed.
        """
        self._pending[:] = -1  # per-step mode re-examines every step
        self._times += 1
        bk = self._backend
        rows = bk.xp.arange(self._state.shape[0])
        uniforms = bk.from_host(
            self._streams.take(bk.to_numpy(rows), 3)
        ).T
        return apply_step_rows(
            self._state,
            self._dark,
            self._light,
            self._lighten,
            rows,
            uniforms,
            xp=bk.xp,
        )

    def run_per_step(self, steps: int) -> "BatchedAggregateSimulation":
        """Advance ``steps`` time-steps in faithful per-step mode."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        for _ in range(steps):
            self.step()
        return self

    # ------------------------------------------------------------------
    # Event-driven mode

    def run(self, steps: int) -> "BatchedAggregateSimulation":
        """Advance every replication exactly ``steps`` time-steps using
        per-replication event jumps.

        The inner loop applies at most one active event per replication
        per iteration, so its Python-level iteration count matches one
        scalar run.  The event *type* and the first colour are fused
        into a single categorical draw over the ``2k`` masses
        ``[a_i * total_dark | A_i (A_i - 1) lighten_i]`` — class
        ``c < k`` is an adopt event of a light agent of colour ``c``,
        class ``c >= k`` a lighten event of colour ``c - k``.  The update
        is then branch-free: every event moves one agent between the
        light and dark blocks with a ±1 delta pair (see
        :func:`advance_event_driven`).
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        denom = float(self._n) * (self._n - 1)
        horizon = self._times + steps
        advance_event_driven(
            self._times,
            horizon,
            self._dark,
            self._light,
            self._lighten,
            self._backend.xp.full(self.replications, denom, dtype=FLOAT64),
            self._streams,
            self._pending,
            self.weights.k,
            tap=self._tap_update if self._taps else None,
            backend=self._backend,
        )
        self._sync_taps()
        return self

    # ------------------------------------------------------------------
    # Adversary support (batch-wide, between ``run`` calls)

    def add_agents(self, colour: int, count: int, dark: bool = True) -> None:
        """Inject ``count`` fresh agents of an existing colour into
        *every* replication (the same deterministic shock the scalar
        loop applies per replication)."""
        if not 0 <= colour < self.k:
            raise ValueError(f"unknown colour {colour}")
        if count < 0:
            raise ValueError("count must be non-negative")
        if dark:
            self._dark[:, colour] += count
        else:
            self._light[:, colour] += count
        self._n += count
        self._pending[:] = -1  # rates changed: redraw the next arrivals

    def add_colour(self, weight: float, count: int, dark: bool = True) -> int:
        """Introduce a brand-new colour with ``count`` supporters in
        every replication, widening the count matrix and the shared
        weight table.

        Sustainability requires new colours to arrive dark (Sec 1.2).
        """
        if count < 0:  # validate before any widening takes effect
            raise ValueError("count must be non-negative")
        colour = self.weights.add_colour(weight)
        k = self.weights.k
        xp = self._backend.xp
        state = xp.zeros((self._state.shape[0], 2 * k), dtype=INT64)
        state[:, : k - 1] = self._dark
        state[:, k : 2 * k - 1] = self._light
        self._state = state
        self._dark = state[:, :k]
        self._light = state[:, k:]
        self._lighten = xp.concatenate(
            [self._lighten, xp.asarray([1.0 / weight], dtype=FLOAT64)]
        )
        self.add_agents(colour, count, dark=dark)
        return colour

    def recolour(self, source: int, target: int) -> None:
        """Repaint all agents of ``source`` as ``target`` (shades kept)
        in every replication."""
        if not (0 <= source < self.k and 0 <= target < self.k):
            raise ValueError("source and target must be existing colours")
        if source == target:
            return
        self._dark[:, target] += self._dark[:, source]
        self._light[:, target] += self._light[:, source]
        self._dark[:, source] = 0
        self._light[:, source] = 0
        self._pending[:] = -1  # rates changed: redraw the next arrivals

    # ------------------------------------------------------------------
    # Streaming analysis taps

    def attach_stream(self, accumulator, *, reset: bool = True) -> None:
        """Feed a streaming accumulator from inside the event loop.

        The accumulator is reset to the current ``(R, k)`` configuration
        and then updated after every applied event (per affected rows)
        and synchronised at each horizon, so it integrates all R
        trajectories exactly while the engine holds no history.  Pass
        ``reset=False`` to re-attach an accumulator restored via
        ``load_state`` alongside an engine ``restore()`` — continuing
        the original accumulation bit-identically.
        """
        if reset:
            accumulator.reset(
                self._times.copy(),
                self._dark.astype(FLOAT64),
                self._light.astype(FLOAT64),
            )
        self._taps.append(accumulator)

    def detach_streams(self) -> None:
        """Drop all attached streaming accumulators."""
        self._taps.clear()

    def _tap_update(self, rows) -> None:
        times = self._times[rows]
        dark = self._dark[rows].astype(FLOAT64)
        light = self._light[rows].astype(FLOAT64)
        for tap in self._taps:
            tap.update(rows, times, dark, light)

    def _sync_taps(self) -> None:
        if not self._taps:
            return
        times = self._times.copy()
        for tap in self._taps:
            tap.sync(times)

    # ------------------------------------------------------------------
    # Checkpointing

    def snapshot(self) -> dict:
        """``repro-ckpt/v1`` payload of all run-relevant state."""
        bk = self._backend
        return ckpt.payload(
            "BatchedAggregateSimulation",
            weights=self.weights.as_array(),
            dark=bk.to_numpy(self._dark, copy=True),
            light=bk.to_numpy(self._light, copy=True),
            lighten=bk.to_numpy(self._lighten, copy=True),
            times=bk.to_numpy(self._times, copy=True),
            pending=bk.to_numpy(self._pending, copy=True),
            n=int(self._n),
            streams=self._streams.snapshot(),
            rng=ckpt.rng_state(self.rng),
        )

    def restore(self, data: dict) -> "BatchedAggregateSimulation":
        """Restore a :meth:`snapshot` payload in place.

        Handles checkpoints taken after ``add_colour`` interventions:
        the count matrix is re-widened to the snapshot's colour count.
        """
        ckpt.check(data, "BatchedAggregateSimulation")
        ckpt.restore_weight_table(self.weights, data["weights"])
        bk = self._backend
        k = self.weights.k
        dark = ckpt.as_array(data["dark"], INT64)
        light = ckpt.as_array(data["light"], INT64)
        rows = self.replications
        if dark.shape != (rows, k) or dark.shape != light.shape:
            raise ValueError(
                f"count shape {dark.shape} does not match ({rows}, {k})"
            )
        times = ckpt.as_row_vector(data["times"], INT64, rows, "times")
        pending = ckpt.as_row_vector(data["pending"], INT64, rows, "pending")
        self._streams.restore(data["streams"])
        self._state = bk.from_host(HOST.xp.concatenate([dark, light], axis=1))
        self._dark = self._state[:, :k]
        self._light = self._state[:, k:]
        self._lighten = bk.from_host(ckpt.as_array(data["lighten"], FLOAT64))
        self._times = bk.from_host(times)
        self._pending = bk.from_host(pending)
        self._n = ckpt.as_int(data["n"])
        ckpt.set_rng_state(self.rng, data["rng"])
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedAggregateSimulation(R={self.replications}, "
            f"n={self.n}, k={self.k}, t={self.time})"
        )


def apply_step_rows(
    state,
    dark,
    light,
    lighten,
    rows,
    uniforms,
    xp=None,
):
    """Shared per-step transition of the batched engines: one faithful
    time-step for the ``rows`` of a ``(B, 2k)`` state matrix, mutating
    ``dark``/``light`` in place (``state`` is their concatenation).

    The scheduled agent's class and its sampled partner's class are
    drawn by vectorised categorical sampling over the ``2k`` (dark,
    light) classes — class ``c < k`` is dark colour ``c``, class
    ``c >= k`` light colour ``c - k`` — with the scheduled agent
    excluded from the partner draw, then the adopt/lighten rules apply
    through boolean masks.  ``uniforms`` holds the step's three
    ``(len(rows),)`` draws; ``lighten`` is a ``(k,)`` vector
    (homogeneous rows) or a ``(B, k)`` matrix (per-row tables).
    Returns the per-``rows`` changed mask.  ``xp`` selects the
    (NumPy-compatible) namespace; the default is the host.
    """
    if xp is None:
        xp = HOST.xp
    k = state.shape[1] // 2
    # Fancy indexing yields a fresh copy, safe to mutate below.
    masses = state[rows]
    sub = xp.arange(rows.size)
    u_cls = _pick_rows(masses, uniforms[0], xp)
    # Exclude u from its own class before the partner draw.
    masses[sub, u_cls] -= 1
    v_cls = _pick_rows(masses, uniforms[1], xp)
    coin = uniforms[2]
    u_dark = u_cls < k
    v_dark = v_cls < k
    u_col = xp.where(u_dark, u_cls, u_cls - k)
    v_col = xp.where(v_dark, v_cls, v_cls - k)
    adopt = ~u_dark & v_dark
    threshold = (
        lighten[rows, u_col] if lighten.ndim == 2 else lighten[u_col]
    )
    lightened = (
        u_dark & v_dark & (u_col == v_col) & (coin < threshold)
    )
    a_sel = xp.flatnonzero(adopt)
    light[rows[a_sel], u_col[a_sel]] -= 1
    dark[rows[a_sel], v_col[a_sel]] += 1
    l_sel = xp.flatnonzero(lightened)
    dark[rows[l_sel], u_col[l_sel]] -= 1
    light[rows[l_sel], u_col[l_sel]] += 1
    return adopt | lightened


def advance_event_driven(
    times,
    horizon,
    dark,
    light,
    lighten,
    denom,
    streams: RowStreams,
    pending,
    k: int,
    tap=None,
    backend: Backend = HOST,
) -> None:
    """Shared event-driven core of the batched engines: advance each
    row to its own ``horizon[r]`` with per-row geometric event jumps,
    mutating ``times``, ``dark``, ``light`` and ``pending`` in place.

    ``lighten`` is either a ``(k,)`` vector (homogeneous rows — the
    :class:`BatchedAggregateSimulation` case) or a ``(B, k)`` matrix
    (per-row tables — the heterogeneous engine); ``denom`` holds each
    row's ``n_r (n_r - 1)`` jump denominator.  Rows retire
    independently: absorbed rows (no active events left) and rows whose
    next jump overshoots coast to their horizon, the rest keep
    advancing, and the loop ends when every row has arrived.

    Split invariance: every row draws from its *own* substream in
    ``streams`` — one uniform for each arrival gap, two more only when
    the arrival is accepted — and an arrival past the horizon is stored
    in ``pending[r]`` (absolute step; -1 = none) instead of being
    discarded, to be consumed by the next call.  A row's consumed draw
    sequence is therefore a pure function of its own event history, so
    splitting a horizon (including *per-row* splits through the
    heterogeneous engine's ``run_to``) reproduces the uninterrupted
    trajectory bit-for-bit.  Arrivals are only ever carried *into* a
    call, so only its first iteration looks for them; after that every
    active row draws a fresh gap.

    Working layout.  One iteration advances every active row by one
    event, and what it costs is the number of NumPy calls it makes on
    arrays of at most B columns, not their arithmetic.  To keep that
    number small the loop runs on :class:`_ActiveRows`, a colour-major
    working copy of the active rows: column ``c`` is engine row
    ``act[c]``, a contiguous ``(2k, ·)`` int64 block stacks the dark
    counts over the light counts, and a preallocated ``(3k, ·)``
    float64 buffer receives the masses through ``out=`` ufunc calls
    and is cumulated in place along axis 0.  Each class pick is then a
    column sum of one comparison, and each event's ±1 pair is two
    one-hot updates of the count block.  Every array spans exactly the
    active rows: when rows retire, the copy writes them back to the
    engine arrays and compacts once, instead of gathering by ``act``
    on every iteration.  The rows still active are written back in a
    ``finally`` (so an exception leaves the counts consistent with
    ``times`` and ``pending``) and before every ``tap`` call, since
    taps read the engine arrays.

    Bit identity.  Trajectories are fixed functions of the seed
    (``tests/unit/test_event_loop_digest.py`` pins them), which
    constrains three choices:

    * the gap and the event uniforms are two ``take`` calls, in that
      order: one pooled take would refill a row's pool earlier and,
      once an intervention clears ``pending``, discard its partial
      pool at a different point;
    * the masses are rebuilt from the counts on every iteration —
      ``a_i * total_dark`` and ``float(A_i (A_i - 1)) * lighten_i``,
      whose integer products stay below 2**53, so rebuilding gives the
      same floats as updating only the term an event changed — and
      cumulated by a sequential sum in class order; keeping the
      cumulative sum up to date incrementally would round differently;
    * a class pick counts the cumulative masses at or below its
      threshold, which is the index of the first strict exceedance
      because cumulative masses never decrease.

    ``tap(rows)`` — if given — is called after each batch of applied
    events with the absolute indices of the rows that just changed
    (their clocks already advanced), letting engines feed streaming
    accumulators from inside the loop.

    ``backend`` supplies the array namespace the loop computes in and
    the host converters for the stream boundary (``streams`` draws on
    the CPU on every backend).
    """
    xp = backend.xp
    act = xp.flatnonzero(times < horizon)
    if act.size == 0:
        return
    rows = _ActiveRows.gather(
        act, times, horizon, dark, light, lighten, denom, k, xp
    )
    # Count-block row of every class: dark colours, then light colours.
    classes = xp.arange(2 * k)[:, None]
    carried = True
    try:
        while rows.size:
            r = rows
            # Cumulative masses over 3k classes: the first 2k (adopt per
            # light colour, scaled by the dark total, then the lighten
            # terms) form the active-event distribution — their running
            # total at class 2k-1 *is* the event rate — and the last k
            # hold the dark counts for the partner pick.
            xp.multiply(r.light, r.total_dark, out=r.adopt)
            xp.multiply(r.dark, r.dark - 1, out=r.terms)
            xp.multiply(r.terms, r.lighten, out=r.terms)
            r.partner[...] = r.dark
            r.mass.cumsum(axis=0, out=r.mass)
            # Rows with no active events left (single colour, all dark,
            # w = 1 edge cases) coast to the horizon.  An absorbed row
            # can hold no pending arrival: rates only change through
            # events and interventions, and interventions clear
            # ``pending``.
            if xp.count_nonzero(r.rate) < r.size:
                rows = r = r.retire(r.rate > 0.0, times, dark, light)
                if not r.size:
                    break
            # Rows without a carried-over arrival draw a fresh gap from
            # their own substream; held rows reuse their stored arrival
            # without consuming any draws.
            if carried:
                carried = False
                arrival = pending[r.act]
                fresh = arrival < 0
                if xp.count_nonzero(fresh):
                    arrival[fresh] = r.clock[fresh] + _gaps(
                        streams, r.act[fresh], r.rate[fresh],
                        r.denom[fresh], backend,
                    )
                pending[r.act] = -1
            else:
                arrival = r.clock + _gaps(
                    streams, r.act, r.rate, r.denom, backend
                )
            # A jump past the horizon means the remaining steps are
            # no-ops: stop that row at the horizon and keep the arrival
            # pending for the next call (memorylessness makes keeping
            # and redrawing equal in distribution; keeping is also
            # split-invariant bit-for-bit).  The event uniforms are only
            # drawn on consumption, so nothing else is buffered.
            reach = arrival >= r.horizon
            landing = xp.count_nonzero(reach)
            if landing:
                over = arrival > r.horizon
                overshoot = xp.count_nonzero(over)
                if overshoot:
                    pending[r.act[over]] = arrival[over]
                    keep = ~over
                    rows = r = r.retire(keep, times, dark, light)
                    if not r.size:
                        break
                    arrival, reach = arrival[keep], reach[keep]
                    landing -= overshoot
            r.clock = arrival
            # One active event per remaining row; two uniforms per row
            # (fused type/colour pick, then the dark-partner pick, which
            # lighten events simply discard).  Each pick is the count of
            # cumulative masses at or below its threshold.
            u = backend.from_host(streams.take(backend.to_numpy(r.act), 2))
            cls = (r.event <= _below(u[:, 0] * r.rate, r.rate, xp)).sum(
                axis=0
            )
            partner = u[:, 1] * r.total_dark
            partner += r.rate
            j = (r.partner <= _below(partner, r.total, xp)).sum(axis=0)
            # Adopt moves light i -> dark j; lighten moves dark i ->
            # light i: the source class loses one agent, the destination
            # class gains it.
            adopt = cls < k
            step = xp.where(adopt, 1, -1)
            r.counts -= classes == cls + k * step
            r.counts += classes == xp.where(adopt, j, cls)
            r.total_dark += step
            if tap is not None:
                r.store(times, dark, light)
                tap(r.act)
            if landing:
                rows = r.retire(~reach, times, dark, light)
    finally:
        rows.store(times, dark, light)


class _ActiveRows:
    """The event loop's colour-major working copy of its active rows.

    Column ``c`` holds engine row ``act[c]``: ``counts`` is a contiguous
    ``(2k, ·)`` int64 block, dark counts (``dark``) over light counts
    (``light``), and ``mass`` the ``(3k, ·)`` float64 buffer the
    cumulative event masses are built in, whose blocks and rows the
    remaining array attributes view.  ``lighten`` is ``(k, ·)`` for
    per-row tables and ``(k, 1)`` for a shared one.
    """

    __slots__ = (
        "act", "size", "counts", "dark", "light", "total_dark", "clock",
        "horizon", "denom", "lighten", "mass", "adopt", "terms",
        "partner", "event", "rate", "total",
    )

    def __init__(
        self, act, counts, total_dark, clock, horizon, denom, lighten, mass
    ):
        k = counts.shape[0] // 2
        self.act = act
        self.size = act.shape[0]
        self.counts = counts
        self.dark = counts[:k]
        self.light = counts[k:]
        self.total_dark = total_dark
        self.clock = clock
        self.horizon = horizon
        self.denom = denom
        self.lighten = lighten
        self.mass = mass
        self.adopt = mass[:k]
        self.terms = mass[k : 2 * k]
        self.partner = mass[2 * k :]
        self.event = mass[: 2 * k]
        self.rate = mass[2 * k - 1]
        self.total = mass[3 * k - 1]

    @classmethod
    def gather(cls, act, times, horizon, dark, light, lighten, denom, k, xp):
        """Copy the engine rows ``act`` into a fresh working set."""
        size = act.shape[0]
        counts = xp.empty((2 * k, size), dtype=INT64)
        counts[:k] = dark[act].T
        counts[k:] = light[act].T
        return cls(
            act,
            counts,
            counts[:k].sum(axis=0),
            times[act],
            horizon[act],
            denom[act],
            lighten[act].T.copy() if lighten.ndim == 2 else lighten[:, None],
            xp.empty((3 * k, size), dtype=FLOAT64),
        )

    def retire(self, keep, times, dark, light) -> "_ActiveRows":
        """Write the rows outside the ``keep`` mask back, their clocks
        at their horizons, and return the working set of the rest."""
        gone = ~keep
        rows = self.act[gone]
        times[rows] = self.horizon[gone]
        dark[rows] = self.dark[:, gone].T
        light[rows] = self.light[:, gone].T
        lighten = self.lighten
        if lighten.shape[1] == self.size:  # per-row tables
            lighten = lighten[:, keep]
        return _ActiveRows(
            self.act[keep],
            self.counts[:, keep],
            self.total_dark[keep],
            self.clock[keep],
            self.horizon[keep],
            self.denom[keep],
            lighten,
            self.mass[:, keep],
        )

    def store(self, times, dark, light) -> None:
        """Write every row's clock and counts back to the engine."""
        times[self.act] = self.clock
        dark[self.act] = self.dark.T
        light[self.act] = self.light.T


def _gaps(streams: RowStreams, rows, rate, denom, backend: Backend):
    """Steps to each row's next active event, ``Geometric(rate /
    denom)``, from one fresh uniform of the row's own stream."""
    xp = backend.xp
    u = backend.from_host(streams.take(backend.to_numpy(rows), 1))[:, 0]
    return geometric_from_uniform(u, xp.minimum(rate / denom, 1.0), xp=xp)


def _pick_rows(masses, uniforms, xp=None):
    """Row-wise weighted index: for each row r, the first index whose
    cumulative mass exceeds ``uniforms[r]`` times the row total.

    The threshold is clamped strictly below the row total (``uniform *
    total`` can round up to the total when the uniform is within an ulp
    of 1), so the selected index always carries positive mass: the
    cumulative sum is flat over zero-mass entries, making the first
    strict exceedance a positive increment.  This is the vectorised
    counterpart of the scalar engine's last-non-empty fallback.  Rows
    must have positive total mass.
    """
    if xp is None:
        xp = HOST.xp
    cum = xp.cumsum(masses, axis=1, dtype=FLOAT64)
    picks = _below(uniforms * cum[:, -1], cum[:, -1], xp)
    return xp.argmax(cum > picks[:, None], axis=1)


def _below(picks, totals, xp=None):
    """Clamp thresholds strictly below their row totals."""
    if xp is None:
        xp = HOST.xp
    return xp.minimum(picks, xp.nextafter(totals, -xp.inf))
