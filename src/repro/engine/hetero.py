"""Row-batched aggregate engine: B rows with their own weight tables,
population sizes and horizons in one vectorised event loop.

On the complete graph Diversification is a Markov chain on the per-colour
dark and light counts ``(A_i, a_i)``.  :class:`HeterogeneousAggregateBatch`
advances B such chains at once.  Every row carries its own weight table
(stored as a zero-padded ``(B, k_max)`` matrix), its own lightening
coins, its own population size and its own step horizon, so ``B = cells
x replications`` rows of an entire sweep advance through a *single*
Python-level loop.  R replications of one configuration are the special
case of R identical rows:
:class:`~repro.engine.batched.BatchedAggregateSimulation` is a thin
constructor over this class that shares one
:class:`~repro.core.weights.WeightTable` between its rows.

Both of the scalar engine's modes are supported and exact in
distribution (``tests/integration/test_batched_equivalence.py`` and
``tests/integration/test_fused_equivalence.py`` check them with
Kolmogorov-Smirnov tests against per-cell scalar runs):

* **per-step** (:meth:`HeterogeneousAggregateBatch.step`,
  :func:`apply_step_rows`) — one faithful time-step per row: the
  scheduled agent's class and its partner's class are drawn by
  row-wise categorical sampling over the ``2 k_max`` (dark, light)
  classes, the scheduled agent excluded from the partner draw, and the
  adopt/lighten rules apply through boolean masks;
* **event-driven** (:meth:`HeterogeneousAggregateBatch.run_to`,
  :func:`advance_event_driven`) — every row draws its own geometric
  number of no-op steps until its next active event and jumps its clock
  forward.  Rows that are absorbed, or whose next jump overshoots their
  target, coast to the target and drop out of the update, and the loop
  ends when every row has arrived.  One iteration advances every live
  row by a full event, so the loop pays the interpreter about once per
  event of the slowest row instead of once per row.

Padding is safe by construction.  A row with ``k_r`` colours occupies
columns ``0..k_r-1`` of the dark block and of the light block; the
padding columns ``k_r..k_max-1`` hold zero mass, zero weight and zero
lightening coin, and :meth:`~HeterogeneousAggregateBatch.restore`
rejects a checkpoint that breaks this.  The row-wise categorical draws
(:func:`_pick_rows`, and the pick of :func:`advance_event_driven`) clamp
their thresholds strictly below the row totals, so a zero-mass class is
never selected: adopt partners, lighten targets and per-step class picks
all stay inside the row's real colour set, and the event masses
``a_i * total_dark`` and ``A_i (A_i - 1) * lighten_i`` vanish on
padding columns.  ``tests/property/test_hetero_invariants.py`` checks
that runs and row-targeted interventions never leak mass into padding,
and that R identical rows reproduce the batched engine bit for bit.

Split invariance.  Every row owns an independent PCG64 substream
(:class:`~repro.engine.streams.RowStreams`), and an arrival drawn past a
row's target is carried in a per-row ``_pending`` slot instead of being
discarded, so splitting any row's horizon — including *per-row* splits
through :meth:`HeterogeneousAggregateBatch.run_to` — reproduces the
uninterrupted trajectory bit-for-bit.  This backs the
``snapshot()``/``restore()`` checkpoint contract; interventions change
the event rates and therefore drop the pending arrivals of the rows
they touch.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.weights import MIN_WEIGHT, WeightTable
from . import checkpoint as ckpt
from .backend import (
    BOOL,
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


class HeterogeneousAggregateBatch:
    """Count-based simulator of B heterogeneous Diversification rows.

    Args:
        weight_rows: One weight table per row — each entry a
            :class:`~repro.core.weights.WeightTable` or a plain weight
            sequence.  Rows may have different numbers of colours.
        dark_counts: Initial ``A_i`` per row — a ragged sequence whose
            row ``r`` has length ``k_r``, or an already padded
            ``(B, k_max)`` matrix (padding columns must be zero).
        light_counts: Initial ``a_i`` per row, same accepted shapes
            (defaults to all zero — the paper's all-dark start).
        rng: Seed or generator.  Each row draws from its own PCG64
            substream seeded off this base generator
            (:class:`~repro.engine.streams.RowStreams`), which is what
            makes runs split-invariant and checkpointable.
        lighten_rows: Optional per-row override of the ``1/w_i``
            lightening coins, same accepted shapes as the counts.
    """

    def __init__(
        self,
        weight_rows: Sequence,
        dark_counts,
        light_counts=None,
        *,
        rng: int | Generator | None = None,
        lighten_rows=None,
        backend: str | Backend | None = None,
    ):
        self._backend = require_engine_loops(
            resolve_backend(backend), type(self).__name__
        )
        xp = self._backend.xp
        tables = [
            row if isinstance(row, WeightTable) else WeightTable(row)
            for row in weight_rows
        ]
        if not tables:
            raise ValueError("need at least one row")
        ks = xp.asarray([table.k for table in tables], dtype=INT64)
        weights = xp.zeros((len(tables), int(ks.max())), dtype=FLOAT64)
        for r, table in enumerate(tables):
            weights[r, : table.k] = table.as_array()
        dark = _padded(dark_counts, "dark_counts", INT64, ks, xp)
        if light_counts is None:
            light = xp.zeros(dark.shape, dtype=INT64)
        else:
            light = _padded(light_counts, "light_counts", INT64, ks, xp)
        if lighten_rows is None:
            lighten = xp.zeros(weights.shape, dtype=FLOAT64)
            mass = _mass_columns(ks, weights.shape[1], xp)
            lighten[mass] = 1.0 / weights[mass]
        else:
            lighten = _padded(lighten_rows, "lighten_rows", FLOAT64, ks, xp)
        self._init_rows(weights, ks, dark, light, lighten, rng)

    def _init_rows(self, weights, ks, dark, light, lighten, rng) -> None:
        """Validate padded ``(B, k_max)`` rows and assign every field.

        Each public constructor parses its own inputs into these arrays
        and calls this once, so building an engine enters exactly one
        ``__init__``.
        """
        xp = self._backend.xp
        n = _checked_rows(weights, ks, dark, light, lighten, xp)
        self._set_rows(weights, ks, dark, light, lighten, n)
        rows = ks.shape[0]
        self.rng = make_rng(rng)
        self._times = xp.zeros(rows, dtype=INT64)
        # Per-row substreams and pending arrivals: see the module
        # docstring's split-invariance paragraph.
        self._streams = RowStreams.from_generator(self.rng, rows)
        self._pending = xp.full(rows, -1, dtype=INT64)
        # repro-lint: disable=RL3 -- observer callbacks, re-registered by the owner after restore()
        self._taps: list = []

    def _set_rows(self, weights, ks, dark, light, lighten, n) -> None:
        """Install validated rows: tables, counts, coins and sizes."""
        xp = self._backend.xp
        k_max = weights.shape[1]
        self._weights = weights
        self._ks = ks
        # One contiguous (B, 2 k_max) state matrix; dark and light are
        # views on the left and right blocks.
        # repro-lint: disable=RL301 -- serialised via its _dark/_light views; restore() rebuilds it
        self._state = xp.concatenate([dark, light], axis=1)
        self._dark = self._state[:, :k_max]
        self._light = self._state[:, k_max:]
        self._lighten = lighten
        self._n = n
        # repro-lint: disable=RL301 -- derived from the serialised _n; restore() recomputes it
        self._denom = n.astype(FLOAT64) * (n - 1).astype(FLOAT64)

    def _per_row(self, steps, name: str = "steps"):
        """Broadcast a scalar or per-row step count to ``(B,)``."""
        xp = self._backend.xp
        steps = xp.asarray(steps, dtype=INT64)
        if steps.ndim == 0:
            steps = xp.full(self.rows, int(steps), dtype=INT64)
        if steps.shape != (self.rows,):
            raise ValueError(
                f"{name} must be a scalar or have shape ({self.rows},)"
            )
        if (steps < 0).any():
            raise ValueError(f"{name} must be non-negative")
        return steps

    def _resolve_rows(self, rows):
        """Row selection for interventions: None (all rows), a boolean
        mask, or an index array."""
        xp = self._backend.xp
        if rows is None:
            return xp.arange(self.rows)
        rows = xp.asarray(rows)
        if rows.dtype == BOOL:
            if rows.shape != (self.rows,):
                raise ValueError(
                    f"boolean row mask must have shape ({self.rows},)"
                )
            return xp.flatnonzero(rows)
        rows = rows.astype(INT64).reshape(-1)
        if rows.size and (rows.min() < 0 or rows.max() >= self.rows):
            raise ValueError("row indices out of range")
        return rows

    # ------------------------------------------------------------------
    # Introspection

    @property
    def rows(self) -> int:
        """Number of fused rows B."""
        return self._state.shape[0]

    @property
    def k_max(self) -> int:
        """Width of the padded colour axis."""
        return self._weights.shape[1]

    @property
    def backend(self) -> Backend:
        """The array backend this engine computes on."""
        return self._backend

    def ks(self):
        """Per-row colour counts ``k_r``, shape ``(B,)``."""
        return self._ks.copy()

    def populations(self):
        """Per-row population sizes ``n_r``, shape ``(B,)``."""
        return self._n.copy()

    def times(self):
        """Per-row clocks, shape ``(B,)``."""
        return self._times.copy()

    def weights_matrix(self):
        """Padded per-row weights, shape ``(B, k_max)`` (padding 0)."""
        return self._weights.copy()

    def lighten_matrix(self):
        """Padded per-row lightening coins, ``(B, k_max)`` (padding 0)."""
        return self._lighten.copy()

    def dark_counts(self):
        """``A_i`` per row and colour, ``(B, k_max)`` zero-padded."""
        return self._dark.copy()

    def light_counts(self):
        """``a_i`` per row and colour, ``(B, k_max)`` zero-padded."""
        return self._light.copy()

    def colour_counts(self):
        """``C_i = A_i + a_i`` per row and colour, ``(B, k_max)``."""
        return self._dark + self._light

    # ------------------------------------------------------------------
    # Per-step mode (used by the equivalence tests)

    def step(self):
        """One faithful time-step in every row; returns the changed mask."""
        changed = self._step_rows(self._backend.xp.arange(self.rows))
        self._times += 1
        return changed

    def run_per_step(self, steps) -> "HeterogeneousAggregateBatch":
        """Advance each row by its own ``steps`` (scalar or ``(B,)``)
        in faithful per-step mode; rows past their horizon sit out."""
        horizon = self._times + self._per_row(steps)
        xp = self._backend.xp
        while True:
            act = xp.flatnonzero(self._times < horizon)
            if act.size == 0:
                return self
            self._step_rows(act)
            self._times[act] += 1

    def _step_rows(self, act):
        """One faithful step for the rows in ``act`` (returns per-``act``
        changed mask) through :func:`apply_step_rows`."""
        self._pending[act] = -1  # per-step mode re-examines every step
        bk = self._backend
        uniforms = bk.from_host(self._streams.take(bk.to_numpy(act), 3)).T
        return apply_step_rows(
            self._state,
            self._dark,
            self._light,
            self._lighten,
            act,
            uniforms,
            xp=bk.xp,
        )

    # ------------------------------------------------------------------
    # Event-driven mode

    def run(self, steps) -> "HeterogeneousAggregateBatch":
        """Advance each row by its own ``steps`` (scalar or ``(B,)``)
        using per-row event jumps."""
        return self.run_to(self._times + self._per_row(steps))

    def run_to(self, targets) -> "HeterogeneousAggregateBatch":
        """Advance every row to its own absolute target time.

        Runs :func:`advance_event_driven`: a fused event-type/colour
        categorical draw over ``2 k_max`` masses whose lighten terms
        come from the ``(B, k_max)`` coin table, geometric jumps with
        per-row ``n_r (n_r - 1)`` denominators and branch-free ±1
        updates.  Rows retire independently (absorbed, jumped past
        their target, or arrived) while the rest keep advancing.
        """
        targets = self._per_row(targets, "targets")
        if (targets < self._times).any():
            raise ValueError("targets must not precede the row clocks")
        advance_event_driven(
            self._times,
            targets,
            self._dark,
            self._light,
            self._lighten,
            self._denom,
            self._streams,
            self._pending,
            self.k_max,
            tap=self._tap_update if self._taps else None,
            backend=self._backend,
        )
        self._sync_taps()
        return self

    # ------------------------------------------------------------------
    # Adversary support (row-targeted, between ``run`` calls)

    def add_agents(
        self, colour: int, count: int, dark: bool = True, rows=None
    ) -> None:
        """Inject ``count`` fresh agents of an existing colour into the
        selected rows (all rows by default)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        sel = self._resolve_rows(rows)
        # An empty selection still validates against k_max, so a wrong
        # colour id in a row-targeted schedule fails loudly instead of
        # no-opping on sweeps where no row matches the mask.
        limit = int(self._ks[sel].min()) if sel.size else self.k_max
        if not 0 <= colour < limit:
            raise ValueError(
                f"colour {colour} is not present in every selected row"
            )
        if sel.size == 0:
            return
        block = self._dark if dark else self._light
        block[sel, colour] += count
        self._n[sel] += count
        self._denom[sel] = self._n[sel].astype(FLOAT64) * (
            self._n[sel] - 1
        )
        self._pending[sel] = -1  # rates changed: redraw those arrivals

    def add_colour(
        self, weight: float, count: int, dark: bool = True, rows=None
    ):
        """Introduce a brand-new colour with ``count`` supporters in the
        selected rows, widening the padded matrices when a selected row
        is already at ``k_max``.

        Rows have *different* colour counts, so the new colour lands at
        each row's own next free column ``k_r`` (returned per selected
        row); unselected rows keep zero mass and zero weight there.
        """
        if count < 0:  # validate before any widening takes effect
            raise ValueError("count must be non-negative")
        if not MIN_WEIGHT <= weight < float("inf"):
            raise ValueError(f"weights must be finite and >= {MIN_WEIGHT}")
        sel = self._resolve_rows(rows)
        if sel.size == 0:
            return self._backend.xp.zeros(0, dtype=INT64)
        if (self._ks[sel] == self.k_max).any():
            self._widen()
        cols = self._ks[sel].copy()
        self._weights[sel, cols] = weight
        self._lighten[sel, cols] = 1.0 / weight
        block = self._dark if dark else self._light
        block[sel, cols] += count
        self._ks[sel] += 1
        self._n[sel] += count
        self._denom[sel] = self._n[sel].astype(FLOAT64) * (
            self._n[sel] - 1
        )
        self._pending[sel] = -1  # rates changed: redraw those arrivals
        return cols

    def recolour(self, source: int, target: int, rows=None) -> None:
        """Repaint all agents of ``source`` as ``target`` (shades kept)
        in the selected rows."""
        sel = self._resolve_rows(rows)
        limit = int(self._ks[sel].min()) if sel.size else self.k_max
        if not (0 <= source < limit and 0 <= target < limit):
            raise ValueError(
                "source and target must be existing colours in every "
                "selected row"
            )
        if sel.size == 0 or source == target:
            return
        self._dark[sel, target] += self._dark[sel, source]
        self._light[sel, target] += self._light[sel, source]
        self._dark[sel, source] = 0
        self._light[sel, source] = 0
        self._pending[sel] = -1  # rates changed: redraw those arrivals

    def _widen(self) -> None:
        """Grow the padded colour axis by one column (dark and light
        blocks are re-laid out; padding stays zero)."""
        xp = self._backend.xp
        k = self.k_max
        rows = self.rows
        state = xp.zeros((rows, 2 * (k + 1)), dtype=INT64)
        state[:, :k] = self._dark
        state[:, k + 1 : 2 * k + 1] = self._light
        self._state = state
        self._dark = state[:, : k + 1]
        self._light = state[:, k + 1 :]
        pad = xp.zeros((rows, 1), dtype=FLOAT64)
        self._weights = xp.concatenate([self._weights, pad], axis=1)
        self._lighten = xp.concatenate([self._lighten, pad.copy()], axis=1)

    # ------------------------------------------------------------------
    # Streaming analysis taps

    def attach_stream(self, accumulator, *, reset: bool = True) -> None:
        """Feed a streaming accumulator from inside the event loop.

        The accumulator is reset to the current padded ``(B, k_max)``
        configuration and then updated after every applied event (per
        affected rows) and synchronised at each horizon; padding columns
        carry zero mass, so they contribute nothing to any potential.
        Pass ``reset=False`` to re-attach an accumulator restored via
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
            "HeterogeneousAggregateBatch",
            weights=bk.to_numpy(self._weights, copy=True),
            ks=bk.to_numpy(self._ks, copy=True),
            dark=bk.to_numpy(self._dark, copy=True),
            light=bk.to_numpy(self._light, copy=True),
            lighten=bk.to_numpy(self._lighten, copy=True),
            times=bk.to_numpy(self._times, copy=True),
            pending=bk.to_numpy(self._pending, copy=True),
            n=bk.to_numpy(self._n, copy=True),
            streams=self._streams.snapshot(),
            rng=ckpt.rng_state(self.rng),
        )

    def restore(self, data: dict) -> "HeterogeneousAggregateBatch":
        """Restore a :meth:`snapshot` payload in place.

        Handles checkpoints taken after ``add_colour`` interventions:
        the padded matrices are re-widened to the snapshot's ``k_max``.
        Every value is checked before anything is restored, so a
        rejected payload leaves the engine as it was.
        """
        ckpt.check(data, "HeterogeneousAggregateBatch")
        weights = ckpt.as_array(data["weights"], FLOAT64)
        ks = ckpt.as_array(data["ks"], INT64)
        dark = ckpt.as_array(data["dark"], INT64)
        light = ckpt.as_array(data["light"], INT64)
        lighten = ckpt.as_array(data["lighten"], FLOAT64)
        rows = self.rows
        if ks.shape != (rows,) or weights.ndim != 2 or len(weights) != rows:
            raise ValueError(
                f"checkpoint ks {ks.shape} and weights {weights.shape} do "
                f"not match the engine's {rows} rows"
            )
        k_max = weights.shape[1]
        if k_max < self.k_max:
            raise ValueError(
                f"checkpoint k_max {k_max} is narrower than the "
                f"engine's {self.k_max}"
            )
        shapes = {dark.shape, light.shape, lighten.shape}
        if shapes != {(rows, k_max)}:
            raise ValueError(
                f"checkpoint matrices disagree on shape: {shapes}"
            )
        times = ckpt.as_row_vector(data["times"], INT64, rows, "times")
        pending = ckpt.as_row_vector(data["pending"], INT64, rows, "pending")
        n = ckpt.as_row_vector(data["n"], INT64, rows, "n")
        totals = _checked_rows(weights, ks, dark, light, lighten, HOST.xp)
        if (n != totals).any():
            raise ValueError(
                "checkpoint n does not match the rows' dark + light totals"
            )
        if (times < 0).any():
            raise ValueError("checkpoint times must be non-negative")
        if ((pending != -1) & (pending <= times)).any():
            raise ValueError(
                "checkpoint pending arrivals must be -1 or later than "
                "their row's clock"
            )
        rng = ckpt.checked_rng_state(self.rng, data["rng"])
        self._streams.restore(data["streams"])
        bk = self._backend
        self._set_rows(
            bk.from_host(weights), bk.from_host(ks), bk.from_host(dark),
            bk.from_host(light), bk.from_host(lighten), bk.from_host(n),
        )
        self._times = bk.from_host(times)
        self._pending = bk.from_host(pending)
        ckpt.set_rng_state(self.rng, rng)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(B={self.rows}, "
            f"k_max={self.k_max}, "
            f"n=[{int(self._n.min())}..{int(self._n.max())}], "
            f"t=[{int(self._times.min())}..{int(self._times.max())}])"
        )


def _mass_columns(ks, k_max: int, xp):
    """Boolean ``(B, k_max)`` mask of the non-padding columns."""
    return xp.arange(k_max)[None, :] < ks[:, None]


def _padded(values, name: str, dtype, ks, xp):
    """Zero-pad ragged per-row vectors to ``(B, k_max)``; an already
    padded matrix is checked for shape and copied (its padding columns
    are checked by :func:`_checked_rows`)."""
    rows, k_max = ks.shape[0], int(ks.max())
    if getattr(values, "ndim", None) == 2:
        values = xp.asarray(values)
        if values.shape != (rows, k_max):
            raise ValueError(
                f"padded {name} must have shape ({rows}, {k_max}), "
                f"got {values.shape}"
            )
        return values.astype(dtype, copy=True)
    if len(values) != rows:
        raise ValueError(
            f"{name} has {len(values)} rows but the batch has {rows}"
        )
    out = xp.zeros((rows, k_max), dtype=dtype)
    for r, row in enumerate(values):
        row = xp.asarray(row, dtype=dtype)
        if row.ndim != 1 or row.shape[0] != ks[r]:
            raise ValueError(
                f"{name} row {r} must have length k_r={ks[r]}, "
                f"got shape {row.shape}"
            )
        out[r, : row.shape[0]] = row
    return out


def _checked_rows(weights, ks, dark, light, lighten, xp):
    """Check padded ``(B, k_max)`` rows an engine can run from and
    return their population sizes ``n_r``.

    Every ``k_r`` lies in ``[1, k_max]``; weights on the ``k_r`` real
    columns are at least ``MIN_WEIGHT``; padding columns hold zero
    weight, count and coin; counts are non-negative, coins lie in
    ``[0, 1]`` and every row has at least two agents.
    """
    k_max = weights.shape[1]
    if ((ks < 1) | (ks > k_max)).any():
        raise ValueError(f"ks must lie in [1, {k_max}]")
    mass = _mass_columns(ks, k_max, xp)
    if not (weights[mass] >= MIN_WEIGHT).all():
        raise ValueError(f"weights must be >= {MIN_WEIGHT}")
    for name, block in (
        ("weights", weights), ("dark", dark), ("light", light),
        ("lighten", lighten),
    ):
        if block[~mass].any():
            raise ValueError(f"{name} carries values in padding columns")
    if (dark < 0).any() or (light < 0).any():
        raise ValueError("counts must be non-negative")
    if not ((lighten >= 0.0) & (lighten <= 1.0)).all():
        raise ValueError("lighten probabilities must be in [0, 1]")
    n = dark.sum(axis=1) + light.sum(axis=1)
    if (n < 2).any():
        raise ValueError("every row needs at least two agents")
    return n


def apply_step_rows(
    state,
    dark,
    light,
    lighten,
    rows,
    uniforms,
    xp=None,
):
    """Per-step transition of the row-batched engine: one faithful
    time-step for the ``rows`` of a ``(B, 2k)`` state matrix, mutating
    ``dark``/``light`` in place (``state`` is their concatenation).

    The scheduled agent's class and its sampled partner's class are
    drawn by vectorised categorical sampling over the ``2k`` (dark,
    light) classes — class ``c < k`` is dark colour ``c``, class
    ``c >= k`` light colour ``c - k`` — with the scheduled agent
    excluded from the partner draw, then the adopt/lighten rules apply
    through boolean masks.  ``uniforms`` holds the step's three
    ``(len(rows),)`` draws and ``lighten`` the ``(B, k)`` per-row
    coins.  Returns the per-``rows`` changed mask.  ``xp`` selects the
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
    lightened = (
        u_dark & v_dark & (u_col == v_col) & (coin < lighten[rows, u_col])
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
    """Event-driven core of the row-batched engine: advance each row to
    its own ``horizon[r]`` with per-row geometric event jumps, mutating
    ``times``, ``dark``, ``light`` and ``pending`` in place.

    ``lighten`` holds the ``(B, k)`` per-row coins and ``denom`` each
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
    splitting a horizon (including *per-row* splits through
    :meth:`HeterogeneousAggregateBatch.run_to`) reproduces the uninterrupted
    trajectory bit-for-bit.  Arrivals are only ever carried *into* a
    call, so only its first iteration looks for them; after that every
    active row draws a fresh gap.

    Working layout.  One iteration advances every active row by one
    event, and what it costs is the number of NumPy calls it makes on
    arrays of at most B columns, not their arithmetic.  To keep that
    number small the loop runs on :class:`_ActiveRows`, a colour-major
    working copy of the active rows: column ``c`` is engine row
    ``act[c]``, a C-contiguous ``(2k, ·)`` float64 block stacks the
    dark counts over the light counts, and a preallocated C-contiguous
    ``(3k + 1, ·)`` float64 buffer receives the masses through ``out=``
    ufunc calls and is cumulated in place by one ``add`` per buffer
    row, each row onto the running total of the rows before it; its
    last row holds the dark totals.  The working copy also holds each
    row's stream cursor and pool offsets, so the gap draw and the event
    draw are :meth:`RowStreams.draw` calls — an add, one max-reduce for
    the refill test, an add and one gather — instead of ``take`` calls
    that gather and scatter cursors by row index.  Both picks' thresholds
    are scaled in one call on a ``(2, ·)`` block, each class pick is a
    column sum of one comparison, and each event's ±1 pair is one
    scatter into the flat view of the count block, its source and
    destination looked up together by (class, partner).  Every array
    spans exactly the active rows: when rows retire, the copy writes
    their counts and cursors back and compacts once with ``compress``,
    which keeps every block C-contiguous (the row adds run on
    contiguous rows and the flat view stays a view), instead of
    gathering by ``act`` on every iteration.  The rows still active are
    written back in a ``finally`` (so an exception leaves the counts
    consistent with ``times`` and ``pending``) and before every ``tap``
    call, since taps read the engine arrays; their cursors also go back
    before the first iteration's ``take`` on the same streams.

    Bit identity.  Trajectories are fixed functions of the seed
    (``tests/unit/test_event_loop_digest.py`` pins them), which
    constrains four choices:

    * the gap and the event uniforms are two draws, in that order, each
      with its own refill test: one pooled draw would refill a row's
      pool earlier and, once an intervention clears ``pending``, discard
      its partial pool at a different point.  Cursor draws and ``take``
      share one refill rule, so a row's draws do not depend on which of
      the two served them;
    * the masses are rebuilt from the counts on every iteration —
      ``a_i * total_dark`` and ``A_i (A_i - 1) * lighten_i``, products
      of whole numbers, which float64 rounds exactly as the int64
      products used to be rounded when cast, so rebuilding gives the
      same floats as updating only the term an event changed — and
      cumulated by a sequential sum in class order, one
      ``add(prev, cur, out=cur)`` per buffer row ``1 .. 3k-1``: the
      same additions in the same order as ``cumsum`` along axis 0, so
      the same floats; keeping the cumulative sum up to date
      incrementally would round differently;
    * a class pick counts the cumulative masses at or below its
      threshold, which is the index of the first strict exceedance
      because cumulative masses never decrease;
    * a threshold is clamped below its total (:func:`_below`) only when
      one reaches it, which gives the same thresholds as clamping every
      time.

    The layout changes no value: ``compress`` copies the kept columns
    as they are, the counts stay whole numbers far below 2**53, and the
    ±1 scatter changes one source and one distinct destination element
    per column, so no index repeats within it.

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
        act, times, horizon, dark, light, lighten, denom, k, streams,
        backend,
    )
    carried = True
    try:
        while rows.size:
            r = rows
            # Cumulative masses over 3k classes: the first 2k (adopt per
            # light colour, scaled by the dark total, then the lighten
            # terms) form the active-event distribution — their running
            # total at class 2k-1 *is* the event rate — and the last k
            # hold the dark counts for the partner pick.  The dark
            # totals fill the buffer's last row first.
            r.dark.sum(axis=0, out=r.total_dark)
            xp.multiply(r.light, r.total_dark, out=r.adopt)
            xp.subtract(r.dark, 1.0, out=r.dark_less)
            xp.multiply(r.dark, r.dark_less, out=r.terms)
            xp.multiply(r.terms, r.lighten, out=r.terms)
            r.partner[...] = r.dark
            for prev, cur in r.cumulate:
                xp.add(prev, cur, out=cur)
            # Rows with no active events left (single colour, all dark,
            # w = 1 edge cases) coast to the horizon.  An absorbed row
            # can hold no pending arrival: rates only change through
            # events and interventions, and interventions clear
            # ``pending``.
            if xp.count_nonzero(r.rate) < r.size:
                rows = r = r.retire(r.rate > 0.0, times, dark, light)
                if not r.size:
                    break
            # Each row's per-step event probability is rate / denom;
            # geometric_from_uniform maps any p >= 1 to a one-step gap.
            chance = r.rate / r.denom
            # Rows without a carried-over arrival draw a fresh gap from
            # their own substream; held rows reuse their stored arrival
            # without consuming any draws.  That first draw is a take()
            # on a subset of the rows, so the working set hands its
            # cursors over before it and reads them back after.
            if carried:
                carried = False
                arrival = pending[r.act]
                fresh = arrival < 0
                if xp.count_nonzero(fresh):
                    streams.set_cursors(r.rows, r.pos)
                    u = streams.take(backend.to_numpy(r.act[fresh]), 1)
                    arrival[fresh] = r.clock[fresh] + geometric_from_uniform(
                        backend.from_host(u[:, 0]), chance[fresh], xp=xp
                    )
                    r.pos = streams.cursors(r.rows)[0]
                pending[r.act] = -1
            else:
                u, r.pos = streams.draw(r.rows, r.pos, r.start, 1)
                arrival = geometric_from_uniform(
                    backend.from_host(u), chance, xp=xp
                )
                arrival += r.clock
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
            # lighten events simply discard), scaled in one call to
            # thresholds ``u0 * rate`` and ``u1 * total_dark + rate``.
            # Each pick is the count of cumulative masses at or below
            # its threshold.
            u, r.pos = streams.draw(r.rows, r.pos, r.lanes, 2)
            u = backend.from_host(u)
            xp.multiply(u, r.scale, out=u)
            u[1] += r.rate
            u = _below(u, r.totals, xp)
            cls = (r.event <= u[0]).sum(axis=0)
            j = (r.partner <= u[1]).sum(axis=0)
            # Adopt moves light i -> dark j; lighten moves dark i ->
            # light i: the source class loses one agent and the
            # destination class gains it.  ``moves`` looks both classes
            # up by (cls, j) as flat offsets into the count block, and
            # one scatter applies the pair.
            cls *= k
            cls += j
            move = r.moves.take(cls, axis=1)
            move += r.col
            r.flat[move] += r.step
            if tap is not None:
                r.store(times, dark, light)
                tap(r.act)
            if landing:
                rows = r.retire(~reach, times, dark, light)
    finally:
        rows.store(times, dark, light)


#: What one event adds to its source class (row 0) and destination
#: class (row 1).
_MOVE = HOST.xp.array([[-1.0], [1.0]], dtype=FLOAT64)


class _ActiveRows:
    """The event loop's colour-major working copy of its active rows.

    Column ``c`` holds engine row ``act[c]``: ``counts`` is a
    ``(2k, ·)`` float64 block, dark counts (``dark``) over light counts
    (``light``), whole numbers that float64 holds exactly, and ``mass``
    the ``(3k + 1, ·)`` float64 buffer the cumulative event masses are
    built in, whose blocks and rows the remaining array attributes
    view; its last row holds each column's dark total.  ``lighten``
    holds the ``(k, ·)`` coins of the same rows.  All three blocks are
    C-contiguous: :meth:`gather` allocates them so and :meth:`retire`
    compacts them with ``compress``, which keeps the layout (a boolean
    ``[:, keep]`` would return a column-major copy).  So every row of
    ``mass`` is a contiguous view — ``cumulate`` pairs each row with the
    one before it for the running sum — and ``flat`` is a view of
    ``counts``, not a copy: class ``i`` of column ``c`` is ``flat[i *
    size + c]``, with the column indices in ``col``.  The pair
    ``scale`` (rate, dark total) and the pair ``totals`` (rate, total
    mass) are strided ``(2, ·)`` views of ``mass``.

    The rows' stream cursors live here too: ``pos`` holds each row's
    cursor and ``lanes`` its flat pool offsets (``start`` is their first
    row), host arrays from :class:`~repro.engine.streams.RowStreams`
    for its cursor draws, indexed by the host row indices ``rows``.
    They are compacted with the other blocks and written back to the
    streams wherever the counts are written back to the engine.
    ``dark_less`` is scratch, and ``moves`` the ``(2, 2k * k)`` lookup
    of an event's source and destination offsets in ``flat`` by its
    class ``c`` and partner ``j`` at column ``c * k + j``; both are
    rebuilt with every compaction.  ``step`` is :data:`_MOVE` in the
    loop's namespace.
    """

    __slots__ = (
        "act", "rows", "size", "col", "counts", "flat", "dark", "light",
        "clock", "horizon", "denom", "lighten", "mass", "cumulate",
        "adopt", "terms", "partner", "event", "rate", "total_dark",
        "scale", "totals", "dark_less", "moves", "step", "streams",
        "backend", "pos", "lanes", "start",
    )

    def __init__(
        self, act, counts, clock, horizon, denom, lighten, mass, col,
        streams, backend, pos, lanes,
    ):
        xp = backend.xp
        k = counts.shape[0] // 2
        size = act.shape[0]
        self.act = act
        self.rows = backend.to_numpy(act)
        self.size = size
        self.col = col[:size]
        self.counts = counts
        self.flat = counts.reshape(-1)
        self.dark = counts[:k]
        self.light = counts[k:]
        self.clock = clock
        self.horizon = horizon
        self.denom = denom
        self.lighten = lighten
        self.mass = mass
        lines = list(mass[: 3 * k])
        self.cumulate = tuple(zip(lines[:-1], lines[1:]))
        self.adopt = mass[:k]
        self.terms = mass[k : 2 * k]
        self.partner = mass[2 * k : 3 * k]
        self.event = mass[: 2 * k]
        self.rate = mass[2 * k - 1]
        self.total_dark = mass[3 * k]
        self.scale = mass[2 * k - 1 :: k + 1]
        self.totals = mass[2 * k - 1 : 3 * k : k]
        self.dark_less = xp.empty((k, size), dtype=FLOAT64)
        self.moves = _moves(k, size, xp)
        self.step = xp.asarray(_MOVE)
        self.streams = streams
        self.backend = backend
        self.pos = pos
        self.lanes = lanes
        self.start = lanes[0]

    @classmethod
    def gather(
        cls, act, times, horizon, dark, light, lighten, denom, k, streams,
        backend,
    ):
        """Copy the engine rows ``act`` into a fresh working set."""
        xp = backend.xp
        size = act.shape[0]
        counts = xp.empty((2 * k, size), dtype=FLOAT64)
        counts[:k] = dark[act].T
        counts[k:] = light[act].T
        pos, lanes = streams.cursors(backend.to_numpy(act))
        return cls(
            act,
            counts,
            times[act],
            horizon[act],
            denom[act],
            lighten[act].T.copy(),
            xp.empty((3 * k + 1, size), dtype=FLOAT64),
            xp.arange(size),
            streams,
            backend,
            pos,
            lanes,
        )

    def retire(self, keep, times, dark, light) -> "_ActiveRows":
        """Write the rows outside the ``keep`` mask back, their clocks
        at their horizons, and return the working set of the rest."""
        gone = ~keep
        rows = self.act[gone]
        times[rows] = self.horizon[gone]
        dark[rows] = self.dark[:, gone].T
        light[rows] = self.light[:, gone].T
        host_keep = self.backend.to_numpy(keep)
        host_gone = ~host_keep
        self.streams.set_cursors(self.rows[host_gone], self.pos[host_gone])
        return _ActiveRows(
            self.act[keep],
            self.counts.compress(keep, axis=1),
            self.clock[keep],
            self.horizon[keep],
            self.denom[keep],
            self.lighten.compress(keep, axis=1),
            self.mass.compress(keep, axis=1),
            self.col,
            self.streams,
            self.backend,
            self.pos[host_keep],
            self.lanes.compress(host_keep, axis=1),
        )

    def store(self, times, dark, light) -> None:
        """Write every row's clock, counts and stream cursor back."""
        times[self.act] = self.clock
        dark[self.act] = self.dark.T
        light[self.act] = self.light.T
        self.streams.set_cursors(self.rows, self.pos)


def _moves(k: int, size: int, xp):
    """``(2, 2k * k)`` flat offsets, in a ``(2k, ·)`` block of ``size``
    columns, of the classes an event of class ``c`` with partner ``j``
    (column ``c * k + j``) takes an agent from (row 0) and gives it to
    (row 1).  Adopt events (``c < k``) move light ``c`` (class ``k +
    c``) to dark ``j``; lighten events move dark ``c - k`` to light
    ``c - k`` (class ``c``) and ignore ``j``."""
    c = xp.repeat(xp.arange(2 * k, dtype=INT64), k)
    j = xp.tile(xp.arange(k, dtype=INT64), 2 * k)
    adopt = c < k
    source = xp.where(adopt, c + k, c - k)
    target = xp.where(adopt, j, c)
    return xp.stack([source, target]) * size


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
    """Clamp thresholds strictly below their row totals.

    A threshold reaches its total only by rounding, so the clamp, whose
    ``nextafter`` costs more per element than any other step of the
    event loop, runs only when one does; below it, the clamp would
    return every threshold unchanged.
    """
    if xp is None:
        xp = HOST.xp
    if (picks < totals).all():
        return picks
    return xp.minimum(picks, xp.nextafter(totals, -xp.inf))
