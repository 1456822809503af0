"""O(1)-memory streaming accumulators for the analysis layer.

The trajectory-based analysis (record counts with a
:class:`~repro.experiments.recorder.CountRecorder`, then evaluate
:func:`~repro.analysis.potentials.phi` etc. over the series) costs
O(T·k) memory in the number of recorded snapshots.  The accumulators
here compute the same quantities *inside* the engines' event loops in
O(B·k) memory — independent of the horizon — by exploiting that every
tracked quantity is constant between active events:

* :class:`StreamingPotentials` — exact time-weighted integrals (and
  running max/min/current values) of the paper's three potentials
  φ (Eq. (10)), ψ (Eq. (11)) and σ² (Lemma 2.14), per engine row;
* :class:`StreamingShares` — exact time-weighted colour-share
  occupancy and maximum share error (the count-level fairness
  quantities of Def 1.1(2)) per engine row;
* :class:`RunningMoments` — Welford-style streaming mean/variance/
  min/max of arbitrary per-row scalar series (the concentration-stat
  primitive), mergeable across segments.

Engines feed the first two through ``attach_stream``: the engine calls
``reset`` with the current configuration, ``update(rows, times, dark,
light)`` after every applied event (with the affected rows' *new*
counts and clocks), and ``sync(times)`` at each horizon.  Because each
update adds exactly one ``dt * value`` product per affected row, in
chronological order, the accumulated integral is *bit-identical* to a
sequential reduction over the materialised trajectory — the
exact-equality contract verified by ``tests/unit/test_streaming.py``.

The tap-fed accumulators expose ``state_dict`` (a read-only view as
plain **host NumPy** arrays, whatever the compute backend, which the
loop digests hash), ``merge_serial`` to join time-adjacent segments and
``concat`` to join row-disjoint accumulators from fused mega-batches;
:class:`RunningMoments` merges with ``merge``.

Backends.  All array work routes through :mod:`repro.engine.backend`
(this module never imports numpy itself).  The accumulators accept a
``backend=`` argument and hold their per-row state in that backend's
namespace; like the engine event loops that feed them they rely on
NumPy-compatible conveniences (fancy-index scatter, ``out=``), so the
``array-api-strict`` backend is rejected with the same clear error.
"""

from __future__ import annotations

from ..core.weights import WeightTable
from ..engine.backend import (
    FLOAT64,
    HOST,
    INT64,
    Backend,
    require_engine_loops,
    resolve_backend,
)

#: Host namespace for the module-level helpers and the test-reference
#: :class:`PotentialTrajectory`; accumulator methods use their own
#: backend's namespace instead.
np = HOST.xp


def _resolve_loop_backend(backend) -> Backend:
    return require_engine_loops(
        resolve_backend(backend), "the streaming accumulators"
    )


def _weight_matrix(weights, rows: int, width: int, xp=None):
    """Resolve a weights spec to a ``(rows, width)`` float matrix.

    ``weights`` may be a :class:`~repro.core.weights.WeightTable`
    (shared, may grow mid-run), a ``(k,)`` vector, a ``(B, k)`` padded
    matrix, or a zero-argument callable returning either array form
    (the hook for engines whose weight matrix is re-allocated when it
    widens, e.g. ``engine.weights_matrix``).
    """
    if xp is None:
        xp = np
    if callable(weights) and not isinstance(weights, WeightTable):
        weights = weights()
    if isinstance(weights, WeightTable):
        weights = weights.as_array()
    w = xp.asarray(weights, dtype=FLOAT64)
    if w.ndim == 1:
        w = xp.tile(w, (rows, 1))
    if w.shape[0] != rows:
        raise ValueError(
            f"weights have {w.shape[0]} rows but the counts have {rows}"
        )
    if w.shape[1] < width:
        raise ValueError(
            f"weights are {w.shape[1]} colours wide but the counts "
            f"have {width}"
        )
    return w[:, :width]


def potential_values(dark, light, weights, xp=None):
    """Row-wise (φ, ψ, σ²) for ``(B, k)`` dark/light count matrices.

    Uses the paper's closed forms ``2k·Σq² − 2(Σq)²`` with
    ``q_i = A_i/w_i`` (φ; ψ likewise on the light counts) and
    ``σ² = (A/w − a)²``; zero-weight padding columns (heterogeneous
    rows) carry zero mass and are excluded from ``k``.
    """
    if xp is None:
        xp = np
    dark = xp.asarray(dark, dtype=FLOAT64)
    light = xp.asarray(light, dtype=FLOAT64)
    w = _weight_matrix(weights, dark.shape[0], dark.shape[1], xp=xp)
    mass = w > 0.0
    k = xp.astype(mass.sum(axis=1), FLOAT64)
    qd = xp.divide(
        dark, w, out=xp.zeros(dark.shape, dtype=FLOAT64), where=mass
    )
    ql = xp.divide(
        light, w, out=xp.zeros(light.shape, dtype=FLOAT64), where=mass
    )
    phi = 2.0 * k * (qd * qd).sum(axis=1) - 2.0 * qd.sum(axis=1) ** 2
    psi = 2.0 * k * (ql * ql).sum(axis=1) - 2.0 * ql.sum(axis=1) ** 2
    total_w = w.sum(axis=1)
    sigma = (dark.sum(axis=1) / total_w - light.sum(axis=1)) ** 2
    return phi, psi, sigma


def share_values(dark, light, weights, xp=None):
    """Row-wise colour shares ``C_i / n`` and max share error vs the
    fair shares ``w_i / w`` for ``(B, k)`` count matrices."""
    if xp is None:
        xp = np
    counts = xp.asarray(dark, dtype=FLOAT64) + xp.asarray(
        light, dtype=FLOAT64
    )
    w = _weight_matrix(weights, counts.shape[0], counts.shape[1], xp=xp)
    shares = counts / counts.sum(axis=1, keepdims=True)
    fair = w / w.sum(axis=1, keepdims=True)
    error = xp.abs(shares - fair).max(axis=1)
    return shares, error


class _TapAccumulator:
    """Shared tap plumbing: per-row clocks, segment bookkeeping, and
    the serial/row-wise merge helpers.  Subclasses define the tracked
    value arrays through ``_value_fields`` (integrated with the
    ``dt * value`` rule) and ``_refresh(rows, dark, light)``."""

    #: Names of the per-row value arrays: for each name ``x`` the
    #: subclass holds ``_cur_x`` (current value) and ``_int_x``
    #: (time-weighted integral); the update rule integrates the old
    #: value over the elapsed steps, then refreshes the current one.
    _value_fields: tuple[str, ...] = ()

    def __init__(self, weights, *, backend: str | Backend | None = None):
        self._weights = weights
        self._backend = _resolve_loop_backend(backend)
        self._rows: int | None = None
        self._last_time = None
        self._start_time = None
        self._events = None

    def _weights_for(self, rows):
        """Weights spec restricted to a row subset.

        Per-event updates carry only the affected rows' count slices;
        a per-row ``(B, k)`` weight matrix (heterogeneous batches) must
        be sliced to match, while shared specs pass through whole."""
        xp = self._backend.xp
        weights = self._weights
        if callable(weights) and not isinstance(weights, WeightTable):
            weights = weights()
        if isinstance(weights, WeightTable):
            return weights
        w = xp.asarray(weights, dtype=FLOAT64)
        if w.ndim == 2 and w.shape[0] == self._rows:
            return w[rows]
        return w

    @property
    def rows(self) -> int:
        """Number of tracked engine rows (after ``reset``)."""
        if self._rows is None:
            raise ValueError("accumulator not initialised; call reset()")
        return self._rows

    @property
    def backend(self) -> Backend:
        """The resolved array backend holding the per-row state."""
        return self._backend

    def reset(self, times, dark, light) -> None:
        """Bind to a row set and zero all integrals."""
        xp = self._backend.xp
        times = xp.asarray(times, dtype=FLOAT64)
        dark = xp.asarray(dark, dtype=FLOAT64)
        light = xp.asarray(light, dtype=FLOAT64)
        self._rows = dark.shape[0]
        self._last_time = times.copy()
        self._start_time = times.copy()
        self._events = xp.zeros(self._rows, dtype=INT64)
        for name in self._value_fields:
            setattr(
                self, f"_int_{name}", xp.zeros(self._rows, dtype=FLOAT64)
            )
        self._init_values(dark, light)

    def update(self, rows, times, dark, light) -> None:
        """Integrate the elapsed segment for ``rows`` and refresh their
        current values from the (already updated) counts.

        ``times`` holds the affected rows' new clocks; ``dark`` and
        ``light`` their count slices.  A call with zero elapsed time is
        a pure re-base (used after interventions, whose instantaneous
        count changes alter the values but not the integrals).
        """
        xp = self._backend.xp
        rows = xp.asarray(rows, dtype=INT64)
        times = xp.asarray(times, dtype=FLOAT64)
        dt = times - self._last_time[rows]
        for name in self._value_fields:
            integral = getattr(self, f"_int_{name}")
            integral[rows] += dt * getattr(self, f"_cur_{name}")[rows]
        self._last_time[rows] = times
        self._events[rows] += 1
        self._refresh(
            rows,
            xp.asarray(dark, dtype=FLOAT64),
            xp.asarray(light, dtype=FLOAT64),
        )

    def sync(self, times) -> None:
        """Integrate every row up to ``times`` (no value change —
        the configuration is constant between events)."""
        xp = self._backend.xp
        times = xp.asarray(times, dtype=FLOAT64)
        dt = times - self._last_time
        for name in self._value_fields:
            integral = getattr(self, f"_int_{name}")
            integral += dt * getattr(self, f"_cur_{name}")
        self._last_time = times.copy()

    def durations(self):
        """Per-row integrated step spans."""
        return self._last_time - self._start_time

    def events(self):
        """Per-row applied-event counts."""
        return self._events.copy()

    # ------------------------------------------------------------------
    # Merging

    def merge_serial(self, later: "_TapAccumulator") -> None:
        """Fold a time-adjacent later segment into this one.

        ``later`` must have been reset at this accumulator's current
        end times (the pattern: run, detach, attach a fresh accumulator,
        run on, merge).  Integrals agree with the uninterrupted run up
        to float-addition associativity (the merge regroups
        ``Σa + Σb``).
        """
        xp = self._backend.xp
        if type(later) is not type(self):
            raise TypeError("can only merge accumulators of the same type")
        if later.rows != self.rows:
            raise ValueError("row counts disagree")
        if not bool(xp.all(later._start_time == self._last_time)):
            raise ValueError(
                "later segment does not start at this segment's end"
            )
        for name in self._value_fields:
            getattr(self, f"_int_{name}")[...] += getattr(
                later, f"_int_{name}"
            )
        self._events += later._events
        self._last_time = later._last_time.copy()
        self._merge_values(later)

    @classmethod
    def concat(cls, accumulators: list) -> "_TapAccumulator":
        """Join row-disjoint accumulators (fused mega-batch slices)
        into one covering their concatenated row axes."""
        if not accumulators:
            raise ValueError("need at least one accumulator")
        first = accumulators[0]
        xp = first._backend.xp
        out = cls.__new__(cls)
        out._weights = first._weights
        out._backend = first._backend
        out._rows = sum(acc.rows for acc in accumulators)
        for field in ("_last_time", "_start_time", "_events"):
            setattr(
                out,
                field,
                xp.concatenate(
                    [getattr(acc, field) for acc in accumulators]
                ),
            )
        for name in first._concat_fields():
            setattr(
                out,
                name,
                xp.concatenate(
                    [getattr(acc, name) for acc in accumulators]
                ),
            )
        return out

    # ------------------------------------------------------------------
    # State view

    def state_dict(self) -> dict:
        """All per-row arrays as plain host NumPy (pickle-free),
        whatever the compute backend."""
        bk = self._backend
        state = {
            "last_time": bk.to_numpy(self._last_time, copy=True),
            "start_time": bk.to_numpy(self._start_time, copy=True),
            "events": bk.to_numpy(self._events, copy=True),
        }
        for name in self._concat_fields():
            state[name.lstrip("_")] = bk.to_numpy(
                getattr(self, name), copy=True
            )
        return state

    # Subclass hooks -----------------------------------------------------

    def _init_values(self, dark, light) -> None:
        raise NotImplementedError

    def _refresh(self, rows, dark, light) -> None:
        raise NotImplementedError

    def _merge_values(self, later: "_TapAccumulator") -> None:
        raise NotImplementedError

    def _concat_fields(self) -> list[str]:
        raise NotImplementedError


class StreamingPotentials(_TapAccumulator):
    """Streaming φ/ψ/σ² per engine row: exact time-weighted integrals
    plus running max/min and the current values, in O(B) memory.

    Args:
        weights: Weight spec — a shared
            :class:`~repro.core.weights.WeightTable`, a ``(k,)`` array,
            a padded ``(B, k_max)`` matrix, or a callable returning
            one of the array forms (re-evaluated every refresh, so
            growing tables stay in sync).
        backend: Array backend holding the per-row state (name,
            resolved backend, or None for the engine default).
    """

    _value_fields = ("phi", "psi", "sigma")

    def _init_values(self, dark, light) -> None:
        phi, psi, sigma = potential_values(
            dark, light, self._weights, xp=self._backend.xp
        )
        self._cur_phi = phi
        self._cur_psi = psi
        self._cur_sigma = sigma
        self._max_phi = phi.copy()
        self._max_psi = psi.copy()
        self._max_sigma = sigma.copy()
        self._min_phi = phi.copy()
        self._min_psi = psi.copy()
        self._min_sigma = sigma.copy()

    def _refresh(self, rows, dark, light) -> None:
        xp = self._backend.xp
        phi, psi, sigma = potential_values(
            dark, light, self._weights_for(rows), xp=xp
        )
        for name, values in (
            ("phi", phi), ("psi", psi), ("sigma", sigma)
        ):
            getattr(self, f"_cur_{name}")[rows] = values
            hi = getattr(self, f"_max_{name}")
            hi[rows] = xp.maximum(hi[rows], values)
            lo = getattr(self, f"_min_{name}")
            lo[rows] = xp.minimum(lo[rows], values)

    def _merge_values(self, later: "StreamingPotentials") -> None:
        xp = self._backend.xp
        for name in self._value_fields:
            getattr(self, f"_cur_{name}")[...] = getattr(
                later, f"_cur_{name}"
            )
            xp.maximum(
                getattr(self, f"_max_{name}"),
                getattr(later, f"_max_{name}"),
                out=getattr(self, f"_max_{name}"),
            )
            xp.minimum(
                getattr(self, f"_min_{name}"),
                getattr(later, f"_min_{name}"),
                out=getattr(self, f"_min_{name}"),
            )

    def _concat_fields(self) -> list[str]:
        return [
            f"_{kind}_{name}"
            for name in self._value_fields
            for kind in ("cur", "int", "max", "min")
        ]

    def summary(self) -> dict:
        """Per-row results: time-averaged, max, min and final value of
        each potential, plus event counts and durations."""
        xp = self._backend.xp
        spans = self.durations()
        safe = xp.where(spans > 0, spans, 1.0)
        out = {"events": self.events(), "duration": spans}
        for name in self._value_fields:
            out[f"mean_{name}"] = getattr(self, f"_int_{name}") / safe
            out[f"max_{name}"] = getattr(self, f"_max_{name}").copy()
            out[f"min_{name}"] = getattr(self, f"_min_{name}").copy()
            out[f"final_{name}"] = getattr(self, f"_cur_{name}").copy()
            out[f"integral_{name}"] = getattr(self, f"_int_{name}").copy()
        return out


class StreamingShares(_TapAccumulator):
    """Streaming fairness occupancy per engine row: the exact
    time-weighted integral of the max share error
    ``max_i |C_i/n − w_i/w|`` (and its running max), plus per-colour
    share occupancy ``∫ C_i/n dt`` — the count-level analogue of the
    agent-level :class:`~repro.engine.observers.OccupancyTracker`."""

    _value_fields = ("error",)

    def _init_values(self, dark, light) -> None:
        xp = self._backend.xp
        shares, error = share_values(
            dark, light, self._weights, xp=xp
        )
        self._cur_error = error
        self._max_error = error.copy()
        self._cur_shares = shares
        self._int_shares = xp.zeros(shares.shape, dtype=FLOAT64)

    def reset(self, times, dark, light) -> None:
        super().reset(times, dark, light)

    def update(self, rows, times, dark, light) -> None:
        xp = self._backend.xp
        rows = xp.asarray(rows, dtype=INT64)
        times_f = xp.asarray(times, dtype=FLOAT64)
        dt = times_f - self._last_time[rows]
        self._int_shares[rows] += dt[:, None] * self._cur_shares[rows]
        super().update(rows, times, dark, light)

    def sync(self, times) -> None:
        xp = self._backend.xp
        times_f = xp.asarray(times, dtype=FLOAT64)
        dt = times_f - self._last_time
        self._int_shares += dt[:, None] * self._cur_shares
        super().sync(times)

    def _refresh(self, rows, dark, light) -> None:
        xp = self._backend.xp
        shares, error = share_values(
            dark, light, self._weights_for(rows), xp=xp
        )
        if shares.shape[1] > self._cur_shares.shape[1]:
            grow = shares.shape[1] - self._cur_shares.shape[1]
            pad = xp.zeros((self.rows, grow), dtype=FLOAT64)
            self._cur_shares = xp.concatenate(
                [self._cur_shares, pad], axis=1
            )
            self._int_shares = xp.concatenate(
                [self._int_shares, pad.copy()], axis=1
            )
        self._cur_shares[xp.ix_(rows, range(shares.shape[1]))] = shares
        self._cur_error[rows] = error
        self._max_error[rows] = xp.maximum(self._max_error[rows], error)

    def _merge_values(self, later: "StreamingShares") -> None:
        xp = self._backend.xp
        if later._int_shares.shape[1] > self._int_shares.shape[1]:
            grow = later._int_shares.shape[1] - self._int_shares.shape[1]
            pad = xp.zeros((self.rows, grow), dtype=FLOAT64)
            self._int_shares = xp.concatenate(
                [self._int_shares, pad], axis=1
            )
        width = later._int_shares.shape[1]
        self._int_shares[:, :width] += later._int_shares
        self._cur_shares = later._cur_shares.copy()
        self._cur_error[...] = later._cur_error
        xp.maximum(
            self._max_error, later._max_error, out=self._max_error
        )

    def _concat_fields(self) -> list[str]:
        return [
            "_cur_error", "_int_error", "_max_error",
            "_cur_shares", "_int_shares",
        ]

    def summary(self) -> dict:
        """Per-row results: time-averaged and max share error, plus
        time-averaged colour occupancy fractions ``(B, k)``."""
        xp = self._backend.xp
        spans = self.durations()
        safe = xp.where(spans > 0, spans, 1.0)
        return {
            "events": self.events(),
            "duration": spans,
            "mean_error": self._int_error / safe,
            "max_error": self._max_error.copy(),
            "final_error": self._cur_error.copy(),
            "occupancy": self._int_shares / safe[:, None],
        }


class RunningMoments:
    """Welford-style streaming moments of per-row scalar series.

    Tracks count, mean, variance (via the M2 sum of squared
    deviations), min and max for ``rows`` parallel series in O(rows)
    memory, with the numerically stable one-pass update and the exact
    pairwise merge rule — the concentration-stat primitive for
    long-horizon runs.
    """

    def __init__(self, rows: int, *, backend: str | Backend | None = None):
        if rows < 1:
            raise ValueError("need at least one row")
        self._backend = _resolve_loop_backend(backend)
        xp = self._backend.xp
        self._count = xp.zeros(rows, dtype=INT64)
        self._mean = xp.zeros(rows, dtype=FLOAT64)
        self._m2 = xp.zeros(rows, dtype=FLOAT64)
        self._min = xp.full(rows, xp.inf, dtype=FLOAT64)
        self._max = xp.full(rows, -xp.inf, dtype=FLOAT64)

    @property
    def rows(self) -> int:
        return self._count.shape[0]

    @property
    def backend(self) -> Backend:
        """The resolved array backend holding the per-row state."""
        return self._backend

    def add(self, values, rows=None) -> None:
        """Fold one observation per (selected) row into the moments."""
        xp = self._backend.xp
        values = xp.asarray(values, dtype=FLOAT64)
        if rows is None:
            rows = xp.arange(self.rows)
        else:
            rows = xp.asarray(rows, dtype=INT64)
        self._count[rows] += 1
        delta = values - self._mean[rows]
        self._mean[rows] += delta / self._count[rows]
        self._m2[rows] += delta * (values - self._mean[rows])
        self._min[rows] = xp.minimum(self._min[rows], values)
        self._max[rows] = xp.maximum(self._max[rows], values)

    def merge(self, other: "RunningMoments") -> None:
        """Fold another segment's moments in (Chan's parallel rule)."""
        xp = self._backend.xp
        if other.rows != self.rows:
            raise ValueError("row counts disagree")
        total = self._count + other._count
        seen = total > 0
        delta = other._mean - self._mean
        weight = xp.divide(
            other._count,
            total,
            out=xp.zeros(self.rows, dtype=FLOAT64),
            where=seen,
        )
        self._mean += delta * weight
        self._m2 += other._m2 + delta * delta * (
            self._count * weight
        )
        self._count = total
        xp.minimum(self._min, other._min, out=self._min)
        xp.maximum(self._max, other._max, out=self._max)

    def count(self):
        return self._count.copy()

    def mean(self):
        return self._mean.copy()

    def variance(self):
        """Population variance (0 for rows with fewer than 2 values)."""
        xp = self._backend.xp
        return xp.divide(
            self._m2,
            self._count,
            out=xp.zeros(self.rows, dtype=FLOAT64),
            where=self._count > 0,
        )

    def std(self):
        return self._backend.xp.sqrt(self.variance())

    def minimum(self):
        return self._min.copy()

    def maximum(self):
        return self._max.copy()


class PotentialTrajectory:
    """Materialising tap with the same interface as
    :class:`StreamingPotentials` — records every ``(time, φ, ψ, σ²)``
    sample so tests can reduce the explicit trajectory sequentially
    and compare against the streaming integrals *exactly*.  O(events)
    memory; test/reference use only (host-resident).
    """

    def __init__(self, weights):
        self._weights = weights
        self._start = None
        self._initial = None
        # Event log: ("update", rows, times, values) per applied event
        # and ("sync", times) per horizon — syncs are recorded so the
        # replay splits each integral into the same float additions as
        # the streaming accumulator (one add per update AND per sync).
        self._log: list[tuple] = []

    def reset(self, times, dark, light) -> None:
        self._start = np.asarray(times, dtype=FLOAT64).copy()
        self._initial = potential_values(dark, light, self._weights)
        self._log = []

    def _weights_for(self, rows):
        # Same per-row weight-matrix slicing rule as _TapAccumulator.
        weights = self._weights
        if callable(weights) and not isinstance(weights, WeightTable):
            weights = weights()
        if isinstance(weights, WeightTable):
            return weights
        w = np.asarray(weights, dtype=FLOAT64)
        if w.ndim == 2 and w.shape[0] == self._start.shape[0]:
            return w[rows]
        return w

    def update(self, rows, times, dark, light) -> None:
        rows = np.asarray(rows, dtype=INT64).copy()
        self._log.append((
            "update",
            rows,
            np.asarray(times, dtype=FLOAT64).copy(),
            potential_values(dark, light, self._weights_for(rows)),
        ))

    def sync(self, times) -> None:
        self._log.append(
            ("sync", np.asarray(times, dtype=FLOAT64).copy())
        )

    def integrals(self) -> dict:
        """Sequential ``Σ dt·value`` reduction over the recorded
        trajectory, replaying updates *and* horizon syncs so every
        float addition matches the streaming accumulator's exactly."""
        rows = self._start.shape[0]
        names = ("phi", "psi", "sigma")
        last_time = self._start.copy()
        current = {
            name: self._initial[i].copy() for i, name in enumerate(names)
        }
        integral = {
            name: np.zeros(rows, dtype=FLOAT64) for name in names
        }
        for entry in self._log:
            if entry[0] == "update":
                _, sel, times, values = entry
                dt = times - last_time[sel]
                for i, name in enumerate(names):
                    integral[name][sel] += dt * current[name][sel]
                    current[name][sel] = values[i]
                last_time[sel] = times
            else:
                _, times = entry
                dt = times - last_time
                for name in names:
                    integral[name] += dt * current[name]
                last_time = times.copy()
        return integral
