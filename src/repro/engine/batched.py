"""Batched aggregate simulator: R independent replications of one
configuration, as R identical rows of the row-batched engine.

Every experiment in the E1-E12 suite repeats the same chain tens of
times; running those replications one-by-one through the scalar
:class:`~repro.engine.aggregate.AggregateSimulation` pays the Python
interpreter overhead R times over.
:class:`BatchedAggregateSimulation` instead advances all R replications
through the single event loop of
:class:`~repro.engine.hetero.HeterogeneousAggregateBatch`, whose rows
here all carry the same weight table, lightening coins and population
size.  Stepping (per-step and event-driven), interventions and
``snapshot()`` are inherited; built from the same seed, the
two engines produce the same trajectory bit for bit
(``tests/property/test_hetero_invariants.py``).

What this subclass adds is what one *shared* weight table needs: 1-D
initial counts broadcast over ``replications``, one lighten vector for
every row, the homogeneous read-outs (``n``, ``k``, ``replications``,
``time`` and ``weights``), an :meth:`~BatchedAggregateSimulation.add_colour`
that also widens the shared :class:`~repro.core.weights.WeightTable`
(which E6/E7-style robustness sweeps record next to the counts).
Interventions apply to every replication, exactly what the scalar
per-replication loop does with a shared
:class:`~repro.adversary.schedule.InterventionSchedule`; the inherited
``rows=`` argument would make rows differ and is not meant for this
engine.  Snapshots are heterogeneous ``repro-ckpt/v1`` views.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.weights import WeightTable
from .aggregate import resolve_lighten_probabilities
from .hetero import HeterogeneousAggregateBatch


class BatchedAggregateSimulation(HeterogeneousAggregateBatch):
    """Count-based simulator of R replications of Diversification.

    Args:
        weights: Colour weight table shared by all replications (and
            widened in place by :meth:`add_colour`).
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
            makes runs split-invariant.
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
        rng: int | np.random.Generator | None = None,
        lighten_probabilities: Sequence[float] | None = None,
    ):
        k = weights.k
        dark = _as_matrix(dark_counts, replications, k, "dark_counts")
        replications = dark.shape[0]
        if light_counts is None:
            light = np.zeros(dark.shape, dtype=np.int64)
        else:
            light = _as_matrix(light_counts, replications, k, "light_counts")
        totals = dark.sum(axis=1) + light.sum(axis=1)
        if not (totals == totals[0]).all():
            raise ValueError(
                "all replications must share the same population size"
            )
        lighten = np.asarray(
            resolve_lighten_probabilities(weights, lighten_probabilities),
            dtype=np.float64,
        )
        self._table = weights
        self._init_rows(
            np.tile(weights.as_array(), (replications, 1)),
            np.full(replications, k, dtype=np.int64),
            dark,
            light,
            np.tile(lighten, (replications, 1)),
            rng,
        )

    @property
    def n(self) -> int:
        """Number of agents (identical across replications)."""
        return int(self._n[0])

    @property
    def k(self) -> int:
        """Number of colours."""
        return self._table.k

    @property
    def replications(self) -> int:
        """Number of replications R."""
        return self.rows

    @property
    def time(self) -> int:
        """Common time-step of all replications.

        Clocks decouple inside :meth:`run` but re-synchronise at every
        horizon; between calls they always agree.
        """
        return int(self._times.max(initial=0))

    @property
    def weights(self) -> WeightTable:
        """The weight table shared by all replications."""
        return self._table

    def add_colour(self, weight: float, count: int, dark: bool = True) -> int:
        """Introduce a brand-new colour with ``count`` supporters in
        every replication, widening the count matrices and the shared
        weight table; returns the new colour id.

        Sustainability requires new colours to arrive dark (Sec 1.2).
        """
        super().add_colour(weight, count, dark)
        return self._table.add_colour(weight)


def _as_matrix(counts, replications: int | None, k: int, name: str):
    """Initial counts as an ``(R, k)`` matrix: a ``(k,)`` vector is
    broadcast over ``replications``, an ``(R, k)`` matrix copied."""
    counts = np.asarray(counts, dtype=np.int64)
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
        return np.tile(counts, (replications, 1))
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
