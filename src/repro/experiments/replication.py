"""Replication helpers: run a measurement across independent seeds and
summarise it with confidence intervals.

Simulation papers report means over repetitions; this module provides
the boilerplate so experiments stay focused on their measurement.

:func:`replicate_colour_counts` is the routed entry point for the most
common measurement — final colour counts over R replications.  When the
run is *aggregate-compatible* (Diversification or its
``lighten_probabilities`` ablations on the complete graph), all R
replications are fused into one
:class:`~repro.engine.batched.BatchedAggregateSimulation` — including
under an intervention schedule, which is applied batch-wide between
event segments (so the E6/E7 adversarial sweeps share the batched fast
path).  Agent-level runs (explicit topologies, baseline dynamics) run
one engine per replication through
:func:`~repro.experiments.runner.run_agent`, which picks the array
engine for protocols with a vectorised kernel and the scalar one
otherwise.  On every path a schedule sees an independent copy of the
protocol's weight table per run, never the caller's.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.ablations import UnweightedLightening
from ..core.diversification import Diversification
from ..core.protocol import Protocol
from ..core.weights import WeightTable
from ..engine.rng import make_rng, spawn


@dataclass(frozen=True)
class Summary:
    """Mean with spread statistics for a replicated measurement."""

    mean: float
    std: float
    stderr: float
    ci_low: float
    ci_high: float
    count: int

    def as_row(self) -> list[float]:
        """Convenient [mean, std, ci_low, ci_high] for table rows."""
        return [self.mean, self.std, self.ci_low, self.ci_high]


def replicate(
    measurement: Callable[[np.random.Generator], float],
    repetitions: int,
    *,
    base_seed: int | np.random.Generator | None = 0,
    skip_none: bool = True,
) -> list[float]:
    """Run ``measurement`` once per independent child generator.

    Args:
        measurement: Callable taking a generator and returning a scalar
            (or None for "no result", dropped when ``skip_none``).
        repetitions: Number of independent runs.
        base_seed: Seed of the parent generator.
        skip_none: Drop None results instead of failing.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    children = spawn(make_rng(base_seed), repetitions)
    values = []
    for child in children:
        value = measurement(child)
        if value is None:
            if skip_none:
                continue
            raise ValueError("measurement returned None")
        values.append(float(value))
    return values


def summarise(
    values: Sequence[float], *, confidence: float = 0.95
) -> Summary:
    """Mean, deviation and a Student-t confidence interval."""
    # Imported here: scipy.stats takes most of a second to load, and
    # only this function needs it.
    from scipy import stats

    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    mean = float(data.mean())
    if data.size == 1:
        return Summary(mean, 0.0, 0.0, mean, mean, 1)
    std = float(data.std(ddof=1))
    stderr = std / float(np.sqrt(data.size))
    halfwidth = float(
        stats.t.ppf(0.5 + confidence / 2.0, df=data.size - 1) * stderr
    )
    return Summary(
        mean=mean,
        std=std,
        stderr=stderr,
        ci_low=mean - halfwidth,
        ci_high=mean + halfwidth,
        count=int(data.size),
    )


def is_aggregate_compatible(
    protocol: Protocol | None = None,
    *,
    topology=None,
    schedule=None,
) -> bool:
    """Whether R replications of a run can share the batched engine.

    The batched engine simulates the configuration chain of the
    Diversification family on the complete graph, so anything that
    needs agent identities (an explicit topology, a non-aggregate
    protocol) must use the scalar path.  Intervention schedules are
    accepted: the batched engine applies them batch-wide between event
    segments, so a ``schedule`` never forces the scalar loop here.
    ``protocol=None`` means plain Diversification.
    """
    del schedule  # any schedule is batched-compatible on this path
    if topology is not None:
        return False
    if protocol is None:
        return True
    return isinstance(protocol, (Diversification, UnweightedLightening))


def _aggregate_lighten_probabilities(
    protocol: Protocol | None, weights: WeightTable
) -> list[float] | None:
    """Per-colour lightening coins of an aggregate-compatible protocol
    (None means the default ``1/w_i``)."""
    if isinstance(protocol, UnweightedLightening):
        return [1.0] * weights.k
    return None


def replicate_colour_counts(
    weights: WeightTable,
    n: int,
    steps: int,
    *,
    replications: int,
    protocol: Protocol | None = None,
    topology=None,
    schedule=None,
    start: str = "worst",
    base_seed: int | np.random.Generator | None = 0,
    lighten_probabilities: Sequence[float] | None = None,
    engine: str = "auto",
) -> np.ndarray:
    """Final colour counts of R replications, shape ``(R, k)``.

    Routes through :class:`~repro.engine.batched.BatchedAggregateSimulation`
    when the run is aggregate-compatible — intervention schedules
    included, applied batch-wide.  Agent-level runs call
    :func:`~repro.experiments.runner.run_agent` once per replication,
    seeded by the replication's child generator from
    ``spawn(make_rng(base_seed), replications)``.  Rows are
    zero-padded to the widest colour set when an intervention schedule
    adds colours mid-run.  A schedule always mutates an independent
    copy of the protocol (one per run on the agent-level loop, one
    shared batch copy on the aggregate path), never the caller's
    instance.

    ``engine`` mirrors :func:`~repro.experiments.runner.run_agent`:
    ``"auto"`` applies the routing above, ``"scalar"``/``"array"``
    force the agent-level engines (skipping the aggregate fast path),
    e.g. to benchmark one engine in isolation.
    """
    from .recorder import _pad_stack
    from .runner import run_agent, run_aggregate

    if replications < 1:
        raise ValueError("need at least one replication")
    if engine == "auto" and is_aggregate_compatible(
        protocol, topology=topology, schedule=schedule
    ):
        # The whole aggregate family shares one routed path; with a
        # schedule the fused batched engine applies the interventions
        # batch-wide between event segments.
        batch = run_aggregate(
            weights, n, steps,
            start=start,
            seed=base_seed,
            schedule=schedule,
            lighten_probabilities=(
                lighten_probabilities
                if lighten_probabilities is not None
                else _aggregate_lighten_probabilities(protocol, weights)
            ),
            replications=replications,
        )
        return batch.final_colour_counts
    if lighten_probabilities is not None:
        # The override is only consumed by the aggregate engines; the
        # agent-level paths run the protocol's own transition rule.
        raise ValueError(
            "lighten_probabilities requires the aggregate path "
            "(engine='auto', no explicit topology or agent-level "
            "protocol); use UnweightedLightening for the unit-coin "
            "ablation on the agent engines"
        )
    # One engine per replication, independent child generators.
    # run_agent deep-copies the protocol under a schedule, so each
    # replication mutates its own weight table — a shared weighted
    # protocol never compounds colours across replications.
    children = spawn(make_rng(base_seed), replications)
    finals = []
    for child in children:
        record = run_agent(
            protocol or Diversification(weights.copy()), weights, n, steps,
            start=start,
            seed=child,
            record_interval=max(1, steps),
            topology=topology,
            schedule=schedule,
            engine=engine,
        )
        finals.append(record.final_colour_counts)
    return _pad_stack(finals)
