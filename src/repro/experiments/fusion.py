"""Mega-batch fusion layer: run whole scenario sweeps as one engine.

The declarative pipeline executes one shard (grid cell × replication)
at a time — each shard pays its own engine construction and its own
Python-level event loop.  This module fuses *compatible* shards of an
:class:`~repro.experiments.pipeline.ExperimentPlan` into mega-batch
jobs that advance together inside a single vectorised engine:

* aggregate-family measurements pack one
  :class:`~repro.engine.hetero.HeterogeneousAggregateBatch` row per
  shard (per-row weight tables, populations and horizons), so an entire
  weight-skew × k × n sweep runs through one event loop;
* agent-level Diversification measurements pack one ``(R, n)``
  :class:`~repro.engine.array_engine.ArraySimulation` row per shard,
  with per-row lighten tables covering per-row weight vectors.

A measurement opts in by registering a :class:`FusedMeasurement`
(:func:`register_fused`); :func:`fuse` groups a plan's shards by the
implementation's ``group_key`` (the engine-family compatibility key),
and :class:`FusedExecutor` runs each group as one job — shards whose
measurement has no fused implementation, or whose parameters are
incompatible (``group_key`` returns None), fall back to the ordinary
per-shard path inside the same run.  Results are scattered back to
shard order, so :func:`execute_fused` returns the same
:class:`~repro.experiments.pipeline.PlanResult` shape as
:func:`~repro.experiments.pipeline.execute`.

Seeding.  A fused group shares one vectorised draw stream, so fused
results are *distribution*-equivalent to the per-shard path (verified
per cell with KS tests in
``tests/integration/test_fused_equivalence.py``), not bit-identical —
the same contract the batched replication engines established.  The
group's stream is derived deterministically from *all* participating
shard seeds (:func:`fused_rng`), and per-row workload draws (random
starts) still use each shard's own seed, so a fused run is reproducible
from the spec's ``base_seed`` alone.
"""

from __future__ import annotations

import time
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.weights import WeightTable
from ..engine.hetero import HeterogeneousAggregateBatch
from .faults import NO_RETRY, FaultPlan, InjectedFault, RetryPolicy
from .pipeline import (
    ExperimentPlan,
    PlanResult,
    ScenarioSpec,
    SerialExecutor,
    Shard,
    ShardError,
    ShardResult,
    build_fault_report,
    make_executor,
    plan as expand_plan,
    put_shard,
    run_per_shard,
)

__all__ = [
    "FusedMeasurement",
    "FusedJob",
    "FusedPlan",
    "FusedExecutor",
    "register_fused",
    "fused_implementation",
    "fuse",
    "fused_rng",
    "execute_fused",
    "hetero_batch",
    "run_recorded",
    "measure_sweep_final_counts",
    "spec_fused_sweep",
]


@dataclass(frozen=True)
class FusedMeasurement:
    """Fused (mega-batch) implementation of one measurement function.

    Attributes:
        family: Engine family label (``"aggregate"``, ``"array"``),
            shown in docs/plans and part of the grouping key.
        group_key: Maps shard params to a hashable compatibility key —
            shards with equal keys share one mega-batch job; ``None``
            sends the shard to the per-shard fallback path.
        run_group: ``(spec, shards) -> values`` running one group in a
            single fused engine, returning one measurement dict per
            shard *in the given order*.
    """

    family: str
    group_key: Callable[[dict], object]
    run_group: Callable[[ScenarioSpec, list[Shard]], list[dict]]


#: Measurement function -> fused implementation.
_FUSED: dict[Callable, FusedMeasurement] = {}


def register_fused(
    measure: Callable, impl: FusedMeasurement | None
) -> None:
    """Register the fused implementation of a measurement function
    (``None`` clears a registration)."""
    _FUSED[measure] = impl


def fused_implementation(measure: Callable) -> FusedMeasurement | None:
    """The registered fused implementation, or None."""
    return _FUSED.get(measure)


@dataclass(frozen=True)
class FusedJob:
    """One unit of fused execution: a mega-batch group (``impl`` set)
    or a single fallback shard (``impl`` None)."""

    impl: FusedMeasurement | None
    shards: tuple[Shard, ...]


@dataclass(frozen=True)
class FusedPlan:
    """An expanded plan regrouped into fused jobs (shard order is
    recovered at merge time through each shard's index)."""

    plan: ExperimentPlan
    jobs: tuple[FusedJob, ...]

    @property
    def fused_shards(self) -> int:
        """Number of shards riding a mega-batch job."""
        return sum(
            len(job.shards) for job in self.jobs if job.impl is not None
        )

    @property
    def fallback_shards(self) -> int:
        """Number of shards on the per-shard fallback path."""
        return sum(
            len(job.shards) for job in self.jobs if job.impl is None
        )


def fuse(expanded: ExperimentPlan) -> FusedPlan:
    """Group a plan's shards into mega-batch jobs.

    Shards are grouped by ``(measurement, group_key(params))`` — the
    measurement identifies the fused implementation and the key its
    engine-family compatibility class.  Grouping keeps plan order
    within each group, and fallback shards (no implementation, or an
    incompatible parameter combination) become single-shard jobs.
    """
    impl = _FUSED.get(expanded.spec.measure)
    groups: dict[object, list[Shard]] = {}
    fallback: list[Shard] = []
    for shard in expanded.shards:
        key = impl.group_key(dict(shard.params)) if impl else None
        if key is None:
            fallback.append(shard)
        else:
            groups.setdefault(key, []).append(shard)
    jobs = [
        FusedJob(impl=impl, shards=tuple(shards))
        for shards in groups.values()
    ] + [FusedJob(impl=None, shards=(shard,)) for shard in fallback]
    return FusedPlan(plan=expanded, jobs=tuple(jobs))


def fused_rng(shards: Sequence[Shard]) -> np.random.Generator:
    """One engine stream derived from *all* the group's shard seeds.

    Each shard contributes two words of its seed sequence's output
    (``generate_state`` is pure — the shard's own stream, used by the
    per-shard path and for per-row workload draws, is untouched); the
    pooled words seed the group generator, so the fused stream is a
    deterministic function of the spec's seeds and the group
    membership.
    """
    words = np.concatenate(
        [shard.seed.generate_state(2, dtype=np.uint32) for shard in shards]
    )
    entropy = [int(word) for word in words]
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def _group_members(shards: Sequence[Shard]) -> str:
    """One line per member shard of a mega-batch group, so a failed
    group is diagnosable without re-running serially."""
    return "\n".join(
        f"  shard {shard.index} (cell {shard.cell}, replication "
        f"{shard.replication}): params {dict(shard.params)!r}"
        for shard in shards
    )


class FusedExecutor:
    """Run a fused plan: mega-batch jobs through their fused engines,
    fallback shards through an ordinary shard executor (serial by
    default, a process pool when the caller asked for ``jobs``) — the
    fallback shards are exactly the independent per-shard work that
    benefits from parallelism.

    With a :class:`~repro.experiments.cache.ShardCache` each group is
    partitioned into hits and misses before its engine is built: only
    the miss rows run through the fused engine (the miss subset forms
    its own :func:`fused_rng` group stream — distribution-equivalent,
    the established fused contract), cached and fresh values are
    scattered back in shard order, and fresh values are written back
    under the group's ``fused:<family>`` key space once its engine call
    returns.  Fallback shards go through
    :func:`~repro.experiments.pipeline.run_per_shard`: they cache under
    the per-shard (``"shard"``) key space they share with the serial
    and process paths, each stored as soon as it succeeds.

    Timing semantics: a mega-batch job is one engine call, so its
    shards have no independent wall-clocks — each computed shard of
    the group records the engine call's elapsed time divided evenly
    across the rows that actually ran (an attribution, not a
    measurement; fallback shards keep real per-shard timings, cache
    hits report their stored original compute time).
    """

    def __init__(self, shard_executor=None, *, cache=None, retry=None,
                 faults=None, max_failures=None):
        self.shard_executor = shard_executor or SerialExecutor()
        self.cache = cache
        self.retry: RetryPolicy | None = retry
        self.faults: FaultPlan | None = faults
        self.max_failures = max_failures
        #: Per-run hit/miss counters of the last :meth:`run_plan` call
        #: (None when no cache is attached).
        self.cache_stats: dict | None = None
        #: ``(shard, ShardOutcome)`` pairs of the last run's per-shard
        #: (fallback + degraded) work, for the fault report.
        self.shard_pairs: list = []
        #: Mega-batch groups that exhausted their fused attempts and
        #: degraded to per-shard execution in the last run.
        self.degraded_groups: list[dict] = []

    @property
    def jobs(self) -> int:
        """Worker processes available to the fallback shards."""
        return self.shard_executor.jobs

    @property
    def _degrading(self) -> bool:
        """Graceful degradation is armed whenever any fault-tolerance
        knob (retry, fault injection, failure budget) is supplied."""
        return (
            self.retry is not None
            or self.faults is not None
            or self.max_failures is not None
        )

    def _run_group(self, spec, impl, to_run, keys, store, outcomes):
        """One mega-batch group: up to two fused attempts when
        degradation is armed, then surrender the members to the
        per-shard fallback path (returned) instead of raising."""
        policy = self.retry or NO_RETRY
        tries = 2 if self._degrading and policy.max_attempts >= 2 else 1
        detail = ""
        for attempt in range(1, tries + 1):
            start = time.perf_counter()
            try:
                if self.faults is not None:
                    injected = self.faults.group_fault(
                        [shard.index for shard in to_run], attempt
                    )
                    if injected is not None:
                        raise InjectedFault(injected)
                values = impl.run_group(spec, to_run)
            except Exception:
                detail = traceback.format_exc()
                continue
            elapsed = time.perf_counter() - start
            if len(values) != len(to_run):
                raise ShardError(
                    spec.name,
                    to_run[0],
                    f"fused implementation returned {len(values)} values "
                    f"for {len(to_run)} shards; group members:\n"
                    + _group_members(to_run),
                )
            # Even attribution of the engine call's wall-clock (see
            # the class docstring) across the rows that actually ran.
            per_shard = elapsed / len(to_run)
            for shard, value in zip(to_run, values):
                if store is not None:
                    put_shard(
                        store, keys[shard.index], shard, value,
                        per_shard, experiment=spec.name,
                        faults=self.faults,
                    )
                outcomes[shard.index] = (value, per_shard)
            return []
        if not self._degrading:
            # A mega-batch group fails as one engine call — there is
            # no single failing shard, so the error is attributed to
            # the group's first shard; every member shard's params are
            # listed for diagnosis.
            raise ShardError(
                spec.name,
                to_run[0],
                f"mega-batch group of {len(to_run)} shards failed "
                "as one engine call (error attributed to the "
                "group's first shard); group members:\n"
                + _group_members(to_run)
                + "\n"
                + detail,
            )
        self.degraded_groups.append(
            {
                "family": impl.family,
                "shards": [shard.index for shard in to_run],
                "fused_attempts": tries,
                "error": detail,
            }
        )
        return list(to_run)

    def run_plan(self, fused_plan: FusedPlan) -> list[tuple[dict, float]]:
        spec = fused_plan.plan.spec
        store = self.cache
        outcomes: list[tuple[dict, float] | None] = [None] * len(
            fused_plan.plan.shards
        )
        self.shard_pairs = []
        self.degraded_groups = []
        hits = misses = 0
        fallback: list[Shard] = []
        for job in fused_plan.jobs:
            if job.impl is None:
                fallback.extend(job.shards)
                continue
            members = list(job.shards)
            if store is not None:
                from .cache import lookup_shards

                keys, cached, to_run = lookup_shards(
                    store, spec, members,
                    mode=f"fused:{job.impl.family}",
                )
                for index, entry in cached.items():
                    outcomes[index] = (
                        entry["value"], float(entry["seconds"])
                    )
                hits += len(cached)
                misses += len(to_run)
            else:
                keys, to_run = {}, members
            if not to_run:
                continue
            fallback.extend(
                self._run_group(spec, job.impl, to_run, keys, store,
                                outcomes)
            )
        if fallback:
            # Degraded group members join the ordinary fallback shards
            # here and cache under the per-shard ("shard") key space.
            results, self.shard_pairs, fallback_hits = run_per_shard(
                spec, fallback, self.shard_executor, store,
                retry=self.retry, faults=self.faults,
                max_failures=self.max_failures,
            )
            for result in results:
                outcomes[result.shard.index] = (result.value, result.seconds)
            hits += fallback_hits
            misses += len(self.shard_pairs)
        if store is not None:
            self.cache_stats = {
                "enabled": True,
                "hits": hits,
                "misses": misses,
                "dir": str(store.directory),
            }
        else:
            self.cache_stats = None
        return outcomes


def execute_fused(
    spec_or_plan: ScenarioSpec | ExperimentPlan,
    *,
    jobs: int | None = None,
    executor=None,
    cache=None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    max_failures: int | None = None,
) -> PlanResult:
    """Fused counterpart of :func:`~repro.experiments.pipeline.execute`.

    Expands the spec, fuses compatible shards into mega-batch jobs and
    merges the results back into shard order.  Mega-batch jobs run
    in-process (each is one engine call); ``jobs``/``executor`` apply
    to the fallback shards, which are ordinary per-shard work.  With
    ``cache`` set (a :class:`~repro.experiments.cache.ShardCache` or a
    directory path) each group runs only its cache misses — an
    overlapping sweep computes only the new cells.  Usually reached
    through ``execute(..., fused=True)``.

    With any of ``retry``/``faults``/``max_failures`` set, graceful
    degradation is armed: a failed mega-batch group retries once fused
    (when the policy allows a second attempt) and then degrades to
    per-shard execution instead of killing the sweep, the degraded
    shards ride the ordinary fallback path (per-shard retry policy,
    per-shard cache key space), and the returned result carries a
    ``fault_report`` recording degradations, retries and failures.
    """
    if isinstance(spec_or_plan, ScenarioSpec):
        expanded = expand_plan(spec_or_plan)
    else:
        expanded = spec_or_plan
    fused_plan = fuse(expanded)
    if executor is None:
        executor = make_executor(jobs)
    if cache is not None:
        from .cache import resolve_cache

        cache = resolve_cache(cache)
    track_faults = (
        retry is not None or faults is not None or max_failures is not None
    )
    runner = FusedExecutor(
        executor, cache=cache, retry=retry, faults=faults,
        max_failures=max_failures,
    )
    start = time.perf_counter()
    outcomes = runner.run_plan(fused_plan)
    elapsed = time.perf_counter() - start
    results = [
        ShardResult(shard=shard, value=value, seconds=seconds)
        for shard, (value, seconds) in (
            (shard, outcome)
            for shard, outcome in zip(expanded.shards, outcomes)
            if outcome is not None
        )
    ]
    fault_report = None
    if track_faults:
        fault_report = build_fault_report(
            retry, faults, runner.shard_pairs,
            degraded_groups=runner.degraded_groups,
            max_failures=max_failures,
        )
        # Fused-computed shards never appear in shard_pairs; count them
        # into the totals so the report covers the whole plan.
        fused_ok = sum(
            1
            for shard, outcome in zip(expanded.shards, outcomes)
            if outcome is not None
        ) - sum(
            1
            for _, pair_outcome in runner.shard_pairs
            if pair_outcome.error is None
        )
        fault_report["total"] = len(expanded.shards)
        fault_report["completed"] += fused_ok
    return PlanResult(
        spec=expanded.spec,
        cells=expanded.cells,
        results=results,
        jobs=runner.jobs,
        elapsed_seconds=elapsed,
        cache_stats=runner.cache_stats,
        fault_report=fault_report,
    )


# ----------------------------------------------------------------------
# Aggregate-family helpers shared by the fused implementations


def hetero_batch(
    shards: Sequence[Shard], *, start: str = "worst"
) -> HeterogeneousAggregateBatch:
    """One heterogeneous engine row per shard.

    Each shard's params must carry ``vector`` (weight vector) and ``n``
    (population size); the start workload (shard param ``start``, else
    the keyword default) is materialised with the *shard's own* seed,
    so random starts match the per-shard path's distribution exactly.
    The engine stream pools all shard seeds (:func:`fused_rng`).
    """
    from .runner import initial_counts

    tables = [WeightTable(shard.params["vector"]) for shard in shards]
    darks = [
        initial_counts(
            shard.params.get("start", start),
            int(shard.params["n"]),
            table,
            np.random.default_rng(shard.seed),
        )
        for shard, table in zip(shards, tables)
    ]
    return HeterogeneousAggregateBatch(
        tables, darks, rng=fused_rng(shards)
    )


def run_recorded(
    engine: HeterogeneousAggregateBatch,
    steps: np.ndarray,
    intervals: np.ndarray,
) -> list[dict]:
    """Advance each row by its own ``steps[r]`` further time-steps,
    snapshotting its counts every ``intervals[r]`` of them.

    ``steps`` counts from each row's *current* clock, so the helper
    also works on a pre-advanced engine.  Mirrors
    :class:`~repro.experiments.recorder.CountRecorder` applied per row:
    a snapshot at the start, one at every whole interval, and an
    unconditional one at the final time (no duplicate when the
    interval divides it).  Returns one dict per row with ``times``
    (list of ints, absolute row clocks) and ``dark``/``light``
    ``(T_r, k_max)`` arrays.
    """
    rows = engine.rows
    steps = np.asarray(steps, dtype=np.int64)
    if (steps < 0).any():
        raise ValueError("steps must be non-negative")
    intervals = np.asarray(intervals, dtype=np.int64)
    if (intervals < 1).any():
        raise ValueError("intervals must be >= 1")
    origin = engine.times()
    horizons = origin + steps
    dark = engine.dark_counts()
    light = engine.light_counts()
    series = [
        {
            "times": [int(origin[r])],
            "dark": [dark[r]],
            "light": [light[r]],
        }
        for r in range(rows)
    ]
    multiple = np.ones(rows, dtype=np.int64)
    while True:
        times = engine.times()
        active = times < horizons
        if not active.any():
            break
        target = np.minimum(origin + multiple * intervals, horizons)
        target = np.where(active, np.maximum(target, times), times)
        engine.run_to(target)
        times = engine.times()
        dark = engine.dark_counts()
        light = engine.light_counts()
        for r in np.flatnonzero(active):
            series[r]["times"].append(int(times[r]))
            series[r]["dark"].append(dark[r])
            series[r]["light"].append(light[r])
        reached = active & (times == origin + multiple * intervals)
        multiple[reached] += 1
    for row in series:
        row["dark"] = np.asarray(row["dark"])
        row["light"] = np.asarray(row["light"])
    return series


# ----------------------------------------------------------------------
# The generic replicated-sweep measurement (benchmark/e17 workload)


def measure_sweep_final_counts(
    params: dict, rng: np.random.Generator
) -> dict:
    """One replication of one sweep cell: final colour counts after
    ``rounds * n`` steps of the aggregate Diversification dynamics."""
    from .runner import run_aggregate

    weights = WeightTable(params["vector"])
    n = int(params["n"])
    steps = int(params["rounds"]) * n
    record = run_aggregate(
        weights, n, steps,
        start=params.get("start", "worst"),
        seed=rng,
        record_interval=max(1, steps),
    )
    return {"counts": [int(c) for c in record.final_colour_counts]}


def _fused_sweep_final_counts(
    spec: ScenarioSpec, shards: list[Shard]
) -> list[dict]:
    """All sweep rows (cells × replications) in one heterogeneous
    engine: per-row weights, populations and horizons."""
    engine = hetero_batch(shards)
    steps = np.array(
        [
            int(shard.params["rounds"]) * int(shard.params["n"])
            for shard in shards
        ],
        dtype=np.int64,
    )
    engine.run(steps)
    counts = engine.colour_counts()
    ks = engine.ks()
    return [
        {"counts": [int(c) for c in counts[r, : ks[r]]]}
        for r in range(len(shards))
    ]


register_fused(
    measure_sweep_final_counts,
    FusedMeasurement(
        family="aggregate",
        group_key=lambda params: "aggregate",
        run_group=_fused_sweep_final_counts,
    ),
)


def spec_fused_sweep(
    weight_vectors=((1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0),
                    (1.0, 3.0, 9.0)),
    ns=(400, 450, 500, 550, 600, 640),
    *,
    rounds: int = 30,
    replications: int = 50,
    base_seed: int = 1717,
    start: str = "worst",
) -> ScenarioSpec:
    """A heterogeneous (weight skew × k × n) replicated sweep.

    The default grid is the E17 acceptance workload: 4 weight vectors ×
    6 population sizes = 24 cells × R replications, every cell with its
    own weights, colour count and horizon — the shape of the paper's
    phase-diagram tables.  Fused execution packs all ``24 R`` rows into
    one :class:`~repro.engine.hetero.HeterogeneousAggregateBatch`.
    """
    return ScenarioSpec(
        name="e17",
        measure=measure_sweep_final_counts,
        grid={
            "vector": tuple(tuple(v) for v in weight_vectors),
            "n": tuple(int(n) for n in ns),
        },
        fixed={"rounds": int(rounds), "start": start},
        replications=int(replications),
        base_seed=base_seed,
        seed_scope="stream",
    )
