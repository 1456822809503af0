"""Declarative experiment pipeline: scenario grids, sharded plans and
pluggable executors.

A :class:`ScenarioSpec` describes an experiment as data — a parameter
grid (the sweep axes), fixed parameters, a replication count, a seeding
rule and a pure measurement function — instead of a hand-rolled nested
loop.  :func:`plan` expands the spec into independent :class:`Shard`\\ s
(one per grid cell and replication) with deterministic per-shard seeds,
and :func:`execute` runs the shards through a serial or multiprocess
executor and merges the results *by shard index*, so serial and
parallel runs of the same spec and base seed are bit-identical.

Measurement functions must be module-level callables (picklable by
reference for the process pool) with signature
``measure(params: dict, rng: numpy.random.Generator) -> dict`` and must
return JSON-able dicts; anything an experiment needs that is not a
plain parameter (protocol objects, topologies) is constructed inside
the measurement from the shard's parameters.

Seed scopes
-----------

The per-shard seeds mirror the three seeding idioms of the legacy
experiment loops, so migrated experiments keep their exact tables:

``"stream"``
    All shards draw consecutive children of ``base_seed`` in plan
    order — reproduces ``rng = make_rng(base); spawn(rng, R)`` called
    once per cell on a shared generator.
``"cell"``
    Each cell's replications draw children of ``cell_seed(params)`` —
    reproduces ``spawn(make_rng(base + n), R)`` per sweep point.
``"direct"``
    Single-replication cells seeded with ``cell_seed(params)`` itself —
    reproduces passing a raw integer seed straight to a run helper.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..engine.rng import spawn_sequences
from .faults import (
    NO_RETRY,
    FaultPlan,
    RetryPolicy,
    ShardOutcome,
    WorkerFailure,
    run_pool_shards,
    run_serial_shards,
)
from .table import ExperimentTable

SEED_SCOPES = ("stream", "cell", "direct")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: a parameter grid plus a measurement.

    Attributes:
        name: Registry id of the experiment (``"e1"``, ``"e9b"``, ...).
        measure: Module-level measurement ``(params, rng) -> dict``.
        grid: Ordered sweep axes; cells are the cartesian product of
            the axis values (axis order = nesting order of the legacy
            loops, outermost first).  An empty grid means one cell.
        fixed: Parameters shared by every cell.
        replications: Independent repetitions per cell.
        base_seed: Root seed of the plan (``"stream"`` scope) and the
            value recorded in artifacts.
        seed_scope: One of :data:`SEED_SCOPES`; see the module docs.
        cell_seed: Maps cell params to the cell's seed (``"cell"`` and
            ``"direct"`` scopes); defaults to ``base_seed`` for every
            cell when omitted.
        build: Aggregates a :class:`PlanResult` into the experiment's
            :class:`~repro.experiments.table.ExperimentTable`.
        context: Extra JSON-able values the builder needs that are not
            shard parameters (e.g. thresholds applied per table row).
    """

    name: str
    measure: Callable[[dict, np.random.Generator], dict]
    grid: Mapping[str, Sequence] = field(default_factory=dict)
    fixed: Mapping = field(default_factory=dict)
    replications: int = 1
    base_seed: int | None = 0
    seed_scope: str = "stream"
    cell_seed: Callable[[dict], int] | None = None
    build: Callable[["PlanResult"], ExperimentTable] | None = None
    context: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.seed_scope not in SEED_SCOPES:
            raise ValueError(
                f"unknown seed_scope {self.seed_scope!r}; "
                f"choose from {SEED_SCOPES}"
            )
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.seed_scope == "direct" and self.replications != 1:
            raise ValueError(
                "seed_scope='direct' seeds one run per cell; use "
                "'cell' or 'stream' for replicated cells"
            )

    def cell_params(self) -> list[dict]:
        """Expand the grid into per-cell parameter dicts, in plan order."""
        axes = list(self.grid)
        combos = itertools.product(
            *(tuple(self.grid[axis]) for axis in axes)
        )
        return [
            dict(self.fixed) | dict(zip(axes, combo)) for combo in combos
        ]


@dataclass(frozen=True)
class Shard:
    """One independent unit of work: a cell × replication with its seed."""

    index: int
    cell: int
    replication: int
    params: dict
    seed: np.random.SeedSequence


@dataclass(frozen=True)
class ExperimentPlan:
    """A spec expanded into shards with deterministic seeds."""

    spec: ScenarioSpec
    cells: list[dict]
    shards: list[Shard]


def plan(spec: ScenarioSpec) -> ExperimentPlan:
    """Expand ``spec`` into an executable plan.

    Shard seeds depend only on ``(spec, shard index)`` — never on which
    executor runs the shard or in what order — which is what makes
    serial and parallel execution bit-identical.
    """
    cells = spec.cell_params()
    shards: list[Shard] = []
    if spec.seed_scope == "stream":
        stream = spawn_sequences(
            spec.base_seed, len(cells) * spec.replications
        )
    for cell_index, params in enumerate(cells):
        if spec.seed_scope in ("cell", "direct"):
            cell_seed = (
                spec.cell_seed(params)
                if spec.cell_seed is not None
                else spec.base_seed
            )
        if spec.seed_scope == "cell":
            seeds = spawn_sequences(cell_seed, spec.replications)
        elif spec.seed_scope == "direct":
            seeds = [np.random.SeedSequence(cell_seed)]
        else:
            offset = cell_index * spec.replications
            seeds = stream[offset : offset + spec.replications]
        for replication, seed in enumerate(seeds):
            shards.append(
                Shard(
                    index=len(shards),
                    cell=cell_index,
                    replication=replication,
                    params=params,
                    seed=seed,
                )
            )
    return ExperimentPlan(spec=spec, cells=cells, shards=shards)


@dataclass(frozen=True)
class ShardResult:
    """Outcome of one shard: its measurement value and wall-clock."""

    shard: Shard
    value: dict
    seconds: float


@dataclass
class PlanResult:
    """Merged outcome of an executed plan, in shard order."""

    spec: ScenarioSpec
    cells: list[dict]
    results: list[ShardResult]
    jobs: int
    elapsed_seconds: float
    #: Per-run hit/miss counters when a shard cache was consulted
    #: (``{"enabled", "hits", "misses", "dir"}``); None otherwise.
    cache_stats: dict | None = None
    #: Fault-tolerance record of the run (retry policy, per-shard
    #: attempts/errors, degraded fused groups, permanently failed
    #: shards and their requeue entries); None when the run used the
    #: legacy fail-fast contract with no policy or injection attached.
    fault_report: dict | None = None

    def failed_indices(self) -> list[int]:
        """Indices of permanently failed shards (empty on full runs)."""
        if self.fault_report is None:
            return []
        return list(self.fault_report.get("failed", []))

    def values(self) -> list[dict]:
        """Measurement values in shard order."""
        return [result.value for result in self.results]

    def by_cell(self) -> list[tuple[dict, list[dict]]]:
        """``(cell params, [values in replication order])`` per cell."""
        grouped: list[list[dict]] = [[] for _ in self.cells]
        for result in self.results:
            grouped[result.shard.cell].append(result.value)
        return [
            (dict(params), values)
            for params, values in zip(self.cells, grouped)
        ]

    def table(self) -> ExperimentTable:
        """Aggregate the results through the spec's table builder."""
        if self.spec.build is None:
            raise ValueError(
                f"spec {self.spec.name!r} has no table builder"
            )
        return self.spec.build(self)


class ShardError(RuntimeError):
    """A shard failed; names the experiment and the shard parameters.

    The worker's original formatted traceback is preserved in the
    message and on ``traceback_text`` (and the exception's
    ``__cause__`` carries it as a
    :class:`~repro.experiments.faults.WorkerFailure`), so a pool
    failure is debuggable without re-running serially.  ``attempts``
    records how many tries the retry policy spent on the shard.
    """

    def __init__(
        self, experiment: str, shard: Shard, detail: str, *,
        attempts: int = 1,
    ):
        self.experiment = experiment
        self.params = dict(shard.params)
        self.shard = shard
        self.attempts = int(attempts)
        self.traceback_text = detail
        suffix = f" after {attempts} attempts" if attempts > 1 else ""
        super().__init__(
            f"experiment {experiment!r} shard {shard.index} "
            f"(cell {shard.cell}, replication {shard.replication}, "
            f"params {self.params!r}) failed{suffix}:\n{detail}"
        )
        self.__cause__ = WorkerFailure(detail)

    @classmethod
    def from_outcome(
        cls, experiment: str, shard: Shard, outcome: ShardOutcome
    ) -> "ShardError":
        return cls(
            experiment, shard, outcome.error, attempts=outcome.attempts
        )


class SerialExecutor:
    """Run shards one after another in the calling process.

    With the default no-retry policy it stops at the first failed
    shard (like the legacy experiment loops); a
    :class:`~repro.experiments.faults.RetryPolicy` adds per-shard
    retries with backoff, and ``stop_on_failure=False`` (the
    ``max_failures`` path) keeps going past permanently failed shards.
    """

    jobs = 1

    def run_shards(
        self,
        measure,
        tasks: Sequence,
        policy: RetryPolicy | None = None,
        *,
        stop_on_failure: bool = True,
        on_success: Callable[[int, ShardOutcome], None] | None = None,
    ) -> list[ShardOutcome | None]:
        return run_serial_shards(
            measure, tasks, policy or NO_RETRY,
            stop_on_failure=stop_on_failure, on_success=on_success,
        )


class ProcessExecutor:
    """Run shards across ``jobs`` supervised worker processes.

    Dispatch is asynchronous (one in-flight task per worker) through
    :func:`repro.experiments.faults.run_pool_shards`: dead workers are
    detected and their in-flight shards requeued, hung shards are
    killed at the policy deadline, and failed attempts retry from the
    same ``(params, seed)`` task so results stay bit-identical to a
    clean run.  Outcomes are merged by task position, so the merge is
    order-independent of the completion schedule; with the default
    policy no new shards run once a failure is seen (in-flight work is
    abandoned), matching the serial executor.  The measurement
    callable travels once per worker, not once per shard: each shard
    ships only its slim ``(params, seed[, faults])`` task.
    """

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError("ProcessExecutor needs jobs >= 2")
        self.jobs = int(jobs)

    def run_shards(
        self,
        measure,
        tasks: Sequence,
        policy: RetryPolicy | None = None,
        *,
        stop_on_failure: bool = True,
        on_success: Callable[[int, ShardOutcome], None] | None = None,
    ) -> list[ShardOutcome | None]:
        return run_pool_shards(
            measure, tasks, self.jobs, policy or NO_RETRY,
            stop_on_failure=stop_on_failure, on_success=on_success,
        )


def make_executor(jobs: int | None):
    """``jobs`` <= 1 (or None) → serial; otherwise a process pool."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)


def shard_tasks(shards: Sequence[Shard], faults: FaultPlan | None) -> list:
    """Slim executor tasks: ``(params, seed)`` plus the shard's
    injected worker faults when a :class:`FaultPlan` is attached."""
    if faults is None:
        return [(shard.params, shard.seed) for shard in shards]
    return [
        (shard.params, shard.seed, faults.worker_faults(shard.index))
        for shard in shards
    ]


def requeue_entry(shard: Shard, outcome: ShardOutcome) -> dict:
    """Self-contained description of a failed shard, enough to requeue
    it in a later run (params + resolved seed, the same fields plan
    artifacts record)."""
    return {
        "index": shard.index,
        "cell": shard.cell,
        "replication": shard.replication,
        "params": dict(shard.params),
        "seed": {
            "entropy": shard.seed.entropy,
            "spawn_key": [int(key) for key in shard.seed.spawn_key],
        },
        "attempts": outcome.attempts,
        "error": outcome.error,
    }


def build_fault_report(
    expanded: ExperimentPlan,
    results: Sequence[ShardResult],
    pairs: Sequence[tuple[Shard, ShardOutcome | None]],
    *,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    max_failures: int | None = None,
    degraded_groups: Sequence[dict] = (),
) -> dict | None:
    """The ``PlanResult.fault_report`` payload, or None for a run with
    no retry policy, fault plan or failure budget.

    ``total`` counts every shard of the plan and ``completed`` every
    shard with a value in ``results``, cache hits and fused rows
    included, so the per-shard and fused paths count a plan alike.
    ``pairs`` are the ``(shard, outcome)`` pairs of the per-shard work:
    they give the attempt records (only shards that retried or failed)
    and the requeue entries of the permanent failures."""
    if retry is None and faults is None and max_failures is None:
        return None
    shards_section: dict[str, dict] = {}
    failed: list[int] = []
    requeue: list[dict] = []
    for shard, outcome in pairs:
        if outcome is None:
            continue
        if outcome.error is not None:
            failed.append(shard.index)
            requeue.append(requeue_entry(shard, outcome))
        if outcome.attempts > 1 or outcome.error is not None:
            shards_section[str(shard.index)] = {
                "attempts": outcome.attempts,
                "ok": outcome.error is None,
                "seconds": outcome.seconds,
                "errors": list(outcome.attempt_errors)
                + ([outcome.error] if outcome.error else []),
            }
    return {
        "policy": retry.to_payload() if retry is not None else None,
        "injected": faults.spec_text if faults is not None else None,
        "max_failures": max_failures,
        "total": len(expanded.shards),
        "completed": len(results),
        "failed": failed,
        "shards": shards_section,
        "degraded_groups": list(degraded_groups),
        "requeue": requeue,
    }


def put_shard(store, key: str, shard: Shard, value: dict,
              seconds: float, *, experiment: str,
              faults: FaultPlan | None = None):
    """Store one freshly computed shard value, through the fault plan's
    ``tear-cache`` injection when one is attached."""
    if faults is not None:
        return faults.cache_put(
            store, shard.index, key, value, seconds, experiment=experiment
        )
    return store.put(key, value, seconds, experiment=experiment)


def run_per_shard(
    spec: ScenarioSpec,
    shards: Sequence[Shard],
    executor,
    store=None,
    *,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    max_failures: int | None = None,
) -> tuple[list[ShardResult], list[tuple[Shard, ShardOutcome | None]], int]:
    """Run ``shards`` one by one, consulting the shard cache ``store``.

    With a store, each shard is looked up by its content address, only
    the misses run through ``executor``, and each miss is stored as
    soon as it succeeds — so an interrupted or failed run keeps every
    finished shard, and rerunning it computes only the rest.  Hit
    shards replay their stored value and original compute ``seconds``.

    Returns ``(results, pairs, hits)``: the hit and successful shards'
    results in the given order, the ``(shard, outcome)`` pairs of the
    misses (every shard without a store; outcome None for a shard that
    never ran), and the number of cache hits.  Raises the first failed
    shard's :class:`ShardError` (in the given order) unless
    ``max_failures`` tolerates every failure.
    """
    hits: dict[int, dict] = {}
    to_run = list(shards)
    on_success = None
    if store is not None:
        from .cache import lookup_shards

        keys, hits, to_run = lookup_shards(store, spec, shards)

        def on_success(slot: int, outcome: ShardOutcome) -> None:
            shard = to_run[slot]
            put_shard(
                store, keys[shard.index], shard, outcome.value,
                outcome.seconds, experiment=spec.name, faults=faults,
            )

    outcomes = (
        executor.run_shards(
            spec.measure, shard_tasks(to_run, faults), retry,
            stop_on_failure=max_failures is None, on_success=on_success,
        )
        if to_run
        else []
    )
    pairs = list(zip(to_run, outcomes))
    failures = [
        (shard, outcome)
        for shard, outcome in pairs
        if outcome is not None and not outcome.ok
    ]
    if failures and (
        max_failures is None or len(failures) > int(max_failures)
    ):
        shard, outcome = failures[0]
        raise ShardError.from_outcome(spec.name, shard, outcome)
    done = {
        index: (entry["value"], entry["seconds"])
        for index, entry in hits.items()
    }
    for shard, outcome in pairs:
        if outcome is not None and outcome.ok:
            done[shard.index] = (outcome.value, outcome.seconds)
    results = [
        ShardResult(shard, *done[shard.index])
        for shard in shards
        if shard.index in done
    ]
    return results, pairs, len(hits)


def execute(
    spec_or_plan: ScenarioSpec | ExperimentPlan,
    *,
    jobs: int | None = None,
    fused: bool = False,
    cache=None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    max_failures: int | None = None,
) -> PlanResult:
    """Run a spec (or a pre-expanded plan) and merge the shard results.

    With ``fused=True`` the plan routes through the mega-batch fusion
    layer (:mod:`repro.experiments.fusion`): shards whose measurement
    has a registered fused implementation (E17's sweep measurement)
    advance together inside one vectorised engine (per-cell
    KS-equivalent to the per-shard path, not bit-identical — the rows
    share one draw stream), while the remaining fallback shards run
    per shard through ``jobs`` as usual.

    With ``cache`` set (a :class:`~repro.experiments.cache.ShardCache`
    or a directory path) every shard is looked up by its content
    address (:func:`~repro.experiments.cache.shard_key`) before
    computing; only the misses run, each fresh value is written back as
    soon as its shard succeeds, and the returned :class:`PlanResult`
    carries per-run hit/miss counts in ``cache_stats``.  Resuming an
    interrupted or failed run therefore means running it again with the
    same cache: the rerun computes only the shards that never finished.
    Hit shards replay bit-identically on the serial/process paths; on
    the fused path each mega-batch group runs only its miss rows
    (cached and fresh values are scattered back in shard order).

    Fault tolerance.  ``retry`` applies a
    :class:`~repro.experiments.faults.RetryPolicy` per shard (retried
    shards re-run from the same ``(params, seed)``, so recovered runs
    are bit-identical to clean ones); ``faults`` injects a
    :class:`~repro.experiments.faults.FaultPlan` for drills and tests;
    ``max_failures=N`` tolerates up to N permanently failed shards —
    the healthy shards complete, the result carries the partial values
    plus a ``fault_report`` naming the failures (with requeue entries),
    and only a budget overrun raises.  When any of the three is given
    the returned ``PlanResult.fault_report`` records the run's retry/
    failure/degradation history over the whole plan
    (:func:`build_fault_report`).

    Raises :class:`ShardError` for the lowest-index failed shard, with
    the experiment name, the shard's parameters and the worker's
    original traceback in the message.  On the fused path a mega-batch
    group fails as one engine call, so its :class:`ShardError` names
    the *group's first shard* and lists every member shard's params;
    fallback shards run after the mega-batch jobs, so their failure
    order follows job order, not shard index.
    """
    if fused:
        from .fusion import execute_fused

        return execute_fused(
            spec_or_plan, jobs=jobs, cache=cache,
            retry=retry, faults=faults, max_failures=max_failures,
        )
    if isinstance(spec_or_plan, ScenarioSpec):
        expanded = plan(spec_or_plan)
    else:
        expanded = spec_or_plan
    spec = expanded.spec
    executor = make_executor(jobs)
    store = None
    if cache is not None:
        from .cache import resolve_cache

        store = resolve_cache(cache)
    start = time.perf_counter()
    results, pairs, hits = run_per_shard(
        spec, expanded.shards, executor, store,
        retry=retry, faults=faults, max_failures=max_failures,
    )
    elapsed = time.perf_counter() - start
    cache_stats = None
    if store is not None:
        cache_stats = {
            "enabled": True,
            "hits": hits,
            "misses": len(pairs),
            "dir": str(store.directory),
        }
    return PlanResult(
        spec=spec,
        cells=expanded.cells,
        results=results,
        jobs=executor.jobs,
        elapsed_seconds=elapsed,
        cache_stats=cache_stats,
        fault_report=build_fault_report(
            expanded, results, pairs,
            retry=retry, faults=faults, max_failures=max_failures,
        ),
    )
