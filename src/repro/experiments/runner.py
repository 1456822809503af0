"""High-level run helpers tying engines, workloads and recording
together.  These are the functions examples, benchmarks and the CLI
build on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..adversary.schedule import InterventionSchedule, run_with_interventions
from ..core.diversification import Diversification
from ..core.protocol import Protocol
from ..core.weights import WeightTable
from ..engine.aggregate import AggregateSimulation
from ..engine.array_engine import (
    ArraySimulation,
    has_kernel,
    supports_topology,
)
from ..engine.batched import BatchedAggregateSimulation
from ..engine.population import Population
from ..engine.rng import make_rng, spawn, spawn_sequences
from ..engine.simulator import Simulation
from .recorder import CountRecorder
from .workloads import (
    colours_from_counts,
    proportional_counts,
    random_counts,
    uniform_counts,
    worst_case_counts,
)

STARTS = ("worst", "uniform", "proportional", "random")
AGENT_ENGINES = ("auto", "scalar", "array")


def seed_streams(
    seed: int | np.random.Generator | None,
) -> tuple[np.random.Generator, np.random.Generator]:
    """Decorrelated ``(workload, engine)`` generators from one seed.

    A generator input passes through unchanged (one shared stream
    consumed sequentially — the documented seeding contract), but an
    integer or ``None`` seed is split into two independent child
    streams via :func:`~repro.engine.rng.spawn_sequences`.  Building
    ``default_rng(seed)`` twice instead would alias the streams: with
    ``start="random"`` the dynamics would replay the exact uniforms
    that drew the start configuration.
    """
    if isinstance(seed, np.random.Generator):
        return seed, seed
    workload, engine = spawn_sequences(seed, 2)
    return np.random.default_rng(workload), np.random.default_rng(engine)


def initial_counts(
    start: str,
    n: int,
    weights: WeightTable,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Dispatch a named workload to its per-colour counts."""
    if start == "worst":
        return worst_case_counts(n, weights.k)
    if start == "uniform":
        return uniform_counts(n, weights.k)
    if start == "proportional":
        return proportional_counts(n, weights)
    if start == "random":
        return random_counts(n, weights.k, rng)
    raise ValueError(f"unknown start {start!r}; choose from {STARTS}")


def initial_count_rows(
    start: str,
    n: int,
    weights: WeightTable,
    rng: np.random.Generator,
    replications: int,
) -> np.ndarray:
    """One ``(R, k)`` start matrix for fused replication engines.

    Matches the scalar per-replication loop's distribution:
    deterministic workloads yield identical rows, ``start="random"``
    is resampled per replication.
    """
    return np.stack(
        [
            initial_counts(start, n, weights, rng)
            for _ in range(replications)
        ]
    )


@dataclass
class RunRecord:
    """Recorded outcome of one simulation run."""

    n: int
    weights: WeightTable
    steps: int
    times: np.ndarray
    colour_counts: np.ndarray
    dark_counts: np.ndarray
    light_counts: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def final_colour_counts(self) -> np.ndarray:
        """Counts at the final recorded snapshot."""
        return self.colour_counts[-1]


@dataclass
class BatchRunRecord:
    """Final configurations of R replications of one run.

    ``final_dark_counts`` and ``final_light_counts`` have shape
    ``(R, k)``; one row per replication.
    """

    n: int
    weights: WeightTable
    steps: int
    replications: int
    batched: bool
    final_dark_counts: np.ndarray
    final_light_counts: np.ndarray

    @property
    def final_colour_counts(self) -> np.ndarray:
        """``C_i = A_i + a_i`` per replication, shape ``(R, k)``."""
        return self.final_dark_counts + self.final_light_counts

    @property
    def mean_colour_counts(self) -> np.ndarray:
        """Mean final colour counts across replications, shape ``(k,)``."""
        return self.final_colour_counts.mean(axis=0)


def run_aggregate(
    weights: WeightTable,
    n: int,
    steps: int,
    *,
    start: str = "worst",
    seed: int | np.random.Generator | None = None,
    record_interval: int | None = None,
    schedule: InterventionSchedule | None = None,
    lighten_probabilities=None,
    replications: int | None = None,
    batched: bool = True,
) -> RunRecord | BatchRunRecord:
    """Run the Diversification dynamics on the aggregate engine.

    All agents start dark (the paper's initial condition).  Snapshots
    are recorded every ``record_interval`` steps (default: ``steps/256``
    rounded up), and the record always ends with a snapshot at the
    requested horizon even when the interval does not divide ``steps``.

    With ``replications=R`` the run is repeated R times and a
    :class:`BatchRunRecord` of final configurations is returned instead
    of a time series.  When ``batched`` is set (the default) all R
    replications advance together inside one
    :class:`~repro.engine.batched.BatchedAggregateSimulation` —
    including under an intervention ``schedule``, which is applied
    batch-wide between event segments; ``batched=False`` loops over
    scalar engines with independent child seeds instead.
    """
    if replications is not None:
        return _run_aggregate_batch(
            weights, n, steps,
            replications=replications,
            start=start,
            seed=seed,
            schedule=schedule,
            lighten_probabilities=lighten_probabilities,
            batched=batched,
        )
    weights = weights.copy()  # keep the caller's table pristine
    workload_rng, engine_rng = seed_streams(seed)
    dark = initial_counts(start, n, weights, workload_rng)
    engine = AggregateSimulation(
        weights,
        dark_counts=dark,
        rng=engine_rng,
        lighten_probabilities=lighten_probabilities,
    )
    if record_interval is None:
        record_interval = max(1, steps // 256)
    recorder = CountRecorder(record_interval)
    run_with_interventions(engine, steps, schedule, recorder=recorder)
    return RunRecord(
        n=engine.n,
        weights=weights,
        steps=steps,
        times=recorder.times(),
        colour_counts=recorder.colour_counts(),
        dark_counts=recorder.dark_counts(),
        light_counts=recorder.light_counts(),
    )


def _run_aggregate_batch(
    weights: WeightTable,
    n: int,
    steps: int,
    *,
    replications: int,
    start: str,
    seed: int | np.random.Generator | None,
    schedule: InterventionSchedule | None,
    lighten_probabilities,
    batched: bool,
) -> BatchRunRecord:
    """R replications of an aggregate run; batched when possible."""
    if replications < 1:
        raise ValueError("need at least one replication")
    if batched:
        table = weights.copy()
        rng = make_rng(seed)
        dark0 = initial_count_rows(start, n, table, rng, replications)
        engine = BatchedAggregateSimulation(
            table,
            dark0,
            replications=replications,
            rng=rng,
            lighten_probabilities=lighten_probabilities,
        )
        # Interventions apply batch-wide between event segments; a
        # colour addition widens both the count matrix and ``table``,
        # so the recorded weights always match the count columns.
        run_with_interventions(engine, steps, schedule)
        return BatchRunRecord(
            n=engine.n,
            weights=table,
            steps=steps,
            replications=replications,
            batched=True,
            final_dark_counts=engine.dark_counts(),
            final_light_counts=engine.light_counts(),
        )
    # Scalar loop: each replication gets its own engine and weight
    # table (independent child seeds); final rows are zero-padded to
    # the widest colour set when a schedule adds colours.
    children = spawn(make_rng(seed), replications)
    records = [
        run_aggregate(
            weights, n, steps,
            start=start,
            seed=child,
            record_interval=max(1, steps),
            schedule=schedule,
            lighten_probabilities=lighten_probabilities,
        )
        for child in children
    ]
    k_max = max(record.dark_counts.shape[1] for record in records)
    dark = np.zeros((replications, k_max), dtype=np.int64)
    light = np.zeros((replications, k_max), dtype=np.int64)
    for row, record in enumerate(records):
        dark[row, : record.dark_counts.shape[1]] = record.dark_counts[-1]
        light[row, : record.light_counts.shape[1]] = record.light_counts[-1]
    # Record the *widened* weight table when a ColourAddition schedule
    # grew the colour set, so ``weights.k`` always matches the padded
    # count columns (every replication applies the same deterministic
    # schedule, so the widest per-run table is the consistent one).
    widened = max(records, key=lambda record: record.weights.k).weights
    if widened.k != k_max:
        raise RuntimeError(
            f"replication weight tables ended at k={widened.k} but count "
            f"rows were padded to {k_max} colours"
        )
    return BatchRunRecord(
        n=records[0].n,
        weights=widened.copy(),
        steps=steps,
        replications=replications,
        batched=False,
        final_dark_counts=dark,
        final_light_counts=light,
    )


def use_array_engine(
    protocol: Protocol,
    *,
    topology=None,
    engine: str = "auto",
) -> bool:
    """Resolve the agent-level engine choice for one run.

    ``engine="auto"`` picks the vectorised
    :class:`~repro.engine.array_engine.ArraySimulation` whenever the
    protocol has a kernel and the topology is complete or CSR-backed;
    anything else falls back to the scalar
    :class:`~repro.engine.Simulation`.  ``engine="array"`` forces the
    vectorised path (raising on unsupported runs), ``engine="scalar"``
    forces the fallback.  A schedule does not change the choice: both
    engines reject growth on an explicit topology other than the
    complete graph before any step samples the added agents.
    """
    if engine not in AGENT_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {AGENT_ENGINES}"
        )
    if engine == "scalar":
        return False
    if engine == "array":
        return True
    return has_kernel(protocol) and supports_topology(topology)


def run_agent(
    protocol: Protocol,
    weights: WeightTable,
    n: int,
    steps: int,
    *,
    start: str = "worst",
    seed: int | np.random.Generator | None = None,
    record_interval: int | None = None,
    topology=None,
    observers=(),
    schedule: InterventionSchedule | None = None,
    engine: str = "auto",
) -> RunRecord:
    """Run any protocol on the agent-level engine with recording.

    ``engine`` selects between the scalar per-step
    :class:`~repro.engine.Simulation` and the vectorised
    :class:`~repro.engine.ArraySimulation` (see :func:`use_array_engine`
    for the ``"auto"`` routing rule).  Both engines simulate the same
    per-step model; their trajectories agree in distribution but not
    draw-for-draw.

    Under an intervention ``schedule`` the protocol is deep-copied
    first, so a schedule that widens the weight table (colour addition)
    never mutates the caller's protocol — reusing one protocol instance
    across runs no longer compounds colours.  The record then carries
    the run's own (possibly widened) table.
    """
    workload_rng, engine_rng = seed_streams(seed)
    counts = initial_counts(start, n, weights, workload_rng)
    colours = colours_from_counts(counts)
    run_weights = weights
    if schedule is not None:
        protocol = copy.deepcopy(protocol)
        run_weights = getattr(protocol, "weights", weights)
    if use_array_engine(protocol, topology=topology, engine=engine):
        simulation = ArraySimulation(
            protocol,
            np.asarray(colours, dtype=np.int64),
            k=weights.k,
            topology=topology,
            rng=engine_rng,
            observers=list(observers),
        )
    else:
        population = Population.from_colours(
            colours, protocol, k=weights.k
        )
        simulation = Simulation(
            protocol,
            population,
            topology=topology,
            rng=engine_rng,
            observers=list(observers),
        )
    if record_interval is None:
        record_interval = max(1, steps // 256)
    recorder = CountRecorder(record_interval)
    run_with_interventions(simulation, steps, schedule, recorder=recorder)
    return RunRecord(
        n=simulation.population.n,
        weights=run_weights,
        steps=steps,
        times=recorder.times(),
        colour_counts=recorder.colour_counts(),
        dark_counts=recorder.dark_counts(),
        light_counts=recorder.light_counts(),
        extras={"simulation": simulation},
    )


def run_diversification_agent(
    weights: WeightTable,
    n: int,
    steps: int,
    **kwargs,
) -> RunRecord:
    """Agent-level run of the Diversification protocol itself."""
    weights = weights.copy()
    return run_agent(Diversification(weights), weights, n, steps, **kwargs)
