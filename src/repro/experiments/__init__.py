"""Experiment harness: workloads, recording, runners, the declarative
scenario pipeline and the paper-claim experiment suite (E1-E12 +
ablations).

The suite is organised as a registry of :class:`ExperimentDef` entries:
each experiment exposes a legacy direct callable (``run``), the named
parameter profiles it supports (``quick``/``full``), and — for every
migrated experiment — a :class:`~repro.experiments.pipeline.ScenarioSpec`
builder so the CLI and benchmarks can execute it through the sharded
serial/parallel pipeline.
"""

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from .baselines_exp import (
    E10_PROFILES,
    E10B_PROFILES,
    experiment_baselines,
    experiment_epidemic,
    spec_baselines,
    spec_epidemic,
)
from .export import (
    load_plan,
    plan_table,
    plan_to_json,
    save_plan,
    save_table,
    table_to_csv,
    table_to_json,
)
from .replication import (
    Summary,
    is_aggregate_compatible,
    replicate,
    replicate_colour_counts,
    summarise,
)
from .cache import ShardCache, shard_key, spec_fingerprint, verify_cache
from .chain import E8_PROFILES, experiment_markov_chain, spec_markov_chain
from .convergence import (
    E1_PROFILES,
    E2_PROFILES,
    experiment_convergence_scaling,
    experiment_diversity_error,
    measure_convergence_time,
    measure_stabilised_error,
    spec_convergence_scaling,
    spec_diversity_error,
)
from .engines import E12_PROFILES, experiment_engines, paired_final_counts
from .fairness import (
    E5_PROFILES,
    experiment_fairness,
    run_fairness,
    spec_fairness,
)
from .faults import (
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    ShardOutcome,
)
from .fusion import (
    FusedExecutor,
    FusedMeasurement,
    FusedPlan,
    execute_fused,
    fuse,
    fused_implementation,
    fused_rng,
    measure_sweep_final_counts,
    register_fused,
    spec_fused_sweep,
)
from .phase1 import (
    E3B_PROFILES,
    experiment_phase1,
    hitting_times,
    spec_phase1,
)
from .phases import (
    E3_PROFILES,
    E4_PROFILES,
    experiment_equilibrium,
    experiment_potentials,
    potential_series,
    spec_equilibrium,
    spec_potentials,
)
from .pipeline import (
    ExperimentPlan,
    PlanResult,
    ProcessExecutor,
    ScenarioSpec,
    SerialExecutor,
    Shard,
    ShardError,
    ShardResult,
    execute,
    make_executor,
    plan,
)
from .recorder import CountRecorder
from .report import format_series, format_table, format_value
from .robustness import (
    E6_PROFILES,
    E7_PROFILES,
    experiment_adversary,
    experiment_sustainability,
    spec_adversary,
    spec_sustainability,
)
from .runner import (
    BatchRunRecord,
    RunRecord,
    initial_counts,
    run_agent,
    run_aggregate,
    run_diversification_agent,
)
from .table import ExperimentTable
from .topology_exp import E11_PROFILES, experiment_topology, spec_topology
from .variants import (
    ABLATIONS_PROFILES,
    E9_PROFILES,
    E9B_PROFILES,
    experiment_ablations,
    experiment_derandomised,
    experiment_derandomised_scaling,
    spec_ablations,
    spec_derandomised,
    spec_derandomised_scaling,
)
from .workloads import (
    colours_from_counts,
    equilibrium_split,
    proportional_counts,
    random_counts,
    uniform_counts,
    worst_case_counts,
)


@dataclass(frozen=True)
class ExperimentDef:
    """One registry entry of the experiment suite.

    Attributes:
        name: Registry id (``"e1"``, ``"ablations"``, ...).
        run: Direct callable returning the experiment's table (profile
            kwargs applied as keyword arguments).
        profiles: Named parameter presets; ``"full"`` is the paper
            configuration (no overrides), ``"quick"`` a fast pass.
        spec: Scenario builder for the declarative pipeline, or None
            for experiments that have not been migrated (they run only
            through ``run``).
    """

    name: str
    run: Callable[..., ExperimentTable]
    profiles: Mapping[str, Mapping] = field(default_factory=dict)
    spec: Callable[..., ScenarioSpec] | None = None

    @property
    def description(self) -> str:
        """First docstring line of the experiment callable, if any."""
        doc = (self.run.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""


REGISTRY: dict[str, ExperimentDef] = {
    definition.name: definition
    for definition in (
        ExperimentDef(
            "e1", experiment_convergence_scaling, E1_PROFILES,
            spec_convergence_scaling,
        ),
        ExperimentDef(
            "e2", experiment_diversity_error, E2_PROFILES,
            spec_diversity_error,
        ),
        ExperimentDef(
            "e3", experiment_potentials, E3_PROFILES, spec_potentials
        ),
        ExperimentDef("e3b", experiment_phase1, E3B_PROFILES, spec_phase1),
        ExperimentDef(
            "e4", experiment_equilibrium, E4_PROFILES, spec_equilibrium
        ),
        ExperimentDef("e5", experiment_fairness, E5_PROFILES, spec_fairness),
        ExperimentDef(
            "e6", experiment_sustainability, E6_PROFILES,
            spec_sustainability,
        ),
        ExperimentDef(
            "e7", experiment_adversary, E7_PROFILES, spec_adversary
        ),
        ExperimentDef(
            "e8", experiment_markov_chain, E8_PROFILES, spec_markov_chain
        ),
        ExperimentDef(
            "e9", experiment_derandomised, E9_PROFILES, spec_derandomised
        ),
        ExperimentDef(
            "e9b", experiment_derandomised_scaling, E9B_PROFILES,
            spec_derandomised_scaling,
        ),
        ExperimentDef(
            "e10", experiment_baselines, E10_PROFILES, spec_baselines
        ),
        ExperimentDef(
            "e10b", experiment_epidemic, E10B_PROFILES, spec_epidemic
        ),
        ExperimentDef(
            "e11", experiment_topology, E11_PROFILES, spec_topology
        ),
        # E12 validates engine pairs with interleaved seed streams and
        # in-process throughput timing — kept on the direct path.
        ExperimentDef("e12", experiment_engines, E12_PROFILES),
        ExperimentDef(
            "ablations", experiment_ablations, ABLATIONS_PROFILES,
            spec_ablations,
        ),
    )
}

# Back-compat view of the registry: name -> direct callable.
ALL_EXPERIMENTS = {
    name: definition.run for name, definition in REGISTRY.items()
}

__all__ = [
    "ALL_EXPERIMENTS",
    "REGISTRY",
    "ExperimentDef",
    "ExperimentTable",
    "CountRecorder",
    "RunRecord",
    "BatchRunRecord",
    "ScenarioSpec",
    "ExperimentPlan",
    "PlanResult",
    "Shard",
    "ShardResult",
    "ShardError",
    "SerialExecutor",
    "ProcessExecutor",
    "ShardCache",
    "shard_key",
    "spec_fingerprint",
    "verify_cache",
    "FaultPlan",
    "InjectedFault",
    "RetryPolicy",
    "ShardOutcome",
    "FusedExecutor",
    "FusedMeasurement",
    "FusedPlan",
    "make_executor",
    "plan",
    "execute",
    "execute_fused",
    "fuse",
    "fused_implementation",
    "fused_rng",
    "register_fused",
    "measure_sweep_final_counts",
    "spec_fused_sweep",
    "run_aggregate",
    "run_agent",
    "run_diversification_agent",
    "initial_counts",
    "worst_case_counts",
    "uniform_counts",
    "proportional_counts",
    "random_counts",
    "equilibrium_split",
    "colours_from_counts",
    "format_table",
    "format_series",
    "format_value",
    "measure_convergence_time",
    "measure_stabilised_error",
    "potential_series",
    "run_fairness",
    "paired_final_counts",
    "experiment_convergence_scaling",
    "experiment_diversity_error",
    "experiment_potentials",
    "experiment_phase1",
    "hitting_times",
    "experiment_equilibrium",
    "experiment_fairness",
    "experiment_sustainability",
    "experiment_adversary",
    "experiment_markov_chain",
    "experiment_derandomised",
    "experiment_derandomised_scaling",
    "experiment_baselines",
    "experiment_epidemic",
    "table_to_csv",
    "table_to_json",
    "save_table",
    "save_plan",
    "plan_to_json",
    "plan_table",
    "load_plan",
    "replicate",
    "summarise",
    "replicate_colour_counts",
    "is_aggregate_compatible",
    "Summary",
    "experiment_topology",
    "experiment_engines",
    "experiment_ablations",
    "spec_convergence_scaling",
    "spec_diversity_error",
    "spec_potentials",
    "spec_phase1",
    "spec_equilibrium",
    "spec_fairness",
    "spec_sustainability",
    "spec_adversary",
    "spec_markov_chain",
    "spec_derandomised",
    "spec_derandomised_scaling",
    "spec_baselines",
    "spec_epidemic",
    "spec_topology",
    "spec_ablations",
]
