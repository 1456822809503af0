"""Experiment harness: workloads, recording, runners, the declarative
scenario pipeline and the paper-claim experiment suite (E1-E12 +
ablations).

The suite is organised as a registry of :class:`ExperimentDef` entries:
each experiment is a :class:`~repro.experiments.pipeline.ScenarioSpec`
builder plus the named parameter profiles it supports
(``quick``/``full``).  The CLI, the golden corpus and the tests run
every experiment the same way, ``execute(definition.spec(**profile))``,
through the sharded serial/parallel pipeline.
"""

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from .baselines_exp import (
    E10_PROFILES,
    E10B_PROFILES,
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
from .cache import ShardCache, shard_key, verify_cache
from .chain import E8_PROFILES, spec_markov_chain
from .convergence import (
    E1_PROFILES,
    E2_PROFILES,
    measure_convergence_time,
    measure_stabilised_error,
    spec_convergence_scaling,
    spec_diversity_error,
)
from .engines import E12_PROFILES, spec_engines
from .fairness import (
    E5_PROFILES,
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
    hitting_times,
    spec_phase1,
)
from .phases import (
    E3_PROFILES,
    E4_PROFILES,
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
from .topology_exp import E11_PROFILES, spec_topology
from .variants import (
    ABLATIONS_PROFILES,
    E9_PROFILES,
    E9B_PROFILES,
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
        spec: Scenario builder for the declarative pipeline (profile
            kwargs applied as keyword arguments).
        profiles: Named parameter presets; ``"full"`` is the paper
            configuration (no overrides), ``"quick"`` a fast pass.
    """

    name: str
    spec: Callable[..., ScenarioSpec]
    profiles: Mapping[str, Mapping] = field(default_factory=dict)

    @property
    def description(self) -> str:
        """First docstring line of the spec builder, if any."""
        doc = (self.spec.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""


REGISTRY: dict[str, ExperimentDef] = {
    definition.name: definition
    for definition in (
        ExperimentDef("e1", spec_convergence_scaling, E1_PROFILES),
        ExperimentDef("e2", spec_diversity_error, E2_PROFILES),
        ExperimentDef("e3", spec_potentials, E3_PROFILES),
        ExperimentDef("e3b", spec_phase1, E3B_PROFILES),
        ExperimentDef("e4", spec_equilibrium, E4_PROFILES),
        ExperimentDef("e5", spec_fairness, E5_PROFILES),
        ExperimentDef("e6", spec_sustainability, E6_PROFILES),
        ExperimentDef("e7", spec_adversary, E7_PROFILES),
        ExperimentDef("e8", spec_markov_chain, E8_PROFILES),
        ExperimentDef("e9", spec_derandomised, E9_PROFILES),
        ExperimentDef("e9b", spec_derandomised_scaling, E9B_PROFILES),
        ExperimentDef("e10", spec_baselines, E10_PROFILES),
        ExperimentDef("e10b", spec_epidemic, E10B_PROFILES),
        ExperimentDef("e11", spec_topology, E11_PROFILES),
        ExperimentDef("e12", spec_engines, E12_PROFILES),
        ExperimentDef("ablations", spec_ablations, ABLATIONS_PROFILES),
    )
}

__all__ = [
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
    "hitting_times",
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
    "spec_engines",
    "spec_ablations",
]
