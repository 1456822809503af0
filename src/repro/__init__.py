"""repro — reproduction of *Diversity, Fairness, and Sustainability in
Population Protocols* (Kang, Mallmann-Trenn, Rivera; PODC 2021).

Quickstart::

    from repro import Diversification, WeightTable, run_aggregate

    weights = WeightTable([1.0, 2.0, 3.0])   # three tasks, skewed needs
    record = run_aggregate(weights, n=1000, steps=500_000)
    print(record.final_colour_counts)        # ≈ n·w_i/w per colour

Replicated runs vectorise across repetitions: ``replications=R`` fuses
R independent chains into one ``(R, 2k)`` NumPy state matrix (the
batched engine), which is how the experiment suite repeats a
measurement without paying the Python interpreter R times over::

    batch = run_aggregate(weights, n=1000, steps=500_000,
                          replications=100, batched=True)
    print(batch.final_colour_counts.shape)   # (100, 3), one row per run
    print(batch.mean_colour_counts)          # ≈ n·w_i/w per colour

*Agent-level* runs — the execution model the paper actually defines,
and the only one that supports explicit topologies and the baseline
dynamics — vectorise too: :func:`run_agent` routes protocols with a
registered transition kernel (Diversification, Voter, 3-Majority, the
unweighted ablation) through the structure-of-arrays
:class:`~repro.engine.ArraySimulation`, which draws steps in
vectorised blocks and applies them one by one on Python-list copies of
the state, and falls back to the scalar
:class:`~repro.engine.Simulation` for everything else (custom
protocols, interventions, non-CSR topologies)::

    record = run_agent(Diversification(weights), weights,
                       n=10_000, steps=500_000)   # array engine
    record = run_agent(..., engine="scalar")       # force the fallback

Packages:

* :mod:`repro.core` — the Diversification protocol family and Def 1.1;
* :mod:`repro.engine` — agent-level (scalar + vectorised) and
  aggregate simulators;
* :mod:`repro.topology` — complete graph plus future-work graphs;
* :mod:`repro.baselines` — consensus dynamics of the related work;
* :mod:`repro.analysis` — potentials, the equilibrium chain, bounds;
* :mod:`repro.adversary` — structural interventions;
* :mod:`repro.experiments` — the E1-E12 reproduction suite.
"""

from .core import (
    DARK,
    LIGHT,
    AgentState,
    DerandomisedDiversification,
    Diversification,
    GoodnessReport,
    Protocol,
    WeightTable,
    assess_goodness,
    diversity_bound,
    diversity_error,
    is_diverse,
    is_fair,
    is_sustainable,
    weights_from_demands,
)
from .engine import (
    AggregateSimulation,
    ArraySimulation,
    BatchedAggregateSimulation,
    MinCountTracker,
    OccupancyTracker,
    Population,
    Simulation,
    make_rng,
)
from .experiments import (
    BatchRunRecord,
    RunRecord,
    run_agent,
    run_aggregate,
    run_diversification_agent,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AgentState",
    "DARK",
    "LIGHT",
    "Protocol",
    "Diversification",
    "DerandomisedDiversification",
    "WeightTable",
    "weights_from_demands",
    "GoodnessReport",
    "assess_goodness",
    "diversity_bound",
    "diversity_error",
    "is_diverse",
    "is_fair",
    "is_sustainable",
    "AggregateSimulation",
    "ArraySimulation",
    "BatchedAggregateSimulation",
    "Simulation",
    "Population",
    "OccupancyTracker",
    "MinCountTracker",
    "make_rng",
    "RunRecord",
    "BatchRunRecord",
    "run_aggregate",
    "run_agent",
    "run_diversification_agent",
]
