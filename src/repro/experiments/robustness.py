"""Experiments E6 and E7: sustainability and adversarial robustness.

E6 stresses Def 1.1(3): from the worst-case start (singleton colours)
no colour may ever vanish; consensus baselines are shown to violate
this immediately.  E7 injects adversarial shocks — agent floods and
brand-new colours — and measures recovery (Sec 1: "when an adversary
adds agents or colours, the protocol quickly returns into a state of
diversity and fairness").

E6's ``(protocol × seed)`` sweep runs through the declarative pipeline
with the ``"stream"`` seed scope (consecutive children of the base
seed, reproducing the legacy shared-generator spawn pattern); E7 is a
single recorded run and rides the pipeline as a one-shard plan.

Both experiments additionally replicate their adversarial runs through
the *fused batched* aggregate engine
(:func:`~repro.experiments.runner.run_aggregate` with
``replications=R`` and a ``schedule``): all R shocked replications
advance as one ``(R, 2k)`` count matrix, with the interventions applied
batch-wide between event segments.
"""

from __future__ import annotations

import numpy as np

from ..adversary.interventions import AddAgents, AddColour
from ..adversary.schedule import InterventionSchedule
from ..baselines.uniform_partition import RandomRecolouring
from ..baselines.voter import VoterModel
from ..core.diversification import Diversification
from ..core.properties import diversity_bound
from ..core.weights import WeightTable
from ..engine.observers import MinCountTracker
from ..engine.population import Population
from ..engine.simulator import Simulation
from .pipeline import ScenarioSpec
from .runner import run_aggregate
from .table import ExperimentTable
from .workloads import colours_from_counts, worst_case_counts

E6_PROFILES = {
    "full": {},
    "quick": {
        "n": 96, "steps_per_agent": 400, "seeds": 5,
        "adv_replications": 4,
    },
}
E7_PROFILES = {
    "full": {},
    "quick": {"n": 512, "settle_factor": 6.0, "replications": 8},
}

# E6 contenders, in table order.  Keyed by name so shards can rebuild
# their protocol from plain parameters.
_E6_FACTORIES = {
    "diversification": lambda w: Diversification(w),
    "voter": lambda w: VoterModel(),
    "random-recolouring": lambda w: RandomRecolouring(w.k),
}


def minimum_counts_under(
    protocol_factory,
    weights: WeightTable,
    n: int,
    steps: int,
    *,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(min colour counts, min dark counts) over one agent-level run."""
    weights = weights.copy()
    protocol = protocol_factory(weights)
    population = Population.from_colours(
        colours_from_counts(worst_case_counts(n, weights.k)),
        protocol,
        k=weights.k,
    )
    tracker = MinCountTracker()
    Simulation(protocol, population, rng=seed, observers=[tracker]).run(steps)
    return tracker.min_colour_counts.copy(), tracker.min_dark_counts.copy()


def _measure_sustainability(params: dict, rng: np.random.Generator) -> dict:
    """E6 shard: one survival run of one contender, plus (for the
    weighted protocol) a fused batched adversarial survival check."""
    n = params["n"]
    steps = params["steps_per_agent"] * n
    mins, dark_mins = minimum_counts_under(
        _E6_FACTORIES[params["protocol"]],
        WeightTable(params["vector"]),
        n,
        steps,
        seed=rng,
    )
    adv_min_dark = None
    replications = params["adv_replications"]
    if replications and params["protocol"] == "diversification":
        # R shocked replications fused into one batched aggregate
        # engine: an agent flood, then a brand-new (dark) colour.
        schedule = InterventionSchedule(
            [
                (steps // 3, AddAgents(colour=0, count=n // 4, dark=True)),
                (2 * steps // 3, AddColour(weight=2.0, count=1, dark=True)),
            ]
        )
        batch = run_aggregate(
            WeightTable(params["vector"]), n, steps,
            start="worst", seed=rng,
            replications=replications, schedule=schedule, batched=True,
        )
        adv_min_dark = int(batch.final_dark_counts.min())
    return {
        "min_colour": int(mins.min()),
        "min_dark": int(dark_mins.min()),
        "adv_min_dark": adv_min_dark,
    }


def _build_sustainability(result) -> ExperimentTable:
    """Aggregate per-run minima into the survival table."""
    seeds = result.spec.replications
    table = ExperimentTable(
        "E6",
        "Sustainability from singleton starts (Def 1.1(3))",
        ["protocol", "runs", "runs w/ all colours alive",
         "min colour count seen", "min dark count seen",
         "survives adversary", "sustainable"],
    )
    for params, values in result.by_cell():
        survived = sum(1 for v in values if v["min_colour"] >= 1)
        overall_min = min(v["min_colour"] for v in values)
        overall_dark_min = min(v["min_dark"] for v in values)
        adversarial = [
            v["adv_min_dark"] for v in values
            if v.get("adv_min_dark") is not None
        ]
        table.add_row(
            params["protocol"], seeds, survived, int(overall_min),
            int(overall_dark_min),
            "-" if not adversarial else all(m >= 1 for m in adversarial),
            survived == seeds,
        )
    table.add_note(
        "the structural invariant: a lone dark agent of a colour never "
        "changes, so Diversification keeps min dark count >= 1 with "
        "probability 1"
    )
    table.add_note(
        "'survives adversary': fused batched replications under an "
        "agent-flood + new-dark-colour schedule keep every dark count "
        ">= 1 at the horizon ('-' for protocols without weights)"
    )
    return table


def spec_sustainability(
    n: int = 128,
    weight_vector=(1.0, 1.0, 2.0, 4.0),
    *,
    steps_per_agent: int = 600,
    seeds: int = 10,
    base_seed: int = 1234,
    adv_replications: int = 8,
) -> ScenarioSpec:
    """E6: colour survival from singleton starts (Def 1.1(3)).

    Expected shape: Diversification never loses a colour in any run
    (min dark count stays >= 1) — the structural invariant; the Voter
    model loses colours routinely from the same start.  Random
    recolouring also keeps lone supporters (change requires meeting
    one's own colour) but needs global knowledge of k and ignores
    weights — its failure is diversity, not sustainability.  The
    diversification rows additionally verify survival under an
    adversarial schedule across ``adv_replications`` fused batched
    replications (0 disables the check).  The scenario is a contender
    grid × ``seeds`` replications.
    """
    return ScenarioSpec(
        name="e6",
        measure=_measure_sustainability,
        grid={"protocol": tuple(_E6_FACTORIES)},
        fixed={
            "vector": tuple(weight_vector),
            "n": n,
            "steps_per_agent": steps_per_agent,
            "adv_replications": adv_replications,
        },
        replications=seeds,
        base_seed=base_seed,
        seed_scope="stream",
        build=_build_sustainability,
    )


def recovery_time_after(
    times: np.ndarray,
    counts: np.ndarray,
    weights: WeightTable,
    shock_time: int,
    bound: float,
) -> int | None:
    """First recorded time after ``shock_time`` back inside the band."""
    fair = weights.fair_shares()
    k = len(fair)
    for index in range(len(times)):
        if times[index] <= shock_time:
            continue
        row = counts[index][:k]
        shares = row / row.sum()
        if np.abs(shares - fair).max() <= bound:
            return int(times[index])
    return None


def _measure_adversary(params: dict, rng: np.random.Generator) -> dict:
    """E7 shard: one recorded run with the flood and new-colour shocks,
    plus R shocked replications fused into the batched engine."""
    weights = WeightTable(params["vector"])
    w = weights.total
    n = params["n"]
    settle = int(params["settle_factor"] * w * w * n * np.log(n))
    shock1 = settle
    shock2 = settle + settle
    total = 3 * settle
    schedule = InterventionSchedule(
        [
            (shock1, AddAgents(colour=0, count=n // 2, dark=True)),
            (shock2, AddColour(weight=2.0, count=1, dark=True)),
        ]
    )
    record = run_aggregate(
        weights, n, total, start="worst", seed=rng,
        record_interval=max(1, total // 1024), schedule=schedule,
    )
    # The same shocked run, replicated: all R replications advance as
    # one (R, 2k) batched engine with the schedule applied batch-wide.
    replications = params["replications"]
    batch = run_aggregate(
        weights, n, total, start="worst", seed=rng,
        replications=replications, schedule=schedule, batched=True,
    )
    return {
        "times": [int(t) for t in record.times],
        "colour_counts": record.colour_counts.tolist(),
        "final_counts": [int(v) for v in record.final_colour_counts],
        "n": int(record.n),
        "weights_after": [float(v) for v in record.weights],
        "shock1": shock1,
        "shock2": shock2,
        "replications": replications,
        "replicated_final_counts": batch.final_colour_counts.tolist(),
        "replicated_min_dark": int(batch.final_dark_counts.min()),
    }


def _build_adversary(result) -> ExperimentTable:
    """Format the recovery rows for both shocks."""
    params = result.cells[0]
    (value,) = result.values()
    weights = WeightTable(params["vector"])
    final_weights = WeightTable(value["weights_after"])
    times = np.asarray(value["times"], dtype=np.int64)
    colour_counts = np.asarray(value["colour_counts"], dtype=np.int64)
    n_after = value["n"]
    table = ExperimentTable(
        "E7",
        "Adversarial robustness: agent flood and new colour (Sec 1)",
        ["event", "time", "population after", "k after",
         "recovery time", "recovery Δt / (n ln n)"],
    )
    bound = diversity_bound(n_after, 1.0)

    def _describe(label, shock_time, weights_at, k_at):
        recovery = recovery_time_after(
            times,
            colour_counts[:, :k_at],
            weights_at,
            shock_time,
            bound,
        )
        population_after = int(
            colour_counts[
                np.searchsorted(times, shock_time, side="right")
            ].sum()
        )
        delta = None if recovery is None else recovery - shock_time
        table.add_row(
            label, shock_time, population_after, k_at,
            "-" if recovery is None else recovery,
            "-" if delta is None else delta / (n_after * np.log(n_after)),
        )

    _describe(
        "flood colour 0 (+n/2 dark)", value["shock1"], weights, weights.k
    )
    _describe(
        "new colour (w=2, 1 dark)", value["shock2"], final_weights,
        final_weights.k,
    )
    final_counts = np.asarray(value["final_counts"], dtype=np.int64)
    final_shares = final_counts / final_counts.sum()
    fair = final_weights.fair_shares()
    table.add_note(
        "final shares vs fair shares (incl. new colour): "
        + ", ".join(
            f"c{i}: {final_shares[i]:.3f}/{fair[i]:.3f}"
            for i in range(final_weights.k)
        )
    )
    replicated = np.asarray(
        value["replicated_final_counts"], dtype=np.float64
    )
    mean_shares = (
        replicated / replicated.sum(axis=1, keepdims=True)
    ).mean(axis=0)
    table.add_note(
        f"fused batched replications (R={value['replications']}): "
        "mean final shares "
        + ", ".join(
            f"c{i}: {mean_shares[i]:.3f}/{fair[i]:.3f}"
            for i in range(final_weights.k)
        )
        + f"; min dark count {value['replicated_min_dark']} "
        f"(sustainable={value['replicated_min_dark'] >= 1})"
    )
    table.add_note(
        f"diversity band used for recovery: ±{bound:.4f} on every share"
    )
    return table


def spec_adversary(
    n: int = 1024,
    weight_vector=(1.0, 2.0, 3.0),
    *,
    seed: int = 404,
    settle_factor: float = 8.0,
    replications: int = 24,
) -> ScenarioSpec:
    """E7: recovery after adversarial agent floods and colour addition.

    Two shocks: (1) flood — colour 0 gains n/2 fresh dark agents;
    (2) a brand-new colour (weight 2) arrives with a single dark agent.
    Expected shape: the diversity error spikes at each shock and decays
    back inside the band; the new colour ends near its fair share, both
    in the recorded run and on average over ``replications`` fused
    batched repetitions of the same schedule.  One shard (the recorded
    shocked run plus its batched repetitions).
    """
    return ScenarioSpec(
        name="e7",
        measure=_measure_adversary,
        fixed={
            "vector": tuple(weight_vector),
            "n": n,
            "settle_factor": settle_factor,
            "replications": replications,
        },
        base_seed=seed,
        seed_scope="direct",
        build=_build_adversary,
    )
