"""Experiment E10: Diversification against the consensus baselines.

Same start, same horizon: the consensus dynamics of Sec 1.1 (Voter,
2-Choices, 3-Majority) collapse the colour distribution while
Diversification holds every colour at its fair share.  The trivial
global-knowledge resampler reaches the shares in expectation but is
not sustainable and is blind to added colours.

Both experiments run through the declarative pipeline: E10 is a
protocol grid sharing one run seed per shard (``"direct"`` scope), E10b
sweeps the transmission/recovery ratio with ``seeds`` replications per
point (``"stream"`` scope).
"""

from __future__ import annotations

import numpy as np

from ..baselines.epidemic import SISEpidemic
from ..baselines.three_majority import ThreeMajority
from ..baselines.trivial import TrivialResampling
from ..baselines.two_choices import TwoChoices
from ..baselines.voter import VoterModel
from ..core.diversification import Diversification
from ..core.weights import WeightTable
from ..engine.observers import MinCountTracker
from ..engine.population import Population
from ..engine.simulator import Simulation
from .pipeline import ScenarioSpec
from .runner import run_agent
from .table import ExperimentTable

E10_PROFILES = {"full": {}, "quick": {"n": 96, "rounds": 2000}}
E10B_PROFILES = {
    "full": {},
    "quick": {"n": 100, "seeds": 3, "steps_per_agent": 600},
}

# E10 contenders, in table order; rebuilt inside shards by name.
_E10_FACTORIES = {
    "diversification": lambda w: Diversification(w),
    "voter": lambda w: VoterModel(),
    "2-choices": lambda w: TwoChoices(),
    "3-majority": lambda w: ThreeMajority(),
    "trivial-resampling": lambda w: TrivialResampling(w),
}


def _measure_baseline(params: dict, rng: np.random.Generator) -> dict:
    """E10 shard: one run of one contender from the proportional start."""
    weights = WeightTable(params["vector"])
    tracker = MinCountTracker()
    record = run_agent(
        _E10_FACTORIES[params["protocol"]](weights), weights,
        params["n"], params["rounds"] * params["n"],
        start="proportional", seed=rng, observers=[tracker],
    )
    return {
        "final": [int(v) for v in record.final_colour_counts[: weights.k]],
        "min_seen": int(tracker.min_colour_counts.min()),
    }


def _build_baselines(result) -> ExperimentTable:
    """Format the survival/diversity contrast rows."""
    fair = WeightTable(result.spec.fixed["vector"]).fair_shares()
    table = ExperimentTable(
        "E10",
        "Consensus baselines destroy diversity (Sec 1.1 contrast)",
        ["protocol", "colours alive at end", "min count seen",
         "final max |share − w_i/w|", "sustainable", "diverse-ish"],
    )
    for params, values in result.by_cell():
        (value,) = values
        final = np.asarray(value["final"], dtype=float)
        shares = final / final.sum()
        error = float(np.abs(shares - fair).max())
        alive = int((final >= 1).sum())
        min_seen = value["min_seen"]
        table.add_row(
            params["protocol"], alive, min_seen, error,
            min_seen >= 1, error <= 0.1,
        )
    table.add_note(
        "consensus dynamics started from the proportional split still "
        "fixate; Diversification holds all colours near w_i/w"
    )
    table.add_note(
        "trivial resampling tracks the shares but has no survival "
        "guarantee: counts are Binomial and hit zero with positive "
        "probability (visible at small n; see the integration tests)"
    )
    return table


def spec_baselines(
    n: int = 128,
    weight_vector=(1.0, 2.0, 3.0, 4.0),
    *,
    rounds: int = 3000,
    seed: int = 2718,
) -> ScenarioSpec:
    """E10: colour survival and diversity error across protocols.

    Expected shape: only Diversification is simultaneously diverse and
    sustainable.  Consensus dynamics lose colours (min count 0);
    trivial resampling tracks shares but lets counts touch zero and is
    excluded from sustainability.  One shard per contender, all on the
    same run seed.
    """
    return ScenarioSpec(
        name="e10",
        measure=_measure_baseline,
        grid={"protocol": tuple(_E10_FACTORIES)},
        fixed={"vector": tuple(weight_vector), "n": n, "rounds": rounds},
        base_seed=seed,
        seed_scope="direct",
        build=_build_baselines,
    )


def _measure_epidemic(params: dict, rng: np.random.Generator) -> dict:
    """E10b shard: one SIS run at one transmission/recovery ratio."""
    n = params["n"]
    transmission = min(1.0, params["ratio"] * params["recovery"])
    protocol = SISEpidemic(transmission, params["recovery"])
    infected0 = max(
        1, int(params["initial_infected_fraction"] * n)
    )
    colours = [1] * infected0 + [0] * (n - infected0)
    population = Population.from_colours(colours, protocol, k=2)
    Simulation(protocol, population, rng=rng).run(
        params["steps_per_agent"] * n
    )
    return {
        "infected": int(population.colour_counts()[1]),
        "transmission": transmission,
    }


def _build_epidemic(result) -> ExperimentTable:
    """Format the per-ratio survival rows."""
    seeds = result.spec.replications
    table = ExperimentTable(
        "E10b",
        "SIS epidemic threshold (Sec 1.1): the canonical "
        "non-sustainable dynamic",
        ["transmission/recovery", "transmission", "runs survived",
         "mean infected at end", "sustainable-like"],
    )
    for params, values in result.by_cell():
        totals = [value["infected"] for value in values]
        survived = sum(1 for infected in totals if infected > 0)
        table.add_row(
            params["ratio"], values[0]["transmission"],
            f"{survived}/{seeds}", float(np.mean(totals)),
            survived == seeds,
        )
    table.add_note(
        "mean-field threshold at transmission/recovery = 1; compare "
        "E6 where Diversification survives at min dark count >= 1 "
        "with probability 1, independent of parameters"
    )
    return table


def spec_epidemic(
    n: int = 200,
    *,
    ratios=(0.1, 0.5, 1.0, 2.0, 8.0),
    recovery: float = 0.1,
    initial_infected_fraction: float = 0.1,
    steps_per_agent: int = 1200,
    seeds: int = 5,
    base_seed: int = 1848,
) -> ScenarioSpec:
    """E10b: SIS epidemic threshold — sustainability by contrast.

    The contact process (Sec 1.1, refs [8, 24, 27]) has an absorbing
    all-susceptible state: below the threshold the infected "colour"
    dies out.  Expected shape: survival probability jumps from ≈0 to
    ≈1 as ``transmission/recovery`` crosses 1, while Diversification
    keeps every colour alive *by construction* at any parameters.  The
    scenario is a ratio sweep × ``seeds`` replications.
    """
    return ScenarioSpec(
        name="e10b",
        measure=_measure_epidemic,
        grid={"ratio": tuple(ratios)},
        fixed={
            "n": n,
            "recovery": recovery,
            "initial_infected_fraction": initial_infected_fraction,
            "steps_per_agent": steps_per_agent,
        },
        replications=seeds,
        base_seed=base_seed,
        seed_scope="stream",
        build=_build_epidemic,
    )
