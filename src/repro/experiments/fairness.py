"""Experiment E5: fairness (Def 1.1(2), Thm 2.12, Sec 2.4).

Runs the agent-level engine with the occupancy tracker and checks that
every agent's time-occupancy of colour ``i`` approaches ``w_i/w`` as
the horizon grows, and that the dark/light split of that time matches
the stationary distribution of the equilibrium chain
(``π(D_i) = w_i/(1+w)``, ``π(L_i) = (w_i/w)/(1+w)``).

The run is cumulative over increasing horizons, so E5 is a one-shard
plan (``"direct"`` seed scope) on the declarative pipeline.
"""

from __future__ import annotations

import numpy as np

from ..analysis.markov import theoretical_stationary
from ..core.diversification import Diversification
from ..core.weights import WeightTable
from ..engine.observers import OccupancyTracker
from ..engine.population import Population
from ..engine.simulator import Simulation
from .pipeline import ScenarioSpec
from .table import ExperimentTable
from .workloads import colours_from_counts, proportional_counts

E5_PROFILES = {
    "full": {},
    "quick": {"n": 128, "horizon_rounds": (200, 800)},
}


def run_fairness(
    weights: WeightTable,
    n: int,
    horizons: list[int],
    *,
    seed: int | np.random.Generator | None = None,
) -> list[dict]:
    """Occupancy statistics at increasing horizons (one run, cumulative).

    Returns one summary dict per horizon with max/mean deviations of
    per-agent colour occupancy from ``w_i/w`` and of the (colour, shade)
    occupancy from the chain's stationary distribution.
    """
    weights = weights.copy()
    protocol = Diversification(weights)
    population = Population.from_colours(
        colours_from_counts(proportional_counts(n, weights)), protocol,
        k=weights.k,
    )
    tracker = OccupancyTracker()
    simulation = Simulation(
        protocol, population, rng=seed, observers=[tracker]
    )
    fair = weights.fair_shares()
    pi = theoretical_stationary(weights)
    k = weights.k
    summaries = []
    previous = 0
    for horizon in sorted(horizons):
        simulation.run(horizon - previous)
        previous = horizon
        tracker.flush(simulation)
        occupancy = tracker.occupancy_fractions()
        colour_dev = np.abs(occupancy - fair[None, :])
        shade = tracker.shade_occupancy_fractions()  # (n, k, 2)
        # Stationary vector indexes dark states first.
        stationary_dev = np.abs(
            np.concatenate(
                [shade[:, :, 1], shade[:, :, 0]], axis=1
            ) - pi[None, :]
        )
        summaries.append(
            {
                "horizon": horizon,
                "max_colour_dev": float(colour_dev.max()),
                "mean_colour_dev": float(colour_dev.mean()),
                "max_state_dev": float(stationary_dev.max()),
                "mean_state_dev": float(stationary_dev.mean()),
                "k": k,
            }
        )
    return summaries


def _measure_fairness(params: dict, rng: np.random.Generator) -> dict:
    """E5 shard: one cumulative run over all horizons."""
    n = params["n"]
    horizons = [rounds * n for rounds in params["horizon_rounds"]]
    summaries = run_fairness(
        WeightTable(params["vector"]), n, horizons, seed=rng
    )
    return {"summaries": summaries}


def _build_fairness(result) -> ExperimentTable:
    """Format the per-horizon deviation rows."""
    params = result.cells[0]
    (value,) = result.values()
    summaries = value["summaries"]
    table = ExperimentTable(
        "E5",
        "Fairness: per-agent time-occupancy vs fair shares "
        "(Thm 2.12; chain π of Sec 2.4)",
        ["horizon (steps)", "rounds", "max |occ−w_i/w|",
         "mean |occ−w_i/w|", "max |occ−π|", "mean |occ−π|"],
    )
    for rounds, summary in zip(sorted(params["horizon_rounds"]), summaries):
        table.add_row(
            summary["horizon"],
            rounds,
            summary["max_colour_dev"],
            summary["mean_colour_dev"],
            summary["max_state_dev"],
            summary["mean_state_dev"],
        )
    if len(summaries) >= 2:
        improved = (
            summaries[-1]["mean_colour_dev"] < summaries[0]["mean_colour_dev"]
        )
        table.add_note(
            "mean occupancy deviation decreases with horizon: "
            + ("yes" if improved else "NO — investigate")
        )
    table.add_note(
        "every agent should spend ≈ w_i/w of its time with colour i, "
        "split ≈ w_i/(1+w) dark and ≈ (w_i/w)/(1+w) light"
    )
    return table


def spec_fairness(
    n: int = 192,
    weight_vector=(1.0, 2.0, 3.0),
    horizon_rounds=(200, 800, 3200),
    *,
    seed: int = 31,
) -> ScenarioSpec:
    """E5: per-agent occupancy convergence to the fair shares.

    ``horizon_rounds`` are parallel rounds; time-steps are ``rounds·n``.
    Expected shape: the deviation columns shrink as the horizon grows
    (the paper proves ``(1 ± o(1)) w_i/w`` occupancy for horizons
    ``T' > T = Ω(n^β)``).  One shard (one cumulative occupancy run).
    On the fused path the shard falls back to the per-shard path: the
    occupancy tracker needs the exact per-change observer stream, which
    the batched engines do not expose.
    """
    return ScenarioSpec(
        name="e5",
        measure=_measure_fairness,
        fixed={
            "vector": tuple(weight_vector),
            "n": n,
            "horizon_rounds": tuple(horizon_rounds),
        },
        base_seed=seed,
        seed_scope="direct",
        build=_build_fairness,
    )
