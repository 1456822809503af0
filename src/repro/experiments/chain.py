"""Experiment E8: the equilibrium Markov chain of Sec 2.4.

Checks, numerically, every chain-level ingredient of the fairness
proof: the claimed stationary distribution solves ``πP = π``; the chain
mixes; simulated visit counts concentrate as Theorem A.2 predicts; and
the ``P±`` perturbed chains shift the stationary mass by ``O(err)``.

Only the visit-count simulation is stochastic, so E8 rides the
pipeline as a one-shard plan (``"direct"`` seed scope).
"""

from __future__ import annotations

import numpy as np

from ..analysis.markov import (
    equilibrium_chain,
    mixing_time,
    perturbed_chain,
    simulate_chain,
    stationary_distribution,
    theoretical_stationary,
    total_variation,
)
from ..core.weights import WeightTable
from .pipeline import ScenarioSpec
from .table import ExperimentTable

E8_PROFILES = {"full": {}, "quick": {"n": 128, "sim_steps": 60_000}}


def _measure_chain(params: dict, rng: np.random.Generator) -> dict:
    """E8 shard: all chain-level checks (one simulated visit stream)."""
    weights = WeightTable(params["vector"])
    n = params["n"]
    P = equilibrium_chain(weights, n)
    pi_theory = theoretical_stationary(weights)
    pi_solved = stationary_distribution(P)
    residual = float(np.abs(pi_theory @ P - pi_theory).max())
    tv_solved = float(total_variation(pi_theory, pi_solved))
    tmix = int(mixing_time(P))

    visits = simulate_chain(
        P, start=0, steps=params["sim_steps"], rng=rng
    )
    empirical = visits / visits.sum()
    tv_visits = float(total_variation(empirical, pi_theory))

    err = params["err_factor"] / ((1.0 + weights.total) * n)
    plus = perturbed_chain(weights, n, target_colour=0, err=err, sign=+1)
    minus = perturbed_chain(weights, n, target_colour=0, err=err, sign=-1)
    pi_plus = stationary_distribution(plus)
    pi_minus = stationary_distribution(minus)
    shift = max(
        float(total_variation(pi_plus, pi_theory)),
        float(total_variation(pi_minus, pi_theory)),
    )
    return {
        "residual": residual,
        "tv_solved": tv_solved,
        "tmix": tmix,
        "tv_visits": tv_visits,
        "pi_theory_0": float(pi_theory[0]),
        "pi_plus_0": float(pi_plus[0]),
        "pi_minus_0": float(pi_minus[0]),
        "shift": shift,
    }


def _build_chain(result) -> ExperimentTable:
    """Format the check/value/reference rows."""
    params = result.cells[0]
    (value,) = result.values()
    weights = WeightTable(params["vector"])
    n = params["n"]
    k = weights.k
    sim_steps = params["sim_steps"]
    err = params["err_factor"] / ((1.0 + weights.total) * n)

    table = ExperimentTable(
        "E8",
        "Equilibrium chain M (Sec 2.4): stationarity, mixing, "
        "perturbation sandwich",
        ["check", "value", "reference", "ok"],
    )
    table.add_row(
        "‖πP − π‖∞ (theoretical π)", value["residual"], "≈ 0",
        value["residual"] < 1e-12,
    )
    table.add_row(
        "TV(π_solved, π_theory)", value["tv_solved"], "≈ 0",
        value["tv_solved"] < 1e-9,
    )
    tmix = value["tmix"]
    table.add_row(
        "mixing time (1/8)", tmix,
        f"finite; O((1+w)n)={int(4 * (1 + weights.total) * n)}",
        tmix <= 16 * (1 + weights.total) * n,
    )
    # The visit-count noise scales like sqrt(T_mix / steps) (Thm A.2):
    # with few effective samples the tolerance must widen accordingly.
    visit_tolerance = max(0.05, 4.0 * float(np.sqrt(tmix / sim_steps)))
    table.add_row(
        "TV(empirical visits, π)", value["tv_visits"],
        f"≤ {visit_tolerance:.3f} (Thm A.2 scale, {sim_steps} steps)",
        value["tv_visits"] < visit_tolerance,
    )
    sandwich = bool(
        value["pi_minus_0"] <= value["pi_theory_0"] + 1e-12
        and value["pi_theory_0"] <= value["pi_plus_0"] + 1e-12
    )
    table.add_row(
        "π−(D_0) ≤ π(D_0) ≤ π+(D_0)",
        f"{value['pi_minus_0']:.5f} ≤ {value['pi_theory_0']:.5f} "
        f"≤ {value['pi_plus_0']:.5f}",
        "sandwich (majorisation argument)",
        sandwich,
    )
    table.add_row(
        "TV(π±, π)", value["shift"],
        f"O(err·n·k) = {err * n * k:.4f}",
        value["shift"] <= 8 * err * n * k,
    )
    table.add_note(
        "π(D_i)=w_i/(1+w), π(L_i)=(w_i/w)/(1+w) — the fairness targets"
    )
    return table


def spec_markov_chain(
    n: int = 256,
    weight_vector=(1.0, 2.0, 3.0),
    *,
    err_factor: float = 0.25,
    sim_steps: int = 200_000,
    seed: int = 17,
) -> ScenarioSpec:
    """E8: stationarity, mixing and perturbation of the chain ``M``.

    Expected shape: ``πP = π`` holds to machine precision for the
    theoretical π of Eqs. (18)-(19); the mixing time scales like
    ``Θ(n log k / ·)`` (finite, small multiples of n); simulated visit
    fractions match π; perturbed stationary mass moves by ``O(err·n)``
    relative.  One shard (one simulated visit stream).
    """
    return ScenarioSpec(
        name="e8",
        measure=_measure_chain,
        fixed={
            "vector": tuple(weight_vector),
            "n": n,
            "err_factor": err_factor,
            "sim_steps": sim_steps,
        },
        base_seed=seed,
        seed_scope="direct",
        build=_build_chain,
    )
