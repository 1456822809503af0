"""Experiments E3 and E4: the phase structure of the analysis.

E3 reproduces the Fig. 1 storyline quantitatively: from an arbitrary
start the potentials fall in order — φ (dark imbalance, Lemma 2.6),
ψ (light imbalance, Lemma 2.7), σ² (dark/light mass split, Lemma 2.14)
— and then plateau at their theoretical sizes.  E4 checks the Phase-3
equilibrium values of Thm 2.13.

Both are single-run experiments; they ride the declarative pipeline as
one-shard plans (``"direct"`` seed scope) so they share the executor,
artifact store and profile machinery with the sweep experiments.
"""

from __future__ import annotations

import numpy as np

from ..analysis.potentials import phi, phi_plateau, psi, sigma_plateau, sigma_squared
from ..core.properties import (
    equilibrium_dark_counts,
    equilibrium_light_counts,
)
from ..core.weights import WeightTable
from ..engine.aggregate import AggregateSimulation
from .pipeline import ScenarioSpec
from .table import ExperimentTable
from .workloads import worst_case_counts

E3_PROFILES = {"full": {}, "quick": {"n": 512, "settle_factor": 8.0}}
E4_PROFILES = {
    "full": {},
    "quick": {"n": 1024, "settle_factor": 6.0, "window_samples": 64},
}


def potential_series(record) -> dict[str, np.ndarray]:
    """φ(t), ψ(t), σ²(t) evaluated along a recorded run."""
    weights = record.weights
    times = record.times
    phis = np.array(
        [phi(row, weights) for row in record.dark_counts], dtype=np.float64
    )
    psis = np.array(
        [psi(row, weights) for row in record.light_counts], dtype=np.float64
    )
    sigmas = np.array(
        [
            sigma_squared(dark.sum(), light.sum(), weights)
            for dark, light in zip(record.dark_counts, record.light_counts)
        ],
        dtype=np.float64,
    )
    return {"times": times, "phi": phis, "psi": psis, "sigma_sq": sigmas}


def _first_below(times: np.ndarray, series: np.ndarray, level: float):
    hits = np.nonzero(series <= level)[0]
    return int(times[hits[0]]) if hits.size else None


def _measure_potentials(params: dict, rng: np.random.Generator) -> dict:
    """E3 shard: one recorded run and its potential series."""
    from .runner import run_aggregate

    weights = WeightTable(params["vector"])
    steps = _horizon_steps(params)
    record = run_aggregate(
        weights, params["n"], steps, start="worst", seed=rng,
        record_interval=max(1, steps // 512),
    )
    series = potential_series(record)
    return {
        "times": [int(t) for t in series["times"]],
        "phi": [float(v) for v in series["phi"]],
        "psi": [float(v) for v in series["psi"]],
        "sigma_sq": [float(v) for v in series["sigma_sq"]],
    }


def _horizon_steps(params: dict) -> int:
    """The settle horizon ``settle_factor * w^2 n ln n`` of one cell."""
    w = WeightTable(params["vector"]).total
    n = params["n"]
    return int(params["settle_factor"] * w * w * n * np.log(n))


def _build_potentials(result) -> ExperimentTable:
    """Format the decay/plateau rows from the recorded series."""
    params = result.cells[0]
    weights = WeightTable(params["vector"])
    n = params["n"]
    plateau_constant = result.spec.context["plateau_constant"]
    (value,) = result.values()
    times = np.asarray(value["times"], dtype=np.int64)
    phi_level = phi_plateau(n, weights, plateau_constant)
    sigma_level = sigma_plateau(n, plateau_constant)

    table = ExperimentTable(
        "E3",
        "Potential decay (Fig. 1 storyline; Thm 2.8, Lemma 2.14)",
        ["potential", "initial", "peak", "final", "plateau bound",
         "below bound after peak (t)", "stays below"],
    )
    tail = max(1, len(times) // 4)
    for name, level in (
        ("phi", phi_level),
        ("psi", phi_level),
        ("sigma_sq", sigma_level),
    ):
        values = np.asarray(value[name], dtype=np.float64)
        peak_index = int(np.argmax(values))
        hit = _first_below(
            times[peak_index:], values[peak_index:], level
        )
        stays = bool((values[-tail:] <= level).all())
        table.add_row(
            name, float(values[0]), float(values[peak_index]),
            float(values[-1]), level,
            "-" if hit is None else hit, stays,
        )
    table.add_note(
        "from the all-dark worst start psi begins at 0 (no light "
        "agents), rises as Phase 1 creates the light reservoir, then "
        "settles at its plateau — the Fig. 1 ordering concerns the "
        "post-peak decay"
    )
    table.add_note(
        f"plateau bounds use C={plateau_constant}: phi/psi ≤ C·w·n·ln n, "
        f"sigma² ≤ C·n^1.5·sqrt(ln n)"
    )
    return table


def spec_potentials(
    n: int = 1024,
    weight_vector=(1.0, 2.0, 3.0, 4.0),
    *,
    seed: int = 7,
    settle_factor: float = 12.0,
    plateau_constant: float = 2.0,
) -> ScenarioSpec:
    """E3: decay and plateau of φ, ψ and σ² (Thm 2.8 / Lemma 2.14).

    Expected shape: each potential drops by orders of magnitude from
    the worst-case start, reaches its plateau, and stays there; φ
    plateaus no later than ψ (Subphase 2.1 before 2.2).  One shard (a
    single recorded run).
    """
    return ScenarioSpec(
        name="e3",
        measure=_measure_potentials,
        fixed={
            "vector": tuple(weight_vector),
            "n": n,
            "settle_factor": settle_factor,
        },
        base_seed=seed,
        seed_scope="direct",
        build=_build_potentials,
        context={"plateau_constant": plateau_constant},
    )


def _measure_equilibrium(params: dict, rng: np.random.Generator) -> dict:
    """E4 shard: settle, then time-average the (dark, light) counts."""
    weights = WeightTable(params["vector"])
    n = params["n"]
    engine = AggregateSimulation(
        weights.copy(), dark_counts=worst_case_counts(n, weights.k),
        rng=rng,
    )
    engine.run(_horizon_steps(params))
    dark_rows, light_rows = [], []
    for _ in range(params["window_samples"]):
        engine.run(n)
        dark_rows.append(engine.dark_counts())
        light_rows.append(engine.light_counts())
    return {
        "dark_mean": np.asarray(dark_rows).mean(axis=0).tolist(),
        "light_mean": np.asarray(light_rows).mean(axis=0).tolist(),
    }


def _build_equilibrium(result) -> ExperimentTable:
    """Compare the window means against the Thm-2.13 targets."""
    params = result.cells[0]
    weights = WeightTable(params["vector"])
    n = params["n"]
    error_constant = result.spec.context["error_constant"]
    (value,) = result.values()
    dark_mean = np.asarray(value["dark_mean"], dtype=np.float64)
    light_mean = np.asarray(value["light_mean"], dtype=np.float64)
    dark_target = equilibrium_dark_counts(n, weights)
    light_target = equilibrium_light_counts(n, weights)
    allowed = error_constant * n**0.75 * np.log(n) ** 0.25

    table = ExperimentTable(
        "E4",
        "Phase-3 equilibrium counts (Thm 2.13: additive error "
        "O(n^{3/4} log^{1/4} n))",
        ["colour", "w_i", "mean A_i", "target A_i", "mean a_i",
         "target a_i", "|err| max", "within"],
    )
    for colour in range(weights.k):
        err = max(
            abs(dark_mean[colour] - dark_target[colour]),
            abs(light_mean[colour] - light_target[colour]),
        )
        table.add_row(
            colour,
            weights.weight(colour),
            float(dark_mean[colour]),
            float(dark_target[colour]),
            float(light_mean[colour]),
            float(light_target[colour]),
            float(err),
            err <= allowed,
        )
    table.add_note(
        f"allowed additive error C·n^0.75·(ln n)^0.25 = {allowed:.1f} "
        f"with C={error_constant}, n={n}"
    )
    return table


def spec_equilibrium(
    n: int = 2048,
    weight_vector=(1.0, 2.0, 3.0, 4.0),
    *,
    seed: int = 99,
    settle_factor: float = 10.0,
    window_samples: int = 128,
    error_constant: float = 2.0,
) -> ScenarioSpec:
    """E4: Phase-3 equilibrium values (Thm 2.13).

    Measures time-averaged dark and light counts per colour against
    ``A_i = w_i n/(1+w)`` and ``a_i = (w_i/w) n/(1+w)`` with the paper's
    additive error ``C·n^{3/4}(log n)^{1/4}``.  One shard (a single
    settled run).
    """
    return ScenarioSpec(
        name="e4",
        measure=_measure_equilibrium,
        fixed={
            "vector": tuple(weight_vector),
            "n": n,
            "settle_factor": settle_factor,
            "window_samples": window_samples,
        },
        base_seed=seed,
        seed_scope="direct",
        build=_build_equilibrium,
        context={"error_constant": error_constant},
    )
