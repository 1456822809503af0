"""Experiments E9 and the ablation suite.

E9 studies the derandomised multi-shade protocol (Sec 1.2; analysing it
is an open problem from Sec 3) and confirms it reaches the same fair
shares as the randomised protocol.  The ablation experiments quantify
the role of each design rule (see ``repro.core.ablations``).

All three experiments are pipeline scenarios: E9 sweeps the protocol
variant with ``seeds`` replications (``"stream"`` scope), E9b sweeps
``n`` (``"cell"`` scope, seeds keyed on ``base_seed + n``), and the
ablation grid shares one run seed per variant (``"direct"`` scope).
"""

from __future__ import annotations

import numpy as np

from ..core.ablations import EagerRecolouring, UnweightedLightening
from ..core.derandomised import DerandomisedDiversification
from ..core.diversification import Diversification
from ..core.properties import diversity_bound
from ..core.weights import WeightTable
from .pipeline import ScenarioSpec
from .runner import run_agent
from .table import ExperimentTable

E9_PROFILES = {"full": {}, "quick": {"n": 256, "rounds": 1500, "seeds": 2}}
E9B_PROFILES = {
    "full": {},
    "quick": {
        "ns": (128, 256, 512), "seeds": 2, "settle_rounds": 600,
        "window_samples": 32,
    },
}
ABLATIONS_PROFILES = {"full": {}, "quick": {"n": 256, "rounds": 1500}}

# E9 contenders, in table order; rebuilt inside shards by name.
_E9_FACTORIES = {
    "randomised": lambda w: Diversification(w),
    "derandomised": lambda w: DerandomisedDiversification(w),
}

# Ablation variants, in table order.
_ABLATION_FACTORIES = {
    "full protocol": lambda w: Diversification(w),
    "A2 unweighted lightening": lambda w: UnweightedLightening(w),
    "A1 eager recolouring": lambda w: EagerRecolouring(w),
}


def _stabilised_share_error(
    record, weights: WeightTable, tail_fraction: float = 0.25
) -> tuple[float, np.ndarray]:
    """(max deviation from fair shares, mean shares) over the record's
    final ``tail_fraction`` of snapshots."""
    counts = record.colour_counts
    tail = max(1, int(counts.shape[0] * tail_fraction))
    window = counts[-tail:, : weights.k].astype(float)
    shares = window / window.sum(axis=1, keepdims=True)
    fair = weights.fair_shares()
    return float(np.abs(shares - fair).max()), shares.mean(axis=0)


def _measure_variant(params: dict, rng: np.random.Generator) -> dict:
    """E9 shard: one run of one variant, stabilised-tail error."""
    weights = WeightTable(params["vector"])
    record = run_agent(
        _E9_FACTORIES[params["protocol"]](weights), weights,
        params["n"], params["rounds"] * params["n"],
        start="worst", seed=rng,
    )
    error, shares = _stabilised_share_error(record, weights)
    return {"error": error, "shares": [float(s) for s in shares]}


def _build_derandomised(result) -> ExperimentTable:
    """Format one row per (variant, seed) with the diversity band."""
    weights = WeightTable(result.spec.fixed["vector"])
    band = diversity_bound(result.spec.fixed["n"], 1.0)
    table = ExperimentTable(
        "E9",
        "Derandomised multi-shade protocol vs randomised (Sec 1.2 / "
        "open problem of Sec 3)",
        ["protocol", "seed#", "max share err (tail)", "band sqrt(ln n/n)",
         "within", "mean shares (tail)"],
    )
    for params, values in result.by_cell():
        for index, value in enumerate(values):
            table.add_row(
                params["protocol"], index, value["error"], band,
                value["error"] <= band,
                "[" + ", ".join(f"{s:.3f}" for s in value["shares"]) + "]",
            )
    table.add_note(
        "fair shares: "
        + "[" + ", ".join(f"{s:.3f}" for s in weights.fair_shares()) + "]"
    )
    return table


def spec_derandomised(
    n: int = 384,
    weight_vector=(1, 2, 3),
    *,
    rounds: int = 2500,
    seeds: int = 3,
    base_seed: int = 88,
) -> ScenarioSpec:
    """E9: derandomised vs randomised protocol, same integer weights.

    Expected shape: both reach the fair shares ``w_i/w`` with errors of
    the same order; the derandomised variant needs no coin flips.  The
    scenario is a variant grid × ``seeds`` replications.  E9 has no
    fused implementation, so on the fused path every shard runs per
    shard and the table is the same bytes as a plain run.
    """
    return ScenarioSpec(
        name="e9",
        measure=_measure_variant,
        grid={"protocol": tuple(_E9_FACTORIES)},
        fixed={
            "vector": tuple(float(v) for v in weight_vector),
            "n": n,
            "rounds": rounds,
        },
        replications=seeds,
        base_seed=base_seed,
        seed_scope="stream",
        build=_build_derandomised,
    )


def _measure_multishade_error(params: dict, rng: np.random.Generator) -> dict:
    """E9b shard: stabilised error of the multi-shade engine at one n."""
    from ..engine.multishade import MultiShadeAggregate
    from .workloads import worst_case_counts

    weights = WeightTable(params["vector"])
    fair = weights.fair_shares()
    n = params["n"]
    engine = MultiShadeAggregate(
        weights.copy(),
        colour_counts=worst_case_counts(n, weights.k),
        rng=rng,
    )
    engine.run(params["settle_rounds"] * n)
    worst = 0.0
    for _ in range(params["window_samples"]):
        engine.run(n)
        shares = engine.colour_counts() / engine.n
        worst = max(worst, float(np.abs(shares - fair).max()))
    return {"error": worst}


def _build_derandomised_scaling(result) -> ExperimentTable:
    """Aggregate the E9b error sweep and its power-law fit."""
    from ..analysis.statistics import fit_power_law

    table = ExperimentTable(
        "E9b",
        "Derandomised protocol at scale (open problem, Sec 3): error vs n",
        ["n", "mean err", "max err", "band sqrt(ln n/n)", "within"],
    )
    ns = []
    mean_errors = []
    for params, values in result.by_cell():
        n = params["n"]
        errors = [value["error"] for value in values]
        mean_error = float(np.mean(errors))
        ns.append(n)
        mean_errors.append(mean_error)
        band = diversity_bound(n, 1.0)
        table.add_row(
            n, mean_error, float(np.max(errors)), band,
            float(np.max(errors)) <= band,
        )
    fit = fit_power_law(np.array(ns, float), np.array(mean_errors))
    table.add_note(
        f"power-law fit: error ~ n^{fit.exponent:.2f} "
        f"(randomised protocol shape: n^-0.5), R²={fit.r_squared:.3f}"
    )
    return table


def spec_derandomised_scaling(
    ns=(256, 512, 1024, 2048),
    weight_vector=(1, 2, 3),
    *,
    seeds: int = 3,
    settle_rounds: int = 1200,
    window_samples: int = 64,
    base_seed: int = 4242,
) -> ScenarioSpec:
    """E9b: derandomised protocol error vs n (multi-shade fast engine).

    Uses :class:`~repro.engine.multishade.MultiShadeAggregate` to push
    the open-problem variant to population sizes the agent engine
    cannot reach.  Expected shape: the stabilised error shrinks like
    ``~ 1/√n``, mirroring the randomised protocol's Thm 1.3 behaviour.
    The scenario is an ``n`` sweep × ``seeds`` replications.  The
    multi-shade engine has no mega-batch implementation yet, so on the
    fused path every shard falls back to the per-shard path.
    """
    return ScenarioSpec(
        name="e9b",
        measure=_measure_multishade_error,
        grid={"n": tuple(ns)},
        fixed={
            "vector": tuple(float(v) for v in weight_vector),
            "settle_rounds": settle_rounds,
            "window_samples": window_samples,
        },
        replications=seeds,
        base_seed=base_seed,
        seed_scope="cell",
        cell_seed=lambda params: base_seed + params["n"],
        build=_build_derandomised_scaling,
    )


def _measure_ablation(params: dict, rng: np.random.Generator) -> dict:
    """Ablation shard: tail deviations of one variant."""
    weights = WeightTable(params["vector"])
    record = run_agent(
        _ABLATION_FACTORIES[params["variant"]](weights), weights,
        params["n"], params["rounds"] * params["n"],
        start="worst", seed=rng,
    )
    fair = weights.fair_shares()
    uniform = np.full(weights.k, 1.0 / weights.k)
    tail = max(1, len(record.times) // 4)
    counts = record.colour_counts[-tail:, : weights.k].astype(float)
    shares = counts / counts.sum(axis=1, keepdims=True)
    return {
        "dev_weighted": float(np.abs(shares - fair).max()),
        "dev_uniform": float(np.abs(shares - uniform).max()),
    }


def _build_ablations(result) -> ExperimentTable:
    """Format the per-variant deviation rows."""
    table = ExperimentTable(
        "ABL",
        "Ablations: contribution of each protocol rule (Sec 1.2 intuition)",
        ["variant", "max dev from weighted shares",
         "max dev from uniform shares", "closer to"],
    )
    for params, values in result.by_cell():
        (value,) = values
        table.add_row(
            params["variant"], value["dev_weighted"], value["dev_uniform"],
            "weighted" if value["dev_weighted"] < value["dev_uniform"]
            else "uniform",
        )
    table.add_note(
        "prediction: full protocol → weighted; A2 → uniform; A1 → "
        "weighted but with inflated deviation"
    )
    return table


def spec_ablations(
    n: int = 384,
    weight_vector=(1.0, 2.0, 3.0, 4.0),
    *,
    rounds: int = 2500,
    seed: int = 314,
) -> ScenarioSpec:
    """Ablations A1/A2: remove one protocol rule at a time.

    Expected shape: the full protocol tracks the *weighted* shares; A2
    (unweighted lightening) collapses towards the *uniform* shares; A1
    (no light buffer) still mixes colours but with larger error.  One
    shard per variant, all on the same run seed.
    """
    return ScenarioSpec(
        name="ablations",
        measure=_measure_ablation,
        grid={"variant": tuple(_ABLATION_FACTORIES)},
        fixed={"vector": tuple(weight_vector), "n": n, "rounds": rounds},
        base_seed=seed,
        seed_scope="direct",
        build=_build_ablations,
    )
