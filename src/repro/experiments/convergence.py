"""Experiments E1 and E2: convergence time and diversity error.

E1 measures the hitting time of the diversity band from the worst-case
start and checks the ``O(w² n log n)`` shape of Thm 1.3.  E2 measures
the stabilised diversity error and checks the ``Õ(1/√n)`` shape of
Def 1.1(1)/Eq. (1).

Both run through the declarative pipeline: the sweep over
``(weights, n)`` is a :class:`~repro.experiments.pipeline.ScenarioSpec`
grid, each seed is an independent shard, and the legacy
``spawn(make_rng(base_seed + n), seeds)`` replication streams are
reproduced by the ``"cell"`` seed scope.
"""

from __future__ import annotations

import numpy as np

from ..core.properties import diversity_bound
from ..core.weights import WeightTable
from ..engine.aggregate import AggregateSimulation
from ..analysis.statistics import fit_n_log_n, fit_power_law
from .pipeline import ScenarioSpec
from .table import ExperimentTable
from .workloads import worst_case_counts

E1_PROFILES = {"full": {}, "quick": {"ns": (128, 256), "seeds": 2}}
E2_PROFILES = {"full": {}, "quick": {"ns": (128, 256, 512), "seeds": 2}}


def measure_convergence_time(
    weights: WeightTable,
    n: int,
    *,
    seed: int | np.random.Generator | None = None,
    bound_constant: float = 1.0,
    max_steps_factor: float = 30.0,
) -> int | None:
    """Hitting time of the diversity band from the worst-case start.

    The band is ``max_i |C_i/n − w_i/w| <= bound_constant·sqrt(log n/n)``
    and the search horizon is ``max_steps_factor · w² n log n``.
    """
    weights = weights.copy()
    fair = weights.fair_shares()
    bound = diversity_bound(n, bound_constant)

    def inside_band(engine: AggregateSimulation) -> bool:
        counts = engine.colour_counts()
        shares = counts / counts.sum()
        return bool(np.abs(shares - fair).max() <= bound)

    engine = AggregateSimulation(
        weights, dark_counts=worst_case_counts(n, weights.k), rng=seed
    )
    w = weights.total
    max_steps = int(max_steps_factor * w * w * n * np.log(n))
    return engine.run_until(inside_band, max_steps=max_steps)


def _measure_hitting(params: dict, rng: np.random.Generator) -> dict:
    """E1 shard: one hitting-time replication at one ``(vector, n)``."""
    hit = measure_convergence_time(
        WeightTable(params["vector"]), params["n"], seed=rng
    )
    return {"hit": None if hit is None else int(hit)}


def _build_convergence_scaling(result) -> ExperimentTable:
    """Aggregate E1 shards into the Thm-1.3 scaling table."""
    table = ExperimentTable(
        "E1",
        "Convergence time to the diversity band (Thm 1.3: O(w^2 n log n))",
        ["weights", "n", "mean T", "std T", "T/(n ln n)", "T/(w^2 n ln n)",
         "hits"],
    )
    groups: dict[tuple, list] = {}
    for params, values in result.by_cell():
        groups.setdefault(params["vector"], []).append(
            (params["n"], values)
        )
    for vector, cells in groups.items():
        weights = WeightTable(vector)
        w = weights.total
        mean_times = []
        used_ns = []
        for n, values in cells:
            times = [v["hit"] for v in values if v["hit"] is not None]
            if times:
                mean = float(np.mean(times))
                std = float(np.std(times))
                mean_times.append(mean)
                used_ns.append(n)
                norm = n * np.log(n)
                table.add_row(
                    str(list(vector)), n, mean, std,
                    mean / norm, mean / (w * w * norm), len(times),
                )
            else:
                table.add_row(str(list(vector)), n, "-", "-", "-", "-", 0)
        if len(used_ns) >= 2:
            fit = fit_n_log_n(np.array(used_ns), np.array(mean_times))
            table.add_note(
                f"weights {list(vector)}: T ≈ {fit.constant:.2f}·n·ln n "
                f"(rel. residual {fit.relative_residual:.2f})"
            )
    table.add_note(
        "Expected shape: T/(n ln n) flat in n; larger total weight w → "
        "larger constant (paper: quadratic in w, we do not tune constants)."
    )
    return table


def spec_convergence_scaling(
    ns=(128, 256, 512, 1024),
    weight_vectors=((1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 3.0, 4.0)),
    *,
    seeds: int = 3,
    base_seed: int = 2021,
) -> ScenarioSpec:
    """E1: convergence time vs n for uniform and skewed weights.

    Paper claim (Thm 1.3): ``T = O(w² n log n)``.  Expected shape: the
    column ``T/(n ln n)`` is roughly flat in ``n`` for each weight
    vector, and grows with ``w`` across vectors.  The scenario is a
    ``(vector × n)`` grid with ``seeds`` shards per cell.
    """
    return ScenarioSpec(
        name="e1",
        measure=_measure_hitting,
        grid={
            "vector": tuple(tuple(vector) for vector in weight_vectors),
            "n": tuple(ns),
        },
        replications=seeds,
        base_seed=base_seed,
        seed_scope="cell",
        cell_seed=lambda params: base_seed + params["n"],
        build=_build_convergence_scaling,
    )


def measure_stabilised_error(
    weights: WeightTable,
    n: int,
    *,
    seed: int | np.random.Generator | None = None,
    settle_factor: float = 6.0,
    window_samples: int = 64,
) -> float:
    """Max diversity error over a post-convergence window.

    The engine first runs ``settle_factor · w² n log n`` steps, then the
    error is sampled ``window_samples`` times spaced ``n`` steps apart
    (about one parallel round each).
    """
    weights = weights.copy()
    engine = AggregateSimulation(
        weights, dark_counts=worst_case_counts(n, weights.k), rng=seed
    )
    w = weights.total
    engine.run(int(settle_factor * w * w * n * np.log(n)))
    fair = weights.fair_shares()
    worst = 0.0
    for _ in range(window_samples):
        engine.run(n)
        counts = engine.colour_counts()
        shares = counts / counts.sum()
        worst = max(worst, float(np.abs(shares - fair).max()))
    return worst


def _measure_stabilised(params: dict, rng: np.random.Generator) -> dict:
    """E2 shard: one stabilised-error replication at one ``n``."""
    return {
        "error": measure_stabilised_error(
            WeightTable(params["vector"]), params["n"], seed=rng
        )
    }


def _build_diversity_error(result) -> ExperimentTable:
    """Aggregate E2 shards into the Eq.-(1) error table."""
    table = ExperimentTable(
        "E2",
        "Stabilised diversity error |C_i/n − w_i/w| (Eq. (1): Õ(1/√n))",
        ["n", "mean err", "max err", "bound sqrt(ln n/n)", "within"],
    )
    ns = []
    mean_errors = []
    for params, values in result.by_cell():
        n = params["n"]
        errors = [value["error"] for value in values]
        mean_error = float(np.mean(errors))
        max_error = float(np.max(errors))
        bound = diversity_bound(n)
        ns.append(n)
        mean_errors.append(mean_error)
        table.add_row(n, mean_error, max_error, bound, max_error <= bound)
    fit = fit_power_law(np.array(ns, float), np.array(mean_errors))
    table.add_note(
        f"power-law fit: error ~ n^{fit.exponent:.2f} "
        f"(paper shape: n^-0.5), R²={fit.r_squared:.3f}"
    )
    return table


def spec_diversity_error(
    ns=(128, 256, 512, 1024, 2048),
    weight_vector=(1.0, 2.0, 3.0, 4.0),
    *,
    seeds: int = 3,
    base_seed: int = 509,
) -> ScenarioSpec:
    """E2: stabilised diversity error vs n.

    Paper claim (Eq. (1)): error ``Õ(1/√n)``.  Expected shape: the
    fitted power-law exponent of error vs n is close to −1/2, and the
    error stays below ``sqrt(log n / n)``.  The scenario is an ``n``
    sweep with ``seeds`` shards per point.
    """
    return ScenarioSpec(
        name="e2",
        measure=_measure_stabilised,
        grid={"n": tuple(ns)},
        fixed={"vector": tuple(weight_vector)},
        replications=seeds,
        base_seed=base_seed,
        seed_scope="cell",
        cell_seed=lambda params: base_seed + params["n"],
        build=_build_diversity_error,
    )
