"""Experiment E3b: Phase 1 — "the rise of the minorities" (Sec 2.1).

Lemma 2.1: from any start, the light mass ``a(t)`` reaches
``(1−ε) n/(w+1)`` within ``O(n w/ε)`` steps and stays there
(exponentially long).  Lemma 2.2: each under-represented dark colour
``A_i`` then climbs to ``(1−3ε) w_i n/(1+w)`` within
``O(w n log n / ε)`` steps — slowly at first (a singleton colour is
rarely sampled) and then increasingly fast, the biased-random-walk
picture the proofs couple against.

The ``n`` sweep runs through the declarative pipeline (one shard per
``(n, seed)``, ``"cell"`` seed scope reproducing the legacy
``spawn(make_rng(base_seed + n), seeds)`` streams).
"""

from __future__ import annotations

import numpy as np

from ..core.weights import WeightTable
from ..engine.aggregate import AggregateSimulation
from .pipeline import ScenarioSpec
from .table import ExperimentTable
from .workloads import worst_case_counts

E3B_PROFILES = {"full": {}, "quick": {"ns": (128, 256), "seeds": 2}}


def hitting_times(
    weights: WeightTable,
    n: int,
    *,
    epsilon: float = 0.2,
    seed: int | np.random.Generator | None = None,
    max_steps_factor: float = 60.0,
) -> dict:
    """T1 (light mass region R1) and T2 (all dark colours risen) from
    the worst-case start, one run."""
    weights = weights.copy()
    w = weights.total
    engine = AggregateSimulation(
        weights, dark_counts=worst_case_counts(n, weights.k), rng=seed
    )
    light_target = (1.0 - epsilon) * n / (w + 1.0)
    dark_targets = (1.0 - 3.0 * epsilon) * weights.dark_shares() * n
    max_steps = int(max_steps_factor * w * w * n * np.log(n))

    t1 = engine.run_until(
        lambda e: e.light_counts().sum() >= light_target,
        max_steps=max_steps,
    )
    t2 = None
    if t1 is not None:
        t2 = engine.run_until(
            lambda e: bool((e.dark_counts() >= dark_targets).all()),
            max_steps=max_steps,
        )
    return {"t1": t1, "t2": t2, "n": n, "w": w, "epsilon": epsilon}


def _measure_phase1(params: dict, rng: np.random.Generator) -> dict:
    """E3b shard: one (T1, T2) hitting-time replication at one ``n``."""
    result = hitting_times(
        WeightTable(params["vector"]), params["n"],
        epsilon=params["epsilon"], seed=rng,
    )
    return {
        "t1": None if result["t1"] is None else int(result["t1"]),
        "t2": None if result["t2"] is None else int(result["t2"]),
    }


def _build_phase1(result) -> ExperimentTable:
    """Aggregate E3b shards into the Lemma 2.1/2.2 scaling table."""
    epsilon = result.spec.fixed["epsilon"]
    w = WeightTable(result.spec.fixed["vector"]).total
    table = ExperimentTable(
        "E3b",
        "Phase 1 hitting times: light mass (Lemma 2.1) and minority "
        "rise (Lemma 2.2)",
        ["n", "mean T1", "T1/(n w)", "mean T2", "T2/(w n ln n)", "hits"],
    )
    for params, values in result.by_cell():
        n = params["n"]
        t1s = [v["t1"] for v in values if v["t1"] is not None]
        t2s = [v["t2"] for v in values if v["t2"] is not None]
        mean_t1 = float(np.mean(t1s)) if t1s else None
        mean_t2 = float(np.mean(t2s)) if t2s else None
        table.add_row(
            n,
            "-" if mean_t1 is None else mean_t1,
            "-" if mean_t1 is None else mean_t1 / (n * w),
            "-" if mean_t2 is None else mean_t2,
            "-" if mean_t2 is None else mean_t2 / (w * n * np.log(n)),
            f"{len(t1s)}/{len(t2s)}",
        )
    table.add_note(
        f"epsilon={epsilon}: targets a ≥ (1−ε)n/(w+1) and "
        "A_i ≥ (1−3ε)·w_i n/(1+w) for all i"
    )
    table.add_note(
        "expected shape: T1/(n w) and T2/(w n ln n) roughly constant "
        "in n (the paper's Phase-1 bounds, constants unoptimised)"
    )
    return table


def spec_phase1(
    ns=(256, 512, 1024, 2048),
    weight_vector=(1.0, 2.0, 3.0),
    *,
    epsilon: float = 0.2,
    seeds: int = 3,
    base_seed: int = 777,
) -> ScenarioSpec:
    """E3b: Phase-1 hitting times vs the Lemma 2.1/2.2 scales.

    Expected shape: ``T1/(n w)`` roughly flat in ``n`` (Lemma 2.1's
    ``O(n w/ε)``); ``T2/(w n ln n)`` roughly flat (Lemma 2.2's
    ``O(w n log n / ε)``).  The scenario is an ``n`` sweep with
    ``seeds`` shards per point.
    """
    return ScenarioSpec(
        name="e3b",
        measure=_measure_phase1,
        grid={"n": tuple(ns)},
        fixed={"vector": tuple(weight_vector), "epsilon": epsilon},
        replications=seeds,
        base_seed=base_seed,
        seed_scope="cell",
        cell_seed=lambda params: base_seed + params["n"],
        build=_build_phase1,
    )
