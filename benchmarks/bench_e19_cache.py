"""E19 — content-addressed shard result cache: a warm re-run of a
sweep replays every shard from the on-disk store
(:class:`~repro.experiments.cache.ShardCache`), so it costs file reads
instead of engine time; an *overlapping* sweep computes only its new
cells.

Three gates, all asserted here (and in CI's warm-vs-cold job):

* **speedup** — the warm re-run of the 96-shard acceptance sweep must
  be >= 10x faster than the cold run (measured ~100x on the dev box);
* **bit identity** — the tables rendered from the no-cache, cold
  (compute + store) and warm (replay) runs must match byte for byte
  (cached values round-trip through JSON exactly);
* **partial overlap** — a second sweep sharing half its cells with the
  first must hit exactly the shared shards and compute exactly the new
  ones (hit/miss counts asserted).  The sweep uses ``"cell"`` seed
  scope, where shard seeds derive from cell parameters, so shared
  cells keep their content addresses when the grid changes.

The fused mega-batch path is exercised too: its groups partition into
hits and misses, a warm fused re-run is all hits and byte-identical to
the cold fused run, and fused values live in their own ``fused:*`` key
space (never replayed onto the bit-identical per-shard path).

Runs as a plain script (``python benchmarks/bench_e19_cache.py``)
writing ``benchmarks/results/e19_cache_timing.json`` for the CI
artifact, and under pytest like the other benches.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time

from repro.experiments.fusion import measure_sweep_final_counts
from repro.experiments.pipeline import ScenarioSpec, execute, plan
from repro.experiments.report import format_table
from repro.experiments.table import ExperimentTable

REPLICATIONS = 6
ROUNDS = 12
BASE_SEED = 9119
VECTORS = (
    (1.0, 1.0, 1.0),
    (1.0, 2.0, 3.0),
    (1.0, 2.0, 3.0, 4.0),
    (1.0, 3.0, 9.0),
)
NS_BASE = (300, 340, 380, 420)
# Half the populations shared with NS_BASE, half new: the overlapping
# sweep must hit 4 vectors x 2 shared ns x R shards and compute the
# rest.
NS_OVERLAP = (380, 420, 460, 500)
TARGET_SPEEDUP = 10.0

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "e19_cache_timing.json"
)


def _cell_seed(params: dict) -> int:
    """Deterministic per-cell seed from the cell parameters alone, so
    overlapping grids keep their shards' content addresses."""
    vector_tag = sum(
        (index + 1) * round(weight * 10)
        for index, weight in enumerate(params["vector"])
    )
    return BASE_SEED + 7919 * int(params["n"]) + vector_tag


def make_spec(ns=NS_BASE) -> ScenarioSpec:
    """The acceptance sweep: 4 weight vectors x 4 population sizes =
    16 cells x R=6 cell-seeded replications (96 shards)."""
    return ScenarioSpec(
        name="e19",
        measure=measure_sweep_final_counts,
        grid={
            "vector": tuple(tuple(v) for v in VECTORS),
            "n": tuple(int(n) for n in ns),
        },
        fixed={"rounds": ROUNDS, "start": "worst"},
        replications=REPLICATIONS,
        base_seed=BASE_SEED,
        seed_scope="cell",
        cell_seed=_cell_seed,
    )


def build_table(result) -> ExperimentTable:
    """Mean final count per colour, one row per cell — the rendered
    string is the byte-identity gate between cached and computed runs."""
    rows = []
    for params, values in result.by_cell():
        means = [
            sum(value["counts"][colour] for value in values) / len(values)
            for colour in range(len(params["vector"]))
        ]
        rows.append(
            [
                "/".join(f"{w:g}" for w in params["vector"]),
                params["n"],
                " ".join(f"{mean:.6f}" for mean in means),
            ]
        )
    return ExperimentTable(
        experiment="E19",
        title="shard-cache acceptance sweep: mean final counts per cell",
        headers=["weights", "n", "mean final counts"],
        rows=rows,
    )


def measure() -> dict:
    """Cold vs warm vs overlapping runs against one cache directory."""
    spec = make_spec()
    shards = len(plan(spec).shards)
    with tempfile.TemporaryDirectory(prefix="repro-e19-cache-") as root:
        cache_dir = pathlib.Path(root) / "cache"

        plain = execute(spec)  # no cache: the freshly-computed reference
        start = time.perf_counter()
        cold = execute(spec, cache=cache_dir)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = execute(spec, cache=cache_dir)
        warm_seconds = time.perf_counter() - start

        tables = {
            name: build_table(result).render()
            for name, result in (
                ("plain", plain), ("cold", cold), ("warm", warm),
            )
        }
        bit_identical = (
            tables["plain"] == tables["cold"] == tables["warm"]
        )

        overlap_spec = make_spec(NS_OVERLAP)
        overlap_total = len(plan(overlap_spec).shards)
        shared = (
            len(VECTORS)
            * len(set(NS_BASE) & set(NS_OVERLAP))
            * REPLICATIONS
        )
        start = time.perf_counter()
        partial = execute(overlap_spec, cache=cache_dir)
        partial_seconds = time.perf_counter() - start

        # The fused mega-batch path: groups partition into hits and
        # misses inside their own fused:* key space.
        fused_cold = execute(spec, fused=True, cache=cache_dir)
        fused_warm = execute(spec, fused=True, cache=cache_dir)
        fused_identical = (
            build_table(fused_cold).render()
            == build_table(fused_warm).render()
        )

    return {
        "shards": shards,
        "cells": len(VECTORS) * len(NS_BASE),
        "replications": REPLICATIONS,
        "rounds": ROUNDS,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "target_speedup": TARGET_SPEEDUP,
        "bit_identical_tables": bit_identical,
        "cold_stats": cold.cache_stats,
        "warm_stats": warm.cache_stats,
        "partial_seconds": partial_seconds,
        "partial_stats": partial.cache_stats,
        "partial_expected_hits": shared,
        "partial_expected_misses": overlap_total - shared,
        "fused_cold_stats": fused_cold.cache_stats,
        "fused_warm_stats": fused_warm.cache_stats,
        "fused_bit_identical_tables": fused_identical,
        # Consolidated by benchmarks/collect.py into the summary's
        # cache index: the warm re-run's counters.
        "cache": {
            "hits": warm.cache_stats["hits"],
            "misses": warm.cache_stats["misses"],
        },
    }


def check(timing: dict) -> list[str]:
    """Every acceptance gate, as human-readable failure lines."""
    failures = []
    if timing["speedup"] < timing["target_speedup"]:
        failures.append(
            f"warm speedup {timing['speedup']:.1f}x below the "
            f"{timing['target_speedup']:.0f}x target"
        )
    if not timing["bit_identical_tables"]:
        failures.append("cached and freshly-computed tables differ")
    if timing["cold_stats"]["misses"] != timing["shards"]:
        failures.append(f"cold run not all misses: {timing['cold_stats']}")
    if (
        timing["warm_stats"]["hits"] != timing["shards"]
        or timing["warm_stats"]["misses"] != 0
    ):
        failures.append(f"warm run not all hits: {timing['warm_stats']}")
    if (
        timing["partial_stats"]["hits"] != timing["partial_expected_hits"]
        or timing["partial_stats"]["misses"]
        != timing["partial_expected_misses"]
    ):
        failures.append(
            f"partial overlap computed the wrong cells: "
            f"{timing['partial_stats']} (expected "
            f"{timing['partial_expected_hits']} hits / "
            f"{timing['partial_expected_misses']} misses)"
        )
    if timing["fused_cold_stats"]["hits"] != 0:
        failures.append(
            "fused run replayed per-shard values across key spaces: "
            f"{timing['fused_cold_stats']}"
        )
    if timing["fused_warm_stats"]["misses"] != 0:
        failures.append(
            f"fused warm run not all hits: {timing['fused_warm_stats']}"
        )
    if not timing["fused_bit_identical_tables"]:
        failures.append("fused cached replay diverged from cold fused run")
    return failures


def test_cache_speedup_and_identity(benchmark):
    """Warm re-run >= 10x faster, bit-identical tables, partial
    overlap computes only the miss cells."""
    timing = benchmark.pedantic(
        measure, rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(json.dumps(timing, indent=2))
    assert check(timing) == [], timing


def main() -> int:
    timing = measure()
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(timing, indent=2) + "\n")
    print(json.dumps(timing, indent=2))
    failures = check(timing)
    print(
        format_table(
            ["gate", "result"],
            [
                ["warm speedup",
                 f"{timing['speedup']:.1f}x (target "
                 f"{timing['target_speedup']:.0f}x)"],
                ["bit-identical tables",
                 str(timing["bit_identical_tables"])],
                ["partial overlap",
                 f"{timing['partial_stats']['hits']} hits / "
                 f"{timing['partial_stats']['misses']} misses"],
                ["fused warm replay",
                 f"{timing['fused_warm_stats']['hits']} hits"],
            ],
            title="E19 shard-cache acceptance",
        )
    )
    for line in failures:
        print(f"FAIL: {line}")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
