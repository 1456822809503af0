"""Ratio benchmarks: each fast path timed against the path it replaced.

Each row of ``ROWS`` declares its two sides (slow and fast path, one
workload, fixed seeds), its target speedup, its unit of work and the
gates its outputs must pass.  One loop runs every row: an untimed
warm-up pair, then ``PAIRS`` timed pairs that alternate which side goes
first, with the gates checked after every pair.  Each pair runs in a
fresh scratch directory; E19's pairs keep one order, cold then warm,
on the shard cache they make there.  The speedup is the slow side's
median over the fast side's::

    PYTHONPATH=src python benchmarks/ratios.py [ROW...]

prints a Markdown table (progress goes to stderr), writes each row's
sides (median, quartiles, samples, throughput), speedup and
``target_speedup`` to ``benchmarks/results/<stem>.json`` for
``collect.py``, and exits 1 when a row misses its target or a gate.
E15's target applies on 4 CPUs or more; its gate runs everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.adversary.interventions import AddAgents, AddColour
from repro.adversary.schedule import InterventionSchedule
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine.array_engine import ArraySimulation
from repro.engine.population import Population
from repro.engine.simulator import Simulation
from repro.experiments.convergence import spec_diversity_error
from repro.experiments.fusion import (
    measure_sweep_final_counts,
    spec_fused_sweep,
)
from repro.experiments.pipeline import ScenarioSpec, execute, plan
from repro.experiments.replication import replicate_colour_counts
from repro.experiments.runner import run_aggregate
from repro.experiments.workloads import colours_from_counts, worst_case_counts

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: Timed pairs per row, after the warm-up pair.
PAIRS = 5
WEIGHTS = (1.0, 2.0, 3.0)


@dataclass(frozen=True)
class Row:
    name: str
    #: Result file stem under ``RESULTS_DIR``.
    stem: str
    #: The slow side, then the fast one: ``run(scratch)`` runs a side
    #: once and returns what the gates read.
    sides: dict[str, Callable[[pathlib.Path], object]]
    target: float
    #: "interactions" or "shards", and how many one run of a side does.
    unit: str
    work: int
    workload: dict
    #: ``gates(outputs, scratch) -> (facts, {gate: passed})`` over one
    #: pair's outputs by side name; the last pair's facts join the
    #: result file, and a gate passes if it passes in every pair.
    gates: Callable[[dict, pathlib.Path], tuple[dict, dict]] | None = None
    fixed_order: bool = False
    min_cpus: int = 1


# E13 and E16: R replications of one aggregate configuration, without
# and with E7-style shocks, row-batched against one scalar engine each.
REPLICAS = {"replications": 100, "n": 1000, "weights": list(WEIGHTS),
            "steps": 30_000, "seed": 0}
SHOCKS = "flood n/2 at T/3, new colour (w=2, 1 dark) at 2T/3"


def replicas(batched: bool, shocks: bool) -> Callable:
    n, steps = REPLICAS["n"], REPLICAS["steps"]

    def run(_scratch):
        schedule = InterventionSchedule([
            (steps // 3, AddAgents(colour=0, count=n // 2, dark=True)),
            (2 * steps // 3, AddColour(weight=2.0, count=1, dark=True)),
        ]) if shocks else None
        run_aggregate(
            WeightTable(WEIGHTS), n, steps, seed=REPLICAS["seed"],
            replications=REPLICAS["replications"], schedule=schedule,
            batched=batched,
        )

    return run


# E14: one agent-level run, complete graph, Diversification.
AGENTS = {"n": 10_000, "weights": list(WEIGHTS), "steps": 200_000, "seed": 0}


def agents(array: bool) -> Callable:
    def run(_scratch):
        protocol = Diversification(WeightTable(WEIGHTS))
        colours = colours_from_counts(
            worst_case_counts(AGENTS["n"], len(WEIGHTS))
        )
        if array:
            simulation = ArraySimulation(
                protocol, np.asarray(colours, dtype=np.int64),
                k=len(WEIGHTS), rng=AGENTS["seed"],
            )
        else:
            population = Population.from_colours(
                colours, protocol, k=len(WEIGHTS)
            )
            simulation = Simulation(protocol, population, rng=AGENTS["seed"])
        simulation.run(AGENTS["steps"])

    return run


# E15: a multi-seed E2 sweep, serial against a 4-process pool.
SWEEP = {"ns": [384, 512], "weights": list(WEIGHTS), "seeds": 4,
         "base_seed": 509, "jobs": 4}


def sweep(jobs: int | None) -> Callable:
    def run(_scratch):
        spec = spec_diversity_error(
            ns=SWEEP["ns"], weight_vector=WEIGHTS, seeds=SWEEP["seeds"],
            base_seed=SWEEP["base_seed"],
        )
        return execute(spec, jobs=jobs)

    return run


def identical_merge(outputs, _scratch):
    serial, parallel = outputs["serial"], outputs["parallel"]
    identical = (
        serial.values() == parallel.values()
        and serial.table().render() == parallel.table().render()
    )
    return {}, {"serial and --jobs 4 results are bit-identical": identical}


# E17: a 24-cell x R=50 sweep fused into one heterogeneous engine,
# against one batched engine per cell.  The fused rows share one draw
# stream, so equivalence is a per-cell, per-colour KS test; over 78
# tests of identical laws the floor is Bonferroni-lax.
FUSED = {"replications": 50, "rounds": 30, "base_seed": 1717}
FUSED_SPEC = spec_fused_sweep(**FUSED)
P_FLOOR = 1e-4


def fused(_scratch):
    return execute(FUSED_SPEC, fused=True)


def per_cell(_scratch) -> list[np.ndarray]:
    return [
        replicate_colour_counts(
            WeightTable(params["vector"]), params["n"],
            params["rounds"] * params["n"],
            replications=FUSED["replications"],
            base_seed=FUSED["base_seed"] + index,
        )
        for index, params in enumerate(plan(FUSED_SPEC).cells)
    ]


def ks_equivalence(outputs, _scratch):
    from scipy import stats  # ~1 s to import; only this gate needs it

    pvalues = [
        stats.ks_2samp(
            np.array([value["counts"] for value in values])[:, colour],
            finals[:, colour],
        ).pvalue
        for (params, values), finals in zip(
            outputs["fused"].by_cell(), outputs["per_cell"]
        )
        for colour in range(len(params["vector"]))
    ]
    worst = float(min(pvalues))
    return (
        {"ks_tests": len(pvalues), "ks_min_pvalue": worst,
         "p_floor": P_FLOOR},
        {f"per-cell KS p > {P_FLOOR:g} in all {len(pvalues)} tests":
         worst > P_FLOOR},
    )


# E19: a 16-cell x R=6 sweep run cold into a fresh shard cache, then
# warm from it.  "cell" seed scope derives each shard's seed from its
# cell's parameters, so a grid sharing half its cells keeps their keys.
CACHED = {"replications": 6, "rounds": 12, "base_seed": 9119,
          "vectors": [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0],
                      [1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 9.0]],
          "ns": [300, 340, 380, 420], "overlap_ns": [380, 420, 460, 500]}


def cell_seed(params: dict) -> int:
    vector_tag = sum(
        (index + 1) * round(weight * 10)
        for index, weight in enumerate(params["vector"])
    )
    return CACHED["base_seed"] + 7919 * int(params["n"]) + vector_tag


def cached_spec(ns) -> ScenarioSpec:
    return ScenarioSpec(
        name="e19",
        measure=measure_sweep_final_counts,
        grid={"vector": tuple(tuple(v) for v in CACHED["vectors"]),
              "n": tuple(ns)},
        fixed={"rounds": CACHED["rounds"], "start": "worst"},
        replications=CACHED["replications"],
        base_seed=CACHED["base_seed"],
        seed_scope="cell",
        cell_seed=cell_seed,
    )


CACHED_SPEC = cached_spec(CACHED["ns"])
CACHED_SHARDS = (
    len(CACHED["vectors"]) * len(CACHED["ns"]) * CACHED["replications"]
)


def cached(scratch):
    return execute(CACHED_SPEC, cache=scratch / "cache")


def cache_contract(outputs, scratch):
    """The cold and warm runs against a plain one, then an overlapping
    sweep and a fused cold and warm run on the same cache."""
    cache = scratch / "cache"
    cold, warm = outputs["cold"], outputs["warm"]
    plain = execute(CACHED_SPEC)
    partial = execute(cached_spec(CACHED["overlap_ns"]), cache=cache)
    fused_cold = execute(CACHED_SPEC, fused=True, cache=cache)
    fused_warm = execute(CACHED_SPEC, fused=True, cache=cache)
    stats = {
        name: {key: result.cache_stats[key] for key in ("hits", "misses")}
        for name, result in (
            ("cold", cold), ("warm", warm), ("partial", partial),
            ("fused_cold", fused_cold), ("fused_warm", fused_warm),
        )
    }
    shared = len(CACHED["vectors"]) * CACHED["replications"] * len(
        set(CACHED["ns"]) & set(CACHED["overlap_ns"])
    )
    new = CACHED_SHARDS - shared  # the overlapping grid is as large
    facts = {f"{name}_stats": entry for name, entry in stats.items()}
    facts["cache"] = stats["warm"]  # collect.py's cache index
    return facts, {
        "plain, cold and warm values are identical":
            plain.values() == cold.values() == warm.values(),
        "the cold run misses every shard":
            stats["cold"]["misses"] == CACHED_SHARDS,
        "the warm run hits every shard":
            stats["warm"] == {"hits": CACHED_SHARDS, "misses": 0},
        f"the overlapping sweep hits {shared} and computes {new}":
            stats["partial"] == {"hits": shared, "misses": new},
        "the fused run replays no per-shard value":
            stats["fused_cold"]["hits"] == 0,
        "the fused warm run hits every shard":
            stats["fused_warm"]["misses"] == 0,
        "the fused warm values equal the cold fused values":
            fused_cold.values() == fused_warm.values(),
    }


ROWS = {
    row.name: row
    for row in (
        Row("e13", "e13_batched_timing",
            {"scalar": replicas(batched=False, shocks=False),
             "batched": replicas(batched=True, shocks=False)},
            target=5.0, unit="interactions",
            work=REPLICAS["replications"] * REPLICAS["steps"],
            workload=REPLICAS),
        Row("e14", "e14_array_engine_timing",
            {"scalar": agents(array=False), "array": agents(array=True)},
            target=5.0, unit="interactions", work=AGENTS["steps"],
            workload=AGENTS),
        Row("e15", "e15_parallel_sweep_timing",
            {"serial": sweep(jobs=None), "parallel": sweep(SWEEP["jobs"])},
            target=2.0, unit="shards",
            work=len(SWEEP["ns"]) * SWEEP["seeds"], workload=SWEEP,
            gates=identical_merge, min_cpus=4),
        Row("e16", "e16_adversarial_batch_timing",
            {"scalar": replicas(batched=False, shocks=True),
             "batched": replicas(batched=True, shocks=True)},
            target=4.0, unit="interactions",
            work=REPLICAS["replications"] * REPLICAS["steps"],
            workload={**REPLICAS, "schedule": SHOCKS}),
        Row("e17", "e17_fused_sweep_timing",
            {"per_cell": per_cell, "fused": fused},
            target=3.0, unit="shards", work=len(plan(FUSED_SPEC).shards),
            workload=FUSED, gates=ks_equivalence),
        Row("e19", "e19_cache_timing",
            {"cold": cached, "warm": cached},
            target=10.0, unit="shards", work=CACHED_SHARDS,
            workload=CACHED, gates=cache_contract, fixed_order=True),
    )
}


def side_stats(seconds: list[float], work: int, unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median_s": median, "quartiles_s": [q1, q3],
            "samples_s": seconds, f"{unit}_per_s": work / median}


def run_row(row: Row, cpus: int, clock=time.perf_counter) -> dict:
    """The warm-up pair, then ``PAIRS`` timed pairs, each gated."""
    slow, fast = row.sides
    samples = {slow: [], fast: []}
    facts, gates = {}, {}
    for pair in range(PAIRS + 1):  # pair 0 is the warm-up
        order = (slow, fast)
        if pair % 2 and not row.fixed_order:
            order = (fast, slow)
        with tempfile.TemporaryDirectory(prefix="ratios-") as scratch:
            outputs = {}
            for name in order:
                start = clock()
                outputs[name] = row.sides[name](pathlib.Path(scratch))
                if pair:
                    samples[name].append(clock() - start)
            if row.gates is not None:
                facts, passed = row.gates(outputs, pathlib.Path(scratch))
                for name, ok in passed.items():
                    gates[name] = gates.get(name, True) and ok
    sides = {
        name: side_stats(seconds, row.work, row.unit)
        for name, seconds in samples.items()
    }
    speedup = sides[slow]["median_s"] / sides[fast]["median_s"]
    target_applies = cpus >= row.min_cpus
    failures = [f"gate failed: {name}" for name, ok in gates.items()
                if not ok]
    if target_applies and speedup < row.target:
        failures.append(
            f"speedup {speedup:.2f}x below the {row.target:g}x target"
        )
    return {
        "row": row.name, "workload": row.workload, "pairs": PAIRS,
        "cpus": cpus, "unit": row.unit, "work": row.work,
        "slow": slow, "fast": fast, "sides": sides,
        "speedup": speedup, "target_speedup": row.target,
        "target_applies": target_applies, "gates": gates, **facts,
        "failures": failures,
    }


def render(records: list[dict]) -> str:
    lines = [
        f"### Ratio benchmarks: median [q1-q3] s of {PAIRS} interleaved "
        f"pairs, {records[0]['cpus']} CPUs",
        "",
        "| row | slow side | fast side | fast throughput | speedup "
        "| target | gates | verdict |",
        "| --- | --- | --- | ---: | ---: | ---: | ---: | --- |",
    ]
    for record in records:
        cells = []
        for name in (record["slow"], record["fast"]):
            side = record["sides"][name]
            q1, q3 = side["quartiles_s"]
            cells.append(
                f"{name} {side['median_s']:.3g} [{q1:.3g}-{q3:.3g}]"
            )
        unit = record["unit"]
        throughput = record["sides"][record["fast"]][f"{unit}_per_s"]
        gates = record["gates"]
        verdict = "FAIL" if record["failures"] else "ok"
        if not record["target_applies"]:
            verdict += f" (target waived on {record['cpus']} CPUs)"
        lines.append(
            f"| {record['row']} | {cells[0]} | {cells[1]} "
            f"| {throughput:.3g} {unit}/s | {record['speedup']:.2f}x "
            f"| {record['target_speedup']:g}x "
            f"| {f'{sum(gates.values())}/{len(gates)}' if gates else '-'} "
            f"| {verdict} |"
        )
    lines += [""] + [
        f"- {record['row']}: {failure}"
        for record in records
        for failure in record["failures"]
    ]
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "rows", nargs="*", metavar="ROW",
        help=f"rows to run (default: all of {', '.join(ROWS)})",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.rows if name not in ROWS]
    if unknown:
        parser.error(f"unknown rows: {', '.join(unknown)}")
    cpus = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    records = []
    for name in args.rows or ROWS:
        print(f"{name}: warm-up and {PAIRS} pairs", file=sys.stderr)
        record = run_row(ROWS[name], cpus)
        path = RESULTS_DIR / f"{ROWS[name].stem}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        records.append(record)
    print(render(records), end="")
    return 1 if any(record["failures"] for record in records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
