"""Tests of the benchmark's own logic: span self times, metric names,
and correctness checks that must fail (and count) on tampered outputs.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self time ---------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > a [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert list(spans.self_times(parent, start, end)) == [3.0, 2.0, 1.0, 4.0]
    entries, seconds = spans.layer_totals([2, 0, 1, 0], parent, start, end, 3)
    assert list(entries) == [2, 1, 1]
    assert list(seconds) == [6.0, 1.0, 3.0]


def test_nested_calls_within_one_layer_enter_it_once():
    # a [0, 6] > a [1, 5] > b [2, 3]
    entries, seconds = spans.layer_totals(
        [0, 0, 1], [-1, 0, 1], [0.0, 1.0, 2.0], [6.0, 5.0, 3.0], 2
    )
    assert list(entries) == [1, 1]
    assert list(seconds) == [5.0, 1.0]


FIXTURE = """
class Engine:
    def __init__(self):
        self.time = 0

    def run(self, steps):
        for _ in range(steps):
            self.step()
        return counted(self)

    def step(self):
        self.time += 1


def helper(engine):
    return engine.time


counted = helper  # an alias must be traced too
"""


def test_tracer_wraps_class_and_module_functions(monkeypatch, tmp_path):
    module = types.ModuleType("repro._perfbench_fixture")
    exec(FIXTURE, module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original_run, original_helper = module.Engine.run, module.helper
    layers = (
        spans.Layer("engine.fixture", "engine.fixture.calls",
                    "engine.fixture.self_s",
                    (spans.Target(module.__name__, "Engine"),)),
        spans.Layer("fixture.helper", "fixture.helper_calls",
                    "fixture.helper_s",
                    (spans.Target(module.__name__, None, ("helper",)),)),
    )
    tracer = spans.Tracer(layers)
    tracer.install()
    try:
        assert tracer.span(lambda: module.Engine().run(3)) == 3
    finally:
        tracer.uninstall()
    tracer.settle()
    assert module.Engine.run is original_run
    assert module.counted is module.helper is original_helper
    # root, __init__, run, 3 x step, helper
    assert tracer.spans == 7
    totals = tracer.totals()
    # __init__ and run enter the engine layer; step nests inside run.
    assert totals["engine.fixture"][0] == 2
    assert totals["fixture.helper"][0] == 1
    assert tracer.counters["engine.interactions"] == 3
    own = sum(seconds for _, seconds in totals.values())
    assert own == pytest.approx(tracer.end[0] - tracer.start[0])
    # Saved spans reload into another tracer unchanged.
    tracer.save(tmp_path / "spans.npz")
    merged = spans.Tracer(layers)
    merged.absorb(tmp_path / "spans.npz")
    merged.absorb(tmp_path / "spans.npz")
    assert merged.spans == 2 * tracer.spans
    assert merged.totals()["engine.fixture"][0] == 4
    assert merged.counters["engine.interactions"] == 6


# -- metric names ------------------------------------------------------


def _traced_metrics() -> dict:
    tracer = spans.Tracer()
    tracer.imports.append(1.0)
    fake = run.Run(workload=None, tracer=tracer)
    fake.traced, fake.untraced = [1.0], [1.0]
    return run.per_layer(fake)


def test_metric_names_are_well_formed_and_declared():
    doc = benchmark_json()
    declared = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    declared += [w["name"] for w in doc["workloads"]]
    for name in declared + list(_traced_metrics()) + list(run.END_TO_END_UNITS):
        assert NAME.fullmatch(name), name
    assert len(declared) == len(set(declared))
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in doc["per_layer"]] == list(_traced_metrics())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in doc["per_layer"]}
    for name, (_, unit) in _traced_metrics().items():
        assert units[name] == unit


def test_machine_signature_matches_collect():
    spec = importlib.util.spec_from_file_location(
        "collect", ROOT / "benchmarks" / "collect.py"
    )
    collect = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(collect)
    assert run.machine_signature() == collect.machine_signature()


# -- correctness checks ------------------------------------------------


def _cli_stdout(tables: list[str]) -> str:
    """What ``repro run`` prints: each table, then a blank line."""
    return "".join(table.rstrip("\n") + "\n\n" for table in tables)


def test_tampered_golden_fails_and_counts_in_error_rate():
    golden = ROOT / "tests" / "golden"
    goldens = [(golden / f"{n}-quick.txt").read_text() for n in ("e1", "e8")]
    stdout = _cli_stdout(goldens)
    assert workloads.tables_failing(stdout, goldens, [4, 2]) == 0
    # Wall-clock lines are ignored, as in the golden-table suite.
    timed = stdout.replace("\n\n", "\nelapsed 1.5 seconds\n\n", 1)
    assert workloads.tables_failing(timed, goldens, [4, 2]) == 0
    tampered = goldens[1].replace("0", "1", 1)
    assert tampered != goldens[1]
    failed = workloads.tables_failing(stdout, [goldens[0], tampered], [4, 2])
    assert failed == 2
    assert run.error_rate(6, failed) == pytest.approx(1 / 3)
    # Output beyond the last golden fails the last experiment.
    assert workloads.tables_failing(stdout + "extra\n", goldens, [4, 2]) == 2


def test_rows_failing_checks_mass_colours_and_dark_survival():
    dark = [[2, 3], [0, 5], [2, 3]]
    light = [[1, 1], [2, 0], [1, 2]]
    assert workloads.rows_failing(dark, light, [7, 7, 7], [2, 2, 2]) == 2
    assert workloads.rows_failing(dark[:1], light[:1], [7], [3]) == 1


class _SmallSweep(workloads.FusedSweep):
    spec_kwargs = {"weight_vectors": ((1.0, 2.0),), "ns": (24, 30),
                   "rounds": 2, "replications": 3}


@pytest.fixture
def sweep(tmp_path):
    workload = _SmallSweep(ROOT, 5, tmp_path)
    workload.setup()
    workload.before()
    return workload


def test_sweep_replay_is_checked_against_the_cold_pass(sweep):
    assert sweep.check(sweep.run()) == (12, 0)
    assert sweep.cache_stats == {"hits": 6, "misses": 6}


class _TamperedSweep(_SmallSweep):
    """Alters one cached value between the cold pass and the replay."""

    def run(self, traced=False):
        cold = self.execute()
        entry = sorted(self.cache_dir.rglob("*.json"))[0]
        doc = json.loads(entry.read_text())
        counts = doc["value"]["counts"]
        doc["value"]["counts"] = [counts[0] + 1, counts[1] - 1]
        entry.write_text(json.dumps(doc))
        return cold, self.execute()


def test_tampered_cached_value_fails_and_counts_in_error_rate(tmp_path):
    workload = _TamperedSweep(ROOT, 5, tmp_path)
    workload.setup()
    bench = run.Run(workload)
    bench.iterate(traced=False)
    assert (bench.attempted, bench.failed) == (12, 1)
    assert run.error_rate(bench.attempted, bench.failed) == pytest.approx(1 / 12)


def test_cache_miss_fails_the_whole_replay(sweep):
    cold = sweep.execute()
    sorted(sweep.cache_dir.rglob("*.json"))[0].unlink()
    assert sweep.check((cold, sweep.execute())) == (12, 6)


class _Broken(workloads.Workload):
    name = "broken"
    shards = 4

    def run(self, traced=False):
        raise RuntimeError("boom")


def test_failed_iteration_counts_every_operation(capsys):
    bench = run.Run(_Broken(ROOT, 0, None))
    bench.iterate(traced=False)
    assert (bench.attempted, bench.failed, bench.untraced) == (4, 4, [])
    assert "boom" in capsys.readouterr().err
