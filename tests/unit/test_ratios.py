"""The ratio benchmark harness in benchmarks/ratios.py, driven by stub
sides and a fake clock: no engine runs."""

import dataclasses
import importlib.util
import json
import pathlib
import statistics
import sys

import pytest

RATIOS_PATH = (
    pathlib.Path(__file__).resolve().parent.parent.parent
    / "benchmarks"
    / "ratios.py"
)


@pytest.fixture(scope="module")
def ratios():
    spec = importlib.util.spec_from_file_location("bench_ratios", RATIOS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_ratios"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("bench_ratios", None)


class FakeClock:
    """A ``perf_counter`` that only the stub sides advance."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def stub_row(ratios, clock, durations, calls, **fields):
    """A row whose sides log their calls and advance ``clock`` by their
    next duration (the warm-up's first); the durations are dyadic, so
    the clock's differences are exact."""

    def side(name):
        def run(scratch):
            assert scratch.is_dir()
            calls.append(name)
            clock.now += durations[name].pop(0)
            return name

        return run

    fields = {"target": 2.0, "unit": "shards", "work": 12,
              "workload": {}, **fields}
    return ratios.Row("stub", "stub_timing",
                      {"slow": side("slow"), "fast": side("fast")}, **fields)


def constant(ratios, slow, fast):
    """Each side's duration in the warm-up and every timed pair."""
    runs = ratios.PAIRS + 1
    return {"slow": [slow] * runs, "fast": [fast] * runs}


@pytest.mark.parametrize("fixed_order", [False, True])
def test_pairs_alternate_which_side_goes_first(ratios, fixed_order):
    calls = []
    clock = FakeClock()
    row = stub_row(ratios, clock, constant(ratios, 1.0, 0.5), calls,
                   fixed_order=fixed_order)
    ratios.run_row(row, cpus=2, clock=clock)
    pairs = [calls[i:i + 2] for i in range(0, len(calls), 2)]
    assert len(pairs) == ratios.PAIRS + 1
    if fixed_order:
        assert all(pair == ["slow", "fast"] for pair in pairs)
    else:
        assert [pair[0] for pair in pairs] == [
            ("slow", "fast")[index % 2] for index in range(len(pairs))
        ]
        assert all(sorted(pair) == ["fast", "slow"] for pair in pairs)


def test_medians_and_quartiles_over_the_timed_pairs(ratios):
    slow = [5.0, 1.0, 4.0, 2.0, 3.0]
    fast = [0.25, 0.125, 0.5, 0.375, 0.625]
    durations = {"slow": [64.0] + slow, "fast": [64.0] + fast}
    clock = FakeClock()
    record = ratios.run_row(stub_row(ratios, clock, durations, []),
                            cpus=2, clock=clock)
    for name, seconds in (("slow", slow), ("fast", fast)):
        side = record["sides"][name]
        q1, median, q3 = statistics.quantiles(
            seconds, n=4, method="inclusive"
        )
        assert side["samples_s"] == seconds  # the warm-up is untimed
        assert side["median_s"] == median
        assert side["quartiles_s"] == [q1, q3]
        assert side["shards_per_s"] == 12 / median
    assert record["speedup"] == 3.0 / 0.375
    assert record["target_speedup"] == 2.0
    assert record["failures"] == []


@pytest.mark.parametrize(
    "target, gate, code",
    [(0.0, True, 0), (float("inf"), True, 1), (0.0, False, 1)],
    ids=["meets", "missed-target", "failed-gate"],
)
def test_exit_code(ratios, monkeypatch, tmp_path, target, gate, code):
    row = stub_row(
        ratios, FakeClock(), constant(ratios, 0.0, 0.0), [],
        target=target, gates=lambda outputs, scratch: (
            {"seen": sorted(outputs)}, {"stub gate": gate}
        ),
    )
    monkeypatch.setattr(ratios, "ROWS", {"stub": row})
    monkeypatch.setattr(ratios, "RESULTS_DIR", tmp_path)
    assert ratios.main(["stub"]) == code
    record = json.loads((tmp_path / "stub_timing.json").read_text())
    assert record["seen"] == ["fast", "slow"]
    assert record["target_speedup"] == target
    assert "speedup" in record


def test_a_gate_failing_in_one_timed_pair_fails_the_row(ratios):
    verdicts = iter([True, True, True, False, True, True])
    clock = FakeClock()
    row = stub_row(
        ratios, clock, constant(ratios, 1.0, 0.25), [],
        gates=lambda outputs, scratch: ({}, {"stub gate": next(verdicts)}),
    )
    record = ratios.run_row(row, cpus=2, clock=clock)
    assert record["gates"] == {"stub gate": False}
    assert record["failures"] == ["gate failed: stub gate"]


def test_unknown_row_is_a_usage_error(ratios):
    with pytest.raises(SystemExit) as info:
        ratios.main(["e99"])
    assert info.value.code == 2


def test_e15_target_is_waived_below_4_cpus(ratios):
    def record(cpus):
        clock = FakeClock()
        stub = stub_row(ratios, clock, constant(ratios, 1.0, 1.0), [])
        row = dataclasses.replace(
            ratios.ROWS["e15"], sides=stub.sides, gates=None
        )
        return ratios.run_row(row, cpus=cpus, clock=clock)

    assert record(2)["target_applies"] is False
    assert record(2)["failures"] == []
    assert record(4)["failures"] == ["speedup 1.00x below the 2x target"]


def test_declared_targets_and_result_files(ratios):
    assert {
        name: (row.target, row.stem) for name, row in ratios.ROWS.items()
    } == {
        "e13": (5.0, "e13_batched_timing"),
        "e14": (5.0, "e14_array_engine_timing"),
        "e15": (2.0, "e15_parallel_sweep_timing"),
        "e16": (4.0, "e16_adversarial_batch_timing"),
        "e17": (3.0, "e17_fused_sweep_timing"),
        "e19": (10.0, "e19_cache_timing"),
    }
    assert [name for name, row in ratios.ROWS.items() if row.fixed_order] == [
        "e19"
    ]
