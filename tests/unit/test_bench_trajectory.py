"""The benchmark trajectory appender/comparator in benchmarks/collect.py."""

import importlib.util
import json
import pathlib
import sys

import pytest

COLLECT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent.parent
    / "benchmarks"
    / "collect.py"
)


@pytest.fixture(scope="module")
def collect_module():
    spec = importlib.util.spec_from_file_location("bench_collect", COLLECT_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_collect"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("bench_collect", None)


def summary_with(speedups):
    return {
        "format": "repro-bench-summary/v1",
        "benchmarks": {},
        "errors": {},
        "speedups": {
            name: {"speedup": value} for name, value in speedups.items()
        },
    }


class TestTrajectory:
    def test_append_creates_and_grows(self, collect_module, tmp_path):
        path = tmp_path / "traj.json"
        collect_module.append_trajectory(
            summary_with({"a": 2.0}), path, "first"
        )
        doc = collect_module.append_trajectory(
            summary_with({"a": 2.1}), path, "second"
        )
        assert doc["format"] == collect_module.TRAJECTORY_FORMAT
        assert [entry["label"] for entry in doc["entries"]] == [
            "first", "second",
        ]
        on_disk = json.loads(path.read_text())
        assert on_disk == doc

    def test_wrong_format_rejected(self, collect_module, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError):
            collect_module.load_trajectory(path)

    def test_committed_seed_file_is_valid(self, collect_module):
        doc = collect_module.load_trajectory(
            COLLECT_PATH.parent / "BENCH_TRAJECTORY.json"
        )
        assert isinstance(doc["entries"], list)


class TestCompare:
    def test_empty_trajectory_never_regresses(self, collect_module):
        trajectory = {"format": collect_module.TRAJECTORY_FORMAT, "entries": []}
        assert (
            collect_module.compare_with_last(
                summary_with({"a": 1.0}), trajectory
            )
            == []
        )

    def test_flags_only_drops_beyond_threshold(self, collect_module, tmp_path):
        path = tmp_path / "traj.json"
        collect_module.append_trajectory(
            summary_with({"fast": 4.0, "steady": 2.0, "gone": 1.5}),
            path,
            "base",
        )
        trajectory = collect_module.load_trajectory(path)
        current = summary_with({"fast": 3.0, "steady": 1.7, "new": 9.0})
        warnings = collect_module.compare_with_last(current, trajectory)
        # fast dropped 25% (> 20%): flagged; steady dropped 15%: not;
        # gone/new have no counterpart: not.
        assert len(warnings) == 1
        assert warnings[0].startswith("fast:")

    def test_threshold_is_configurable(self, collect_module, tmp_path):
        path = tmp_path / "traj.json"
        collect_module.append_trajectory(
            summary_with({"a": 2.0}), path, "base"
        )
        trajectory = collect_module.load_trajectory(path)
        current = summary_with({"a": 1.8})
        assert collect_module.compare_with_last(current, trajectory) == []
        assert collect_module.compare_with_last(
            current, trajectory, threshold=0.05
        )

    def test_append_stamps_machine_signature(self, collect_module, tmp_path):
        path = tmp_path / "traj.json"
        doc = collect_module.append_trajectory(
            summary_with({"a": 2.0}), path, "base"
        )
        machine = doc["entries"][0]["machine"]
        assert machine == collect_module.machine_signature()
        assert set(machine) == {"cpu_count", "platform"}

    def test_cross_machine_baseline_is_skipped(self, collect_module):
        """A 4-core runner's speedups are not a baseline for a 1-core
        box — a structural 4x->1x drop is noise, not a regression."""
        four_core = {"cpu_count": 4, "platform": "Linux-x86_64"}
        one_core = {"cpu_count": 1, "platform": "Linux-x86_64"}
        trajectory = {
            "format": collect_module.TRAJECTORY_FORMAT,
            "entries": [
                {
                    "label": "ci",
                    "machine": four_core,
                    "speedups": {"a": {"speedup": 4.0}},
                }
            ],
        }
        current = summary_with({"a": 1.1})
        assert (
            collect_module.compare_with_last(
                current, trajectory, machine=one_core
            )
            == []
        )
        assert collect_module.compare_with_last(
            current, trajectory, machine=four_core
        )

    def test_legacy_unstamped_entries_never_serve_as_baseline(
        self, collect_module
    ):
        trajectory = {
            "format": collect_module.TRAJECTORY_FORMAT,
            "entries": [
                {"label": "pr7", "speedups": {"a": {"speedup": 4.0}}}
            ],
        }
        assert collect_module.baseline_entry(trajectory) is None
        assert (
            collect_module.compare_with_last(
                summary_with({"a": 1.0}), trajectory
            )
            == []
        )

    def test_baseline_is_newest_same_machine_entry(self, collect_module):
        mine = {"cpu_count": 1, "platform": "Linux-x86_64"}
        other = {"cpu_count": 8, "platform": "Darwin-arm64"}
        trajectory = {
            "format": collect_module.TRAJECTORY_FORMAT,
            "entries": [
                {"label": "old", "machine": mine,
                 "speedups": {"a": {"speedup": 4.0}}},
                {"label": "mid", "machine": mine,
                 "speedups": {"a": {"speedup": 2.0}}},
                {"label": "new-other", "machine": other,
                 "speedups": {"a": {"speedup": 9.0}}},
            ],
        }
        baseline = collect_module.baseline_entry(trajectory, machine=mine)
        assert baseline["label"] == "mid"
        # vs "mid" (2.0x) a 1.9x run is fine; vs "old" (4.0x) it would
        # have been flagged.
        assert (
            collect_module.compare_with_last(
                summary_with({"a": 1.9}), trajectory, machine=mine
            )
            == []
        )

    def test_cli_trajectory_flow(self, collect_module, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "bench_x.json").write_text(
            json.dumps({"speedup": 3.0, "target_speedup": 2.0})
        )
        traj = tmp_path / "traj.json"
        code = collect_module.main(
            [str(results), "--trajectory", str(traj), "--label", "run-1"]
        )
        assert code == 0
        (results / "bench_x.json").write_text(json.dumps({"speedup": 1.0}))
        code = collect_module.main(
            [str(results), "--trajectory", str(traj), "--label", "run-2"]
        )
        assert code == 0  # regression is non-blocking
        out = capsys.readouterr().out
        assert "PERF REGRESSION" in out
        doc = collect_module.load_trajectory(traj)
        assert len(doc["entries"]) == 2


def perfbench_result(workload, seed, trace, metrics):
    """A ``repro-perfbench/v1`` result file's fields that matter here."""
    return {
        "format": "repro-perfbench/v1",
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": {"cpu_count": 2, "platform": "Linux-x86_64"},
        "metrics": {
            name: {"value": value, "unit": "s"}
            for name, value in metrics.items()
        },
    }


class TestPerfbench:
    def write_results(self, results):
        (results / "perfbench-replicas.json").write_text(json.dumps(
            perfbench_result("replicas", 3, 0,
                             {"wall_s": 1.0, "interactions_per_s": 3e6})
        ))
        # Traced runs hold per-layer metrics only: never indexed.
        (results / "perfbench-replicas-traced.json").write_text(json.dumps(
            perfbench_result("replicas", 3, 1, {"engine.batched.self_s": 0.5})
        ))
        (results / "e13_batched_timing.json").write_text(
            json.dumps({"speedup": 6.0, "target_speedup": 5.0})
        )

    def test_untraced_results_are_indexed_by_workload(
        self, collect_module, tmp_path
    ):
        self.write_results(tmp_path)
        summary = collect_module.collect(tmp_path)
        assert summary["perfbench"] == {
            "replicas": {
                "seed": 3,
                "machine": {"cpu_count": 2, "platform": "Linux-x86_64"},
                "metrics": {"interactions_per_s": 3e6, "wall_s": 1.0},
            }
        }
        assert list(summary["speedups"]) == ["e13_batched_timing"]

    def test_trajectory_entry_carries_perfbench_next_to_speedups(
        self, collect_module, tmp_path, capsys
    ):
        results = tmp_path / "results"
        results.mkdir()
        self.write_results(results)
        traj = tmp_path / "traj.json"
        assert collect_module.main(
            [str(results), "--trajectory", str(traj), "--label", "x"]
        ) == 0
        (entry,) = collect_module.load_trajectory(traj)["entries"]
        assert entry["speedups"]["e13_batched_timing"]["speedup"] == 6.0
        assert entry["perfbench"]["replicas"]["metrics"]["wall_s"] == 1.0
        assert "perfbench replicas (seed 3)" in capsys.readouterr().out


class TestCacheCounters:
    def test_collect_indexes_cache_counters(self, collect_module, tmp_path):
        (tmp_path / "e19_cache_timing.json").write_text(
            json.dumps(
                {"speedup": 50.0, "cache": {"hits": 96, "misses": 0}}
            )
        )
        (tmp_path / "e17_timing.json").write_text(
            json.dumps({"speedup": 3.0})
        )
        summary = collect_module.collect(tmp_path)
        assert summary["caches"] == {
            "e19_cache_timing": {"hits": 96, "misses": 0}
        }

    def test_main_prints_cache_lines(self, collect_module, tmp_path, capsys):
        (tmp_path / "e19_cache_timing.json").write_text(
            json.dumps({"cache": {"hits": 12, "misses": 4}})
        )
        assert collect_module.main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache 12 hit(s) / 4 miss(es)" in out
