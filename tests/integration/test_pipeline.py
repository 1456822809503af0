"""Integration tests for the declarative experiment pipeline: plan
expansion, seed scopes, serial/parallel determinism, shard failure
reporting and the JSON artifact round-trip."""

import json

import numpy as np
import pytest

from repro.core.weights import WeightTable
from repro.engine.rng import make_rng, spawn, spawn_sequences
from repro.experiments.convergence import (
    measure_stabilised_error,
    spec_diversity_error,
)
from repro.experiments.export import (
    load_plan,
    plan_table,
    save_plan,
)
from repro.experiments.pipeline import (
    ProcessExecutor,
    ScenarioSpec,
    SerialExecutor,
    ShardError,
    execute,
    make_executor,
    plan,
)
from repro.experiments.report import format_table


def _echo_measure(params, rng):
    """Returns its params and the first draw — pins seed derivations."""
    return {"params": dict(params), "draw": float(rng.random())}


_CALLS: list[str] = []


def _failing_measure(params, rng):
    """Fails on one marked cell, succeeds elsewhere."""
    _CALLS.append(params["x"])
    if params["x"] == "bad":
        raise RuntimeError("boom in the measurement")
    return {"x": params["x"]}


class TestSpecValidation:
    def test_unknown_seed_scope_rejected(self):
        with pytest.raises(ValueError, match="seed_scope"):
            ScenarioSpec(name="t", measure=_echo_measure, seed_scope="odd")

    def test_cell_seed_defaults_to_base_seed(self):
        spec = ScenarioSpec(
            name="t", measure=_echo_measure, grid={"a": (1, 2)},
            base_seed=404, seed_scope="direct",
        )
        result = execute(spec)
        expected = float(np.random.default_rng(404).random())
        assert [v["draw"] for v in result.values()] == [expected, expected]

    def test_direct_scope_rejects_replications(self):
        with pytest.raises(ValueError, match="direct"):
            ScenarioSpec(
                name="t", measure=_echo_measure, seed_scope="direct",
                cell_seed=lambda p: 0, replications=3,
            )

    def test_at_least_one_replication(self):
        with pytest.raises(ValueError, match="replication"):
            ScenarioSpec(
                name="t", measure=_echo_measure, replications=0
            )


class TestPlanExpansion:
    def test_grid_product_order_outer_axis_first(self):
        spec = ScenarioSpec(
            name="t",
            measure=_echo_measure,
            grid={"a": (1, 2), "b": ("x", "y")},
            fixed={"c": 7},
        )
        cells = plan(spec).cells
        assert cells == [
            {"c": 7, "a": 1, "b": "x"},
            {"c": 7, "a": 1, "b": "y"},
            {"c": 7, "a": 2, "b": "x"},
            {"c": 7, "a": 2, "b": "y"},
        ]

    def test_empty_grid_is_one_cell(self):
        spec = ScenarioSpec(
            name="t", measure=_echo_measure, fixed={"c": 1}
        )
        expanded = plan(spec)
        assert expanded.cells == [{"c": 1}]
        assert len(expanded.shards) == 1

    def test_shard_indices_and_replications(self):
        spec = ScenarioSpec(
            name="t", measure=_echo_measure, grid={"a": (1, 2)},
            replications=3,
        )
        shards = plan(spec).shards
        assert [s.index for s in shards] == list(range(6))
        assert [s.cell for s in shards] == [0, 0, 0, 1, 1, 1]
        assert [s.replication for s in shards] == [0, 1, 2, 0, 1, 2]


class TestSeedScopes:
    """The three scopes reproduce the legacy seeding idioms exactly."""

    def test_stream_scope_matches_shared_generator_spawn(self):
        spec = ScenarioSpec(
            name="t", measure=_echo_measure, grid={"a": (1, 2, 3)},
            replications=2, base_seed=1234, seed_scope="stream",
        )
        result = execute(spec)
        # Legacy idiom: one generator, spawn(rng, R) per cell in order.
        rng = make_rng(1234)
        legacy = []
        for _ in range(3):
            legacy.extend(
                float(child.random()) for child in spawn(rng, 2)
            )
        assert [v["draw"] for v in result.values()] == legacy

    def test_cell_scope_matches_per_cell_spawn(self):
        base = 509
        spec = ScenarioSpec(
            name="t", measure=_echo_measure, grid={"n": (64, 96)},
            replications=2, base_seed=base, seed_scope="cell",
            cell_seed=lambda params: base + params["n"],
        )
        result = execute(spec)
        legacy = []
        for n in (64, 96):
            legacy.extend(
                float(child.random())
                for child in spawn(make_rng(base + n), 2)
            )
        assert [v["draw"] for v in result.values()] == legacy

    def test_direct_scope_matches_raw_seed(self):
        spec = ScenarioSpec(
            name="t", measure=_echo_measure, grid={"a": ("p", "q")},
            base_seed=404, seed_scope="direct",
            cell_seed=lambda params: 404,
        )
        result = execute(spec)
        # Legacy idiom: the same integer seed passed to every run.
        expected = float(np.random.default_rng(404).random())
        assert [v["draw"] for v in result.values()] == [expected, expected]

    def test_spawn_sequences_prefix_stable(self):
        long = spawn_sequences(77, 5)
        short = spawn_sequences(77, 2)
        for a, b in zip(short, long):
            assert np.random.default_rng(a).random() == \
                np.random.default_rng(b).random()


def _shard_words(spec):
    return [
        shard.seed.generate_state(2).tolist() for shard in plan(spec).shards
    ]


class TestSeedScopesIndexDeterministic:
    """Per-shard seeds depend only on (spec, index) for every scope —
    the foundation of bit-identical pipeline resume: skipping completed
    shards cannot change the remaining shards' seeds."""

    def test_stream_scope(self):
        spec = ScenarioSpec(
            name="t",
            measure=_echo_measure,
            grid={"n": [8, 16]},
            replications=3,
            base_seed=5,
            seed_scope="stream",
        )
        assert _shard_words(spec) == _shard_words(spec)

    def test_cell_scope(self):
        spec = ScenarioSpec(
            name="t",
            measure=_echo_measure,
            grid={"n": [8, 16]},
            replications=2,
            base_seed=5,
            seed_scope="cell",
            cell_seed=lambda params: params["n"] * 1000,
        )
        assert _shard_words(spec) == _shard_words(spec)

    def test_direct_scope(self):
        spec = ScenarioSpec(
            name="t",
            measure=_echo_measure,
            grid={"n": [8, 16]},
            replications=1,
            base_seed=5,
            seed_scope="direct",
            cell_seed=lambda params: params["n"],
        )
        assert _shard_words(spec) == _shard_words(spec)

    def test_suffix_stable_under_prefix_removal(self):
        """The seeds of shards 2.. are the same whether or not shards
        0..1 are (re)planned — resume never reseeds remaining work."""
        spec = ScenarioSpec(
            name="t",
            measure=_echo_measure,
            grid={"n": [8, 16, 32]},
            replications=2,
            base_seed=9,
            seed_scope="stream",
        )
        first = _shard_words(spec)
        second = _shard_words(spec)
        assert first[2:] == second[2:]


class TestExecutorDeterminism:
    def test_serial_and_parallel_results_bit_identical(self):
        spec = spec_diversity_error(
            ns=(64, 96), weight_vector=(1.0, 2.0), seeds=2
        )
        serial = execute(spec)
        parallel = execute(spec, jobs=2)
        assert isinstance(serial.jobs, int) and serial.jobs == 1
        assert parallel.jobs == 2
        assert serial.values() == parallel.values()
        assert serial.table().render() == parallel.table().render()

    def test_pipeline_reproduces_legacy_sweep_loop(self):
        base_seed = 509
        ns = (64, 96)
        seeds = 2
        weights = WeightTable((1.0, 2.0))
        legacy = {
            n: [
                measure_stabilised_error(weights, n, seed=child)
                for child in spawn(make_rng(base_seed + n), seeds)
            ]
            for n in ns
        }
        result = execute(
            spec_diversity_error(
                ns=ns, weight_vector=(1.0, 2.0), seeds=seeds,
                base_seed=base_seed,
            )
        )
        piped = {
            params["n"]: [value["error"] for value in values]
            for params, values in result.by_cell()
        }
        assert piped == legacy

    def test_make_executor_dispatch(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(4), ProcessExecutor)
        with pytest.raises(ValueError):
            ProcessExecutor(1)


class TestShardFailure:
    def _spec(self):
        return ScenarioSpec(
            name="exploding-exp",
            measure=_failing_measure,
            grid={"x": ("ok", "bad", "ok2")},
        )

    def test_serial_failure_names_experiment_and_params(self):
        with pytest.raises(ShardError) as excinfo:
            execute(self._spec())
        message = str(excinfo.value)
        assert "exploding-exp" in message
        assert "'x': 'bad'" in message
        assert "boom in the measurement" in message
        assert excinfo.value.params == {"x": "bad"}

    def test_parallel_failure_names_experiment_and_params(self):
        with pytest.raises(ShardError) as excinfo:
            execute(self._spec(), jobs=2)
        message = str(excinfo.value)
        assert "exploding-exp" in message
        assert "'x': 'bad'" in message

    def test_serial_execution_fails_fast(self):
        _CALLS.clear()
        with pytest.raises(ShardError):
            execute(self._spec())
        # The shard after the failing one never ran.
        assert _CALLS == ["ok", "bad"]


class TestArtifactRoundTrip:
    @pytest.fixture
    def executed(self):
        spec = spec_diversity_error(
            ns=(64, 96), weight_vector=(1.0, 2.0), seeds=2
        )
        result = execute(spec)
        return result, result.table()

    def test_reloaded_table_renders_identically(self, executed, tmp_path):
        result, table = executed
        path = save_plan(result, table, tmp_path, profile="quick")
        assert path.name == "e2-quick.json"
        payload = load_plan(path)
        reloaded = plan_table(payload)
        assert reloaded.render() == table.render()
        assert format_table(reloaded.headers, reloaded.rows) == \
            format_table(table.headers, table.rows)

    def test_payload_records_spec_and_shards(self, executed, tmp_path):
        result, table = executed
        payload = load_plan(save_plan(result, table, tmp_path))
        assert payload["experiment"] == "e2"
        assert payload["spec"]["seed_scope"] == "cell"
        assert payload["spec"]["base_seed"] == 509
        assert payload["spec"]["grid"]["n"] == [64, 96]
        assert payload["spec"]["measure"].endswith("_measure_stabilised")
        assert len(payload["shards"]) == 4
        for entry in payload["shards"]:
            assert entry["seconds"] >= 0
            assert "error" in entry["value"]
        # The recorded per-shard seeds rebuild the exact streams used.
        for entry, shard_result in zip(payload["shards"], result.results):
            rebuilt = np.random.SeedSequence(
                entry["seed"]["entropy"],
                spawn_key=tuple(entry["seed"]["spawn_key"]),
            )
            assert (
                np.random.default_rng(rebuilt).random()
                == np.random.default_rng(
                    np.random.SeedSequence(
                        shard_result.shard.seed.entropy,
                        spawn_key=shard_result.shard.seed.spawn_key,
                    )
                ).random()
            )
        # The whole artifact is valid JSON end to end.
        json.dumps(payload)

    def test_load_plan_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="repro-plan"):
            load_plan(path)
