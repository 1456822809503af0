"""Unit tests for the mega-batch fusion layer: grouping, scatter
order, fallback behaviour, group seeding, error surfacing — and the
slimmed ProcessExecutor task payload."""

import pickle

import numpy as np
import pytest

from repro.experiments.fusion import (
    FusedMeasurement,
    FusedPlan,
    execute_fused,
    fuse,
    fused_implementation,
    fused_rng,
    measure_sweep_final_counts,
    register_fused,
    spec_fused_sweep,
)
from repro.experiments.pipeline import (
    ScenarioSpec,
    ShardError,
    execute,
    plan,
)


def _echo_measure(params, rng):
    return {"cell": params["a"], "draw": float(rng.random())}


def _echo_fused(spec, shards):
    return [
        {"cell": shard.params["a"], "fused": True} for shard in shards
    ]


def _register_echo(group_key):
    register_fused(
        _echo_measure,
        FusedMeasurement(
            family="test", group_key=group_key, run_group=_echo_fused
        ),
    )


@pytest.fixture
def echo_spec():
    return ScenarioSpec(
        name="echo",
        measure=_echo_measure,
        grid={"a": (1, 2, 3)},
        replications=2,
        base_seed=5,
    )


class TestFuseGrouping:
    def test_unregistered_measure_falls_back_per_shard(self, echo_spec):
        register_fused(_echo_measure, None)  # clear any earlier impl
        fused = fuse(plan(echo_spec))
        assert isinstance(fused, FusedPlan)
        assert fused.fused_shards == 0
        assert fused.fallback_shards == 6
        assert all(len(job.shards) == 1 for job in fused.jobs)

    def test_single_group_key_makes_one_mega_job(self, echo_spec):
        _register_echo(lambda params: "all")
        fused = fuse(plan(echo_spec))
        assert fused.fused_shards == 6
        assert fused.fallback_shards == 0
        assert len(fused.jobs) == 1

    def test_incompatible_params_fall_back(self, echo_spec):
        _register_echo(
            lambda params: None if params["a"] == 2 else "rest"
        )
        fused = fuse(plan(echo_spec))
        assert fused.fused_shards == 4
        assert fused.fallback_shards == 2

    def test_distinct_keys_make_distinct_groups(self, echo_spec):
        _register_echo(lambda params: params["a"] % 2)
        fused = fuse(plan(echo_spec))
        mega = [job for job in fused.jobs if job.impl is not None]
        assert sorted(len(job.shards) for job in mega) == [2, 4]

    def test_registry_lookup(self, echo_spec):
        _register_echo(lambda params: "all")
        assert fused_implementation(_echo_measure).family == "test"
        assert fused_implementation(measure_sweep_final_counts) is not None

    @pytest.mark.parametrize("profile", ["quick", "full"])
    def test_no_registry_experiment_fuses(self, profile):
        # So `repro run` has no fused path, and rejects a fuse-raise
        # fault as one that never fires.
        from repro.experiments import REGISTRY

        for name, definition in REGISTRY.items():
            spec = definition.spec(**definition.profiles[profile])
            assert fuse(plan(spec)).fused_shards == 0, name


class TestFusedExecution:
    def test_values_scatter_back_to_shard_order(self, echo_spec):
        _register_echo(lambda params: params["a"] % 2)
        result = execute_fused(echo_spec)
        assert [v["cell"] for v in result.values()] == [
            1, 1, 2, 2, 3, 3
        ]
        assert all(v["fused"] for v in result.values())
        assert all(r.seconds >= 0 for r in result.results)

    def test_fallback_only_plan_matches_serial_bit_for_bit(self, echo_spec):
        """With no fused impl the fused path runs the same per-shard
        worker with the same per-shard seeds — results are identical,
        not just equivalent."""
        register_fused(_echo_measure, None)
        assert (
            execute(echo_spec, fused=True).values()
            == execute(echo_spec).values()
        )

    def test_fallback_shards_honour_jobs(self, echo_spec):
        """fused=True composes with jobs: fallback shards route
        through the process pool, bit-identical to the serial path."""
        register_fused(_echo_measure, None)
        pooled = execute(echo_spec, fused=True, jobs=2)
        assert pooled.jobs == 2
        assert pooled.values() == execute(echo_spec).values()

    def test_fused_impl_errors_surface_as_shard_errors(self, echo_spec):
        def boom(spec, shards):
            raise RuntimeError("fused boom")

        register_fused(
            _echo_measure,
            FusedMeasurement("test", lambda p: "all", boom),
        )
        with pytest.raises(ShardError, match="fused boom"):
            execute(echo_spec, fused=True)

    def test_group_error_lists_every_member_shard(self, echo_spec):
        """A mega-batch group fails as one engine call; its error must
        enumerate every member shard's params, not just the first — the
        first shard's cell is rarely the one that broke the batch."""
        def boom(spec, shards):
            raise RuntimeError("fused boom")

        register_fused(
            _echo_measure,
            FusedMeasurement("test", lambda p: "all", boom),
        )
        with pytest.raises(ShardError) as excinfo:
            execute(echo_spec, fused=True)
        message = str(excinfo.value)
        assert "group members:" in message
        for a in (1, 2, 3):
            assert f"'a': {a}" in message
        for shard in plan(echo_spec).shards:
            assert f"shard {shard.index} (cell {shard.cell}" in message

    def test_wrong_value_count_is_rejected(self, echo_spec):
        register_fused(
            _echo_measure,
            FusedMeasurement(
                "test", lambda p: "all", lambda spec, shards: [{}]
            ),
        )
        with pytest.raises(ShardError, match="returned 1 values") as excinfo:
            execute(echo_spec, fused=True)
        assert "group members:" in str(excinfo.value)


class TestFusedRng:
    def test_deterministic_in_the_shard_seeds(self, echo_spec):
        shards = plan(echo_spec).shards
        a = fused_rng(shards).random(4)
        b = fused_rng(plan(echo_spec).shards).random(4)
        np.testing.assert_array_equal(a, b)

    def test_depends_on_every_member(self, echo_spec):
        shards = plan(echo_spec).shards
        full = fused_rng(shards).random()
        assert fused_rng(shards[:-1]).random() != full

    def test_does_not_disturb_per_shard_streams(self, echo_spec):
        shards = plan(echo_spec).shards
        before = np.random.default_rng(shards[0].seed).random()
        fused_rng(shards)
        after = np.random.default_rng(shards[0].seed).random()
        assert before == after


class TestSweepSpec:
    def test_default_grid_is_24_cells(self):
        spec = spec_fused_sweep()
        expanded = plan(spec)
        assert len(expanded.cells) == 24
        assert len(expanded.shards) == 24 * 50

    def test_fused_and_serial_agree_on_structure(self):
        spec = spec_fused_sweep(
            weight_vectors=((1.0, 2.0),), ns=(40,), rounds=5,
            replications=3,
        )
        fused = execute(spec, fused=True)
        serial = execute(spec)
        assert len(fused.values()) == len(serial.values()) == 3
        for value in fused.values() + serial.values():
            assert sum(value["counts"]) == 40


class TestSlimExecutorTasks:
    """The supervised process pool ships ``(params, seed)`` per shard;
    the measurement callable travels once per worker, at spawn, instead
    of once per task."""

    def test_per_shard_payload_shrank(self):
        expanded = plan(spec_fused_sweep(replications=2))
        shard = expanded.shards[0]
        slim = pickle.dumps((shard.params, shard.seed))
        legacy = pickle.dumps(
            (expanded.spec.measure, shard.params, shard.seed)
        )
        assert len(slim) < len(legacy)

    def test_slim_task_has_no_measure(self):
        expanded = plan(spec_fused_sweep(replications=2))
        task = (expanded.shards[0].params, expanded.shards[0].seed)
        assert b"measure_sweep_final_counts" not in pickle.dumps(task)
