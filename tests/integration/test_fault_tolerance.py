"""Fault-tolerant sweep execution, end to end.

The contract under test: a sweep with injected transient faults plus a
retry policy produces a merged table *byte-identical* to the fault-free
run on the serial, process-pool and fused paths (retried shards re-run
from the same ``(params, seed)``); a crashed or hung worker is detected
and its shard requeued instead of hanging the pool; a fused group whose
mega-batch keeps failing degrades to per-shard execution; and
``max_failures`` completes the healthy shards with a fault report and
requeue entries instead of dying on the first ShardError.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.export import plan_to_json, save_requeue
from repro.experiments.faults import FaultPlan, RetryPolicy, WorkerFailure
from repro.experiments.fusion import (
    FusedMeasurement,
    execute_fused,
    register_fused,
    spec_fused_sweep,
)
from repro.experiments.pipeline import (
    ExperimentPlan,
    ScenarioSpec,
    ShardError,
    execute,
    plan,
)


def measure_probe(params, rng):
    """Cheap, deterministic in (params, seed) — the bit-identity probe."""
    return {"n": params["n"], "draw": float(rng.random())}


def _fused_probe(spec, shards):
    return [
        {"n": shard.params["n"], "draw": float(shard.index) / 100.0}
        for shard in shards
    ]


def make_spec(**overrides):
    fields = {
        "name": "faults-it",
        "measure": measure_probe,
        "grid": {"n": [8, 16, 32]},
        "replications": 2,
        "base_seed": 41,
        "seed_scope": "stream",
    }
    fields.update(overrides)
    return ScenarioSpec(**fields)


def values(result):
    return [entry.value for entry in result.results]


@pytest.fixture(scope="module")
def clean():
    return execute(make_spec())


class TestSerialRetryIdentity:
    def test_transient_faults_recover_bit_identically(self, clean):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "raise:i0:attempts=1,raise:i3:attempts=2",
            shards=len(expanded.shards), base_seed=spec.base_seed,
        )
        result = execute(
            expanded, retry=RetryPolicy(max_attempts=3), faults=faults
        )
        assert values(result) == values(clean)
        report = result.fault_report
        assert report["completed"] == report["total"] == 6
        assert report["shards"]["0"]["attempts"] == 2
        assert report["shards"]["3"]["attempts"] == 3
        assert report["failed"] == []

    def test_corrupt_value_never_reaches_the_table(self, clean):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "corrupt:i2:attempts=1", shards=6, base_seed=spec.base_seed
        )
        result = execute(
            expanded, retry=RetryPolicy(max_attempts=2), faults=faults
        )
        assert values(result) == values(clean)

    def test_exhausted_retries_raise_with_attempt_count(self):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "raise:i1:attempts=99", shards=6, base_seed=spec.base_seed
        )
        with pytest.raises(ShardError) as info:
            execute(
                expanded, retry=RetryPolicy(max_attempts=3), faults=faults
            )
        assert info.value.attempts == 3
        assert "after 3 attempts" in str(info.value)

    @settings(max_examples=12, deadline=None)
    @given(
        targets=st.sets(st.integers(min_value=0, max_value=5), max_size=4),
        fault_attempts=st.integers(min_value=1, max_value=2),
    )
    def test_property_any_transient_fault_set_is_bit_identical(
        self, targets, fault_attempts
    ):
        # Property (satellite S4): whatever transient fault set is
        # injected, retries reproduce the fault-free values exactly.
        spec = make_spec()
        expanded = plan(spec)
        baseline = execute(spec)
        if targets:
            text = ",".join(
                f"raise:i{index}:attempts={fault_attempts}"
                for index in sorted(targets)
            )
            faults = FaultPlan.from_spec(
                text, shards=6, base_seed=spec.base_seed
            )
        else:
            faults = None
        result = execute(
            expanded, retry=RetryPolicy(max_attempts=3), faults=faults
        )
        assert values(result) == values(baseline)


class TestPoolSupervision:
    def test_worker_crash_is_detected_and_requeued(self, clean):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "crash:i1:attempts=1", shards=6, base_seed=spec.base_seed
        )
        result = execute(
            expanded,
            jobs=2,
            retry=RetryPolicy(max_attempts=3),
            faults=faults,
        )
        assert values(result) == values(clean)
        entry = result.fault_report["shards"]["1"]
        assert entry["ok"] and entry["attempts"] == 2
        assert "worker process died" in entry["errors"][0]

    def test_hung_shard_is_killed_at_deadline_and_requeued(self, clean):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "hang:i2:attempts=1:seconds=60",
            shards=6, base_seed=spec.base_seed,
        )
        result = execute(
            expanded,
            jobs=2,
            retry=RetryPolicy(max_attempts=2, timeout_s=0.75),
            faults=faults,
        )
        assert values(result) == values(clean)
        entry = result.fault_report["shards"]["2"]
        assert entry["ok"] and entry["attempts"] == 2
        assert "deadline" in entry["errors"][0]

    def test_pool_transient_raise_matches_serial(self, clean):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "raise:i0:attempts=1,raise:i5:attempts=1",
            shards=6, base_seed=spec.base_seed,
        )
        result = execute(
            expanded,
            jobs=2,
            retry=RetryPolicy(max_attempts=2),
            faults=faults,
        )
        assert values(result) == values(clean)

    def test_pool_failure_preserves_worker_traceback(self):
        # Satellite S3: the worker's original traceback text survives
        # the process boundary into the ShardError.
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "raise:i1:attempts=99", shards=6, base_seed=spec.base_seed
        )
        with pytest.raises(ShardError) as info:
            execute(expanded, jobs=2, faults=faults)
        message = str(info.value)
        assert "Traceback (most recent call last)" in message
        assert "InjectedFault" in message
        assert isinstance(info.value.__cause__, WorkerFailure)
        assert "InjectedFault" in str(info.value.__cause__)


class TestMaxFailures:
    def test_partial_completion_with_requeue_entries(self, clean,
                                                     tmp_path):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "raise:i2:attempts=99", shards=6, base_seed=spec.base_seed
        )
        result = execute(
            expanded,
            retry=RetryPolicy(max_attempts=2),
            faults=faults,
            max_failures=1,
        )
        healthy = [e for i, e in enumerate(values(clean)) if i != 2]
        assert values(result) == healthy
        assert result.failed_indices() == [2]
        report = result.fault_report
        assert report["completed"] == 5 and report["total"] == 6
        (entry,) = report["requeue"]
        assert entry["index"] == 2
        assert entry["attempts"] == 2
        assert entry["params"] == dict(expanded.shards[2].params)
        assert "InjectedFault" in entry["error"]
        # The requeue file round-trips through JSON (satellite of the
        # --max-failures contract).
        path = save_requeue(result, tmp_path, profile="quick")
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-requeue/v1"
        assert doc["failed"] == [2]
        assert doc["shards"][0]["index"] == 2

    def test_budget_overrun_raises_for_first_failed_shard(self):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "raise:i1:attempts=99,raise:i4:attempts=99",
            shards=6, base_seed=spec.base_seed,
        )
        with pytest.raises(ShardError) as info:
            execute(expanded, faults=faults, max_failures=1)
        assert info.value.shard.index == 1

    def test_zero_budget_still_completes_healthy_shards_in_report(self):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "raise:i5:attempts=99", shards=6, base_seed=spec.base_seed
        )
        result = execute(expanded, faults=faults, max_failures=1)
        assert len(result.results) == 5

    def test_no_faults_means_no_requeue_file(self, tmp_path):
        result = execute(make_spec(), max_failures=2)
        assert result.fault_report["failed"] == []
        assert save_requeue(result, tmp_path) is None

    def test_artifact_carries_fault_report(self):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "raise:i0:attempts=1", shards=6, base_seed=spec.base_seed
        )
        result = execute(
            expanded, retry=RetryPolicy(max_attempts=2), faults=faults
        )
        payload = json.loads(plan_to_json(result))
        assert payload["faults"]["policy"]["max_attempts"] == 2
        assert payload["faults"]["shards"]["0"]["attempts"] == 2

    @pytest.mark.parametrize("fused", [False, True], ids=["plain", "fused"])
    def test_partly_warm_run_counts_the_whole_plan(self, clean, tmp_path,
                                                   fused):
        """Cache hits are completed shards: with 3 of the 6 shards
        cached, both paths report 6 of 6, as the table has 6."""
        from repro.experiments.cache import ShardCache

        spec = make_spec()
        expanded = plan(spec)
        cache = ShardCache(tmp_path / "cache")
        execute(
            ExperimentPlan(spec, expanded.cells, expanded.shards[:3]),
            cache=cache,
        )
        result = execute(
            expanded, fused=fused, cache=cache,
            retry=RetryPolicy(max_attempts=2),
        )
        assert result.cache_stats["hits"] == 3
        assert values(result) == values(clean)
        report = result.fault_report
        assert (report["total"], report["completed"]) == (6, 6)
        # A plain run's artifact is unchanged (no fault knobs -> None).
        plain = json.loads(plan_to_json(execute(spec)))
        assert plain["faults"] is None


class TestFusedDegradation:
    @pytest.fixture(autouse=True)
    def fused_probe(self):
        register_fused(
            measure_probe,
            FusedMeasurement(
                family="probe",
                group_key=lambda params: "probe",
                run_group=_fused_probe,
            ),
        )
        yield
        register_fused(measure_probe, None)

    def test_transient_group_fault_retries_fused(self):
        spec = make_spec()
        expanded = plan(spec)
        baseline = execute_fused(spec)
        faults = FaultPlan.from_spec(
            "fuse-raise:i0:attempts=1", shards=6, base_seed=spec.base_seed
        )
        result = execute(
            expanded, fused=True,
            retry=RetryPolicy(max_attempts=3), faults=faults,
        )
        assert values(result) == values(baseline)
        assert result.fault_report["degraded_groups"] == []

    def test_permanent_group_fault_degrades_to_per_shard(self, clean):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "fuse-raise:i0:attempts=99", shards=6, base_seed=spec.base_seed
        )
        result = execute(
            expanded, fused=True,
            retry=RetryPolicy(max_attempts=3), faults=faults,
        )
        # Degraded members re-run per shard from their own (params,
        # seed) — bit-identical to the serial path, not to the fused
        # group stream.
        assert values(result) == values(clean)
        (group,) = result.fault_report["degraded_groups"]
        assert group["family"] == "probe"
        assert group["shards"] == [0, 1, 2, 3, 4, 5]
        assert group["fused_attempts"] == 2
        assert "InjectedFault" in group["error"]

    def test_member_worker_fault_poisons_the_group(self, clean):
        # An ordinary raise fault on one member also takes the fused
        # engine call down (a mega-batch row cannot fail alone); the
        # degraded per-shard re-run then retries it away.
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "raise:i3:attempts=2", shards=6, base_seed=spec.base_seed
        )
        result = execute(
            expanded, fused=True,
            retry=RetryPolicy(max_attempts=3), faults=faults,
        )
        assert values(result) == values(clean)
        assert len(result.fault_report["degraded_groups"]) == 1

    def test_without_fault_knobs_group_failure_raises_legacy_error(self):
        spec = make_spec()

        def exploding_group(spec_, shards):
            raise RuntimeError("engine OOM")

        register_fused(
            measure_probe,
            FusedMeasurement(
                family="probe",
                group_key=lambda params: "probe",
                run_group=exploding_group,
            ),
        )
        with pytest.raises(ShardError) as info:
            execute(spec, fused=True)
        assert "group members:" in str(info.value)
        assert "engine OOM" in str(info.value)

    def test_degraded_plus_max_failures_tolerates_poison_shard(self,
                                                               clean):
        spec = make_spec()
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "raise:i4:attempts=99", shards=6, base_seed=spec.base_seed
        )
        result = execute(
            expanded, fused=True,
            retry=RetryPolicy(max_attempts=2), faults=faults,
            max_failures=1,
        )
        healthy = [e for i, e in enumerate(values(clean)) if i != 4]
        assert values(result) == healthy
        assert result.fault_report["failed"] == [4]
        assert result.fault_report["completed"] == 5

    def test_fused_sweep_group_degrades_to_the_per_shard_values(self):
        """The degradation drill on E17's fused measurement: a permanent
        ``fuse-raise`` on every row fails the one group on both fused
        attempts, and its rows re-run per shard, byte-identical to a
        plain run."""
        spec = spec_fused_sweep(
            weight_vectors=((1.0, 2.0), (1.0, 2.0, 3.0)), ns=(40, 60),
            rounds=4, replications=2, base_seed=5,
        )
        expanded = plan(spec)
        faults = FaultPlan.from_spec(
            "fuse-raise:p1.0:attempts=99",
            shards=len(expanded.shards), base_seed=spec.base_seed,
        )
        result = execute(
            expanded, fused=True,
            retry=RetryPolicy(max_attempts=2), faults=faults,
        )
        report = result.fault_report
        assert len(report["degraded_groups"]) == 1
        assert report["failed"] == []
        assert (report["total"], report["completed"]) == (8, 8)
        assert json.dumps(values(result)) == json.dumps(
            values(execute(spec))
        )
