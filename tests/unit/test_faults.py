"""Unit tests for the fault-tolerance layer: the retry policy, the
fault-spec grammar, deterministic fault selection, the in-process
attempt runner, the shard loops' success hook and the tear-cache
injector."""

import json

import numpy as np
import pytest

from repro.experiments.cache import ShardCache
from repro.experiments.faults import (
    CRASH_EXIT_CODE,
    FAULT_KINDS,
    Fault,
    FaultPlan,
    InjectedFault,
    NO_RETRY,
    RetryPolicy,
    ShardOutcome,
    fault_selection_rng,
    run_attempt,
    run_pool_shards,
    run_serial_shards,
)
from repro.experiments.pipeline import ScenarioSpec, plan


def measure_sum(params, rng):
    return {"total": params["a"] + params["b"], "draw": float(rng.random())}


class TestFaultSelectionRng:
    def test_reproducible_from_the_base_seed_alone(self):
        def draws(seed):
            return fault_selection_rng(seed).random(5)

        assert np.array_equal(draws(7), draws(7))
        assert np.array_equal(draws(None), draws(None))
        assert not np.array_equal(draws(7), draws(8))
        assert not np.array_equal(draws(7), draws(None))

    @pytest.mark.parametrize("scope", ["stream", "cell", "direct"])
    def test_distinct_from_every_shard_stream(self, scope):
        """Fault selection never replays a shard's own draws, so
        injecting faults cannot perturb what a shard measures."""
        spec = ScenarioSpec(
            name="faults", measure=measure_sum,
            grid={"a": [0, 1, 2]}, fixed={"b": 1},
            replications=1 if scope == "direct" else 3,
            base_seed=7, seed_scope=scope,
        )
        fault = fault_selection_rng(7).random(4)
        shards = plan(spec).shards
        assert len(shards) == (3 if scope == "direct" else 9)
        for shard in shards:
            own = np.random.default_rng(shard.seed).random(4)
            assert not np.array_equal(own, fault)


class TestRetryPolicy:
    def test_defaults_are_the_legacy_contract(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.timeout_s is None
        assert NO_RETRY.delay(1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    @pytest.mark.parametrize("field", ["timeout_s", "backoff_s",
                                       "backoff_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        """A NaN backoff would make a retry's ready time NaN, which
        the pool never serves, and a NaN deadline would never fire."""
        with pytest.raises(ValueError, match="finite"):
            RetryPolicy(max_attempts=2, **{field: value})

    def test_exponential_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1,
                             backoff_factor=2.0)
        assert policy.delay(0) == 0.0
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_payload_round_trips_through_json(self):
        policy = RetryPolicy(max_attempts=3, timeout_s=2.5, backoff_s=0.5)
        payload = json.loads(json.dumps(policy.to_payload()))
        assert payload["max_attempts"] == 3
        assert payload["timeout_s"] == 2.5


class TestFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="melt")

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_hang_rejected(self, seconds):
        with pytest.raises(ValueError, match="finite"):
            Fault(kind="hang", seconds=seconds)
        with pytest.raises(ValueError, match="finite"):
            FaultPlan.from_spec(f"hang:i0:seconds={seconds}", shards=1)

    def test_transient_fault_fires_only_on_early_attempts(self):
        fault = Fault(kind="raise", attempts=2)
        assert fault.active(1) and fault.active(2)
        assert not fault.active(3)

    def test_crash_exit_code_is_distinctive(self):
        # 70 = EX_SOFTWARE; anything nonzero works, but pin it so the
        # pool's dead-worker diagnostics stay stable.
        assert CRASH_EXIT_CODE == 70


class TestFaultSpecGrammar:
    def test_index_targets(self):
        plan = FaultPlan.from_spec("raise:i0,crash:i2|4", shards=6)
        assert plan.for_shard(0)[0].kind == "raise"
        assert plan.for_shard(2)[0].kind == "crash"
        assert plan.for_shard(4)[0].kind == "crash"
        assert plan.for_shard(1) == ()

    def test_options(self):
        plan = FaultPlan.from_spec(
            "hang:i1:attempts=3:seconds=0.5", shards=2
        )
        (fault,) = plan.for_shard(1)
        assert fault.attempts == 3
        assert fault.seconds == 0.5

    def test_probabilistic_target_is_deterministic_in_base_seed(self):
        one = FaultPlan.from_spec("raise:p0.5", shards=40, base_seed=7)
        two = FaultPlan.from_spec("raise:p0.5", shards=40, base_seed=7)
        other = FaultPlan.from_spec("raise:p0.5", shards=40, base_seed=8)
        assert one.by_shard.keys() == two.by_shard.keys()
        assert one.by_shard.keys() != other.by_shard.keys()

    def test_probability_extremes(self):
        assert not FaultPlan.from_spec("raise:p0.0", shards=10).by_shard
        assert len(
            FaultPlan.from_spec("raise:p1.0", shards=10).by_shard
        ) == 10

    @pytest.mark.parametrize(
        "bad",
        [
            "raise",  # no target
            "melt:i0",  # unknown kind
            "raise:i9",  # out of range
            "raise:x3",  # bad target syntax
            "raise:p1.5",  # probability out of [0, 1]
            "raise:i0:lives=9",  # unknown option
            "tear-ckpt:i0",  # retired with the plan checkpoint file
        ],
    )
    def test_rejects_malformed_entries(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(bad, shards=4)

    def test_worker_faults_exclude_tear_kinds(self):
        plan = FaultPlan.from_spec("raise:i0,tear-cache:i0", shards=1)
        assert len(plan.for_shard(0)) == 2
        assert [f.kind for f in plan.worker_faults(0)] == ["raise"]

    def test_every_kind_parses(self):
        for kind in FAULT_KINDS:
            plan = FaultPlan.from_spec(f"{kind}:i0", shards=1)
            assert plan.for_shard(0)[0].kind == kind

    def test_kinds_name_every_entry_even_one_that_selects_no_shard(self):
        plan = FaultPlan.from_spec("raise:i1,tear-cache:p0.0", shards=4)
        assert plan.by_shard == {1: (Fault("raise"),)}
        assert plan.kinds == {"raise", "tear-cache"}
        assert FaultPlan({0: [Fault("crash")]}).kinds == {"crash"}


class TestRunAttempt:
    def test_clean_attempt(self):
        value, error, seconds = run_attempt(
            measure_sum, {"a": 1, "b": 2}, np.random.SeedSequence(5)
        )
        assert error is None
        assert value["total"] == 3
        assert seconds >= 0.0

    def test_measure_exception_returns_traceback(self):
        def broken(params, rng):
            raise RuntimeError("kaboom in measure")

        value, error, _ = run_attempt(broken, {}, None)
        assert value is None
        assert "kaboom in measure" in error
        assert "Traceback" in error

    def test_non_mapping_value_is_a_failure(self):
        value, error, _ = run_attempt(lambda params, rng: 42, {}, None)
        assert value is None
        assert "non-mapping" in error

    def test_in_process_faults_never_kill_the_orchestrator(self):
        # crash/hang convert to raised InjectedFault in-process: the
        # serial path must simulate, not execute, process-level faults.
        for kind in ("raise", "crash", "hang", "corrupt"):
            value, error, _ = run_attempt(
                measure_sum, {"a": 1, "b": 2}, None,
                faults=(Fault(kind=kind, attempts=1, seconds=30.0),),
                attempt=1, in_process=True,
            )
            assert value is None, kind
            assert "injected" in error, kind

    def test_fault_expires_after_its_attempt_budget(self):
        faults = (Fault(kind="raise", attempts=2),)
        _, error1, _ = run_attempt(
            measure_sum, {"a": 1, "b": 2}, None, faults=faults, attempt=2
        )
        value3, error3, _ = run_attempt(
            measure_sum, {"a": 1, "b": 2}, None, faults=faults, attempt=3
        )
        assert error1 is not None
        assert error3 is None and value3["total"] == 3


class TestRunSerialShards:
    def test_retry_recovers_transient_fault(self):
        faults = (Fault(kind="raise", attempts=1),)
        tasks = [
            ({"a": 1, "b": 1}, None, faults),
            ({"a": 2, "b": 2}, None, ()),
        ]
        outcomes = run_serial_shards(
            measure_sum, tasks, RetryPolicy(max_attempts=2)
        )
        assert all(isinstance(o, ShardOutcome) for o in outcomes)
        assert outcomes[0].ok and outcomes[0].attempts == 2
        assert len(outcomes[0].attempt_errors) == 1
        assert outcomes[1].ok and outcomes[1].attempts == 1

    def test_stop_on_failure_leaves_rest_unrun(self):
        faults = (Fault(kind="raise", attempts=99),)
        tasks = [
            ({"a": 1, "b": 1}, None, ()),
            ({"a": 2, "b": 2}, None, faults),
            ({"a": 3, "b": 3}, None, ()),
        ]
        outcomes = run_serial_shards(
            measure_sum, tasks, NO_RETRY, stop_on_failure=True
        )
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[2] is None

    def test_tolerant_mode_runs_everything(self):
        faults = (Fault(kind="raise", attempts=99),)
        tasks = [
            ({"a": 1, "b": 1}, None, faults),
            ({"a": 2, "b": 2}, None, ()),
        ]
        outcomes = run_serial_shards(
            measure_sum, tasks, NO_RETRY, stop_on_failure=False
        )
        assert not outcomes[0].ok
        assert outcomes[1].ok


class TestSuccessHook:
    """``on_success`` is how the pipeline stores each shard in the cache
    as soon as it finishes; both loops call it in this process."""

    #: Slot 1 recovers on its second attempt, slot 2 never succeeds.
    TASKS = [
        ({"a": 1, "b": 1}, None, ()),
        ({"a": 2, "b": 2}, None, (Fault(kind="raise", attempts=1),)),
        ({"a": 3, "b": 3}, None, (Fault(kind="raise", attempts=99),)),
        ({"a": 4, "b": 4}, None, ()),
    ]

    def _run(self, jobs, stop_on_failure):
        calls = []

        def on_success(slot, outcome):
            calls.append((slot, outcome))

        policy = RetryPolicy(max_attempts=2)
        if jobs == 1:
            outcomes = run_serial_shards(
                measure_sum, self.TASKS, policy,
                stop_on_failure=stop_on_failure, on_success=on_success,
            )
        else:
            outcomes = run_pool_shards(
                measure_sum, self.TASKS, jobs, policy,
                stop_on_failure=stop_on_failure, on_success=on_success,
            )
        return calls, outcomes

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fires_once_per_success_after_its_last_attempt(self, jobs):
        calls, outcomes = self._run(jobs, stop_on_failure=False)
        assert sorted(slot for slot, _ in calls) == [0, 1, 3]
        for slot, outcome in calls:
            assert outcome is outcomes[slot] and outcome.ok
        assert dict(calls)[1].attempts == 2
        assert not outcomes[2].ok

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_never_fires_for_failed_or_unrun_slots(self, jobs):
        calls, outcomes = self._run(jobs, stop_on_failure=True)
        succeeded = [
            slot for slot, outcome in enumerate(outcomes)
            if outcome is not None and outcome.ok
        ]
        assert sorted(slot for slot, _ in calls) == succeeded
        assert not outcomes[2].ok
        if jobs == 1:
            assert succeeded == [0, 1] and outcomes[3] is None


class TestTearInjection:
    def test_tear_cache_writes_truncated_entry_once(self, tmp_path):
        store = ShardCache(tmp_path)
        plan = FaultPlan.from_spec("tear-cache:i3", shards=5)
        key = "ab" + "0" * 62
        path = plan.cache_put(store, 3, key, {"v": 1}, 0.1,
                              experiment="t")
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text())
        # One-shot: the second store of the same shard is clean.
        plan.cache_put(store, 3, key, {"v": 1}, 0.1, experiment="t")
        assert json.loads(store.path_for(key).read_text())["value"] == {
            "v": 1
        }

    def test_unselected_shard_stores_cleanly(self, tmp_path):
        store = ShardCache(tmp_path)
        plan = FaultPlan.from_spec("tear-cache:i3", shards=5)
        key = "cd" + "1" * 62
        plan.cache_put(store, 0, key, {"v": 2}, 0.1, experiment="t")
        assert store.get(key)["value"] == {"v": 2}


class TestInjectedFaultType:
    def test_is_a_runtime_error(self):
        assert issubclass(InjectedFault, RuntimeError)
