"""End-to-end behaviour of the shard result cache across all three
execution paths — serial, process pool and fused mega-batch — plus the
CLI flags and the plan-artifact record.  Resuming an interrupted or
failed run means rerunning it with the same cache."""

import _thread
import json
import threading
import time

import pytest

from repro.cli import main
from repro.experiments.cache import ShardCache
from repro.experiments.export import plan_to_json
from repro.experiments.faults import FaultPlan, RetryPolicy
from repro.experiments.fusion import measure_sweep_final_counts
from repro.experiments.pipeline import (
    ScenarioSpec,
    ShardError,
    execute,
)


def _draw_measure(params, rng):
    return {"a": params["a"], "draw": float(rng.random())}


def _flaky_measure(params, rng):
    if params["a"] == 2:
        raise RuntimeError("deliberate shard failure")
    return {"a": params["a"]}


#: Shards whose ``a`` equals ``TRIP["a"]`` raise ``TRIP["error"]``.
#: Arming the switch keeps the measurement's identity, so armed and
#: disarmed runs address the same cache entries.
TRIP = {"a": None, "error": KeyboardInterrupt}


def _tripwire_measure(params, rng):
    if params["a"] == TRIP["a"]:
        raise TRIP["error"]("tripwire")
    return _draw_measure(params, rng)


def _entries(directory):
    return len(list(directory.glob("??/*.json")))


@pytest.fixture
def spec():
    return ScenarioSpec(
        name="cache-exec",
        measure=_draw_measure,
        grid={"a": (1, 2, 3)},
        replications=2,
        base_seed=17,
    )


def _sweep_spec(ns=(40, 60)):
    # Cell-scoped, so overlapping grids keep their shards' addresses
    # (the same shape as the E19 acceptance sweep, scaled down).
    return ScenarioSpec(
        name="cache-sweep",
        measure=measure_sweep_final_counts,
        grid={"n": tuple(ns)},
        fixed={"vector": (1.0, 2.0), "rounds": 2, "start": "worst"},
        replications=2,
        base_seed=23,
        seed_scope="cell",
        cell_seed=lambda params: 23 + int(params["n"]),
    )


class TestSerialPath:
    def test_cold_then_warm_is_bit_identical(self, spec, tmp_path):
        plain = execute(spec)
        cold = execute(spec, cache=tmp_path / "cache")
        warm = execute(spec, cache=tmp_path / "cache")
        assert plain.values() == cold.values() == warm.values()
        assert plain.cache_stats is None
        assert cold.cache_stats == {
            "enabled": True, "hits": 0, "misses": 6,
            "dir": str(tmp_path / "cache"),
        }
        assert warm.cache_stats["hits"] == 6
        assert warm.cache_stats["misses"] == 0

    def test_warm_run_replays_original_compute_seconds(self, spec, tmp_path):
        cold = execute(spec, cache=tmp_path)
        warm = execute(spec, cache=tmp_path)
        assert [r.seconds for r in warm.results] == [
            r.seconds for r in cold.results
        ]

    def test_partial_overlap_computes_only_new_cells(self, tmp_path):
        execute(_sweep_spec((40, 60)), cache=tmp_path)
        grown = execute(_sweep_spec((40, 60, 80)), cache=tmp_path)
        assert grown.cache_stats["hits"] == 4
        assert grown.cache_stats["misses"] == 2

    def test_artifact_records_cache_stats(self, spec, tmp_path):
        cold = execute(spec, cache=tmp_path)
        payload = json.loads(plan_to_json(cold))
        assert payload["cache"]["enabled"] is True
        assert payload["cache"]["misses"] == 6
        plain = json.loads(plan_to_json(execute(spec)))
        assert plain["cache"] is None


class TestProcessPoolPath:
    def test_pool_warms_and_replays_across_executors(self, spec, tmp_path):
        """Serial and pooled runs compute identical values, so they
        share one key space: a pooled cold run warms a serial warm
        run and vice versa."""
        pooled = execute(spec, jobs=2, cache=tmp_path)
        assert pooled.cache_stats["misses"] == 6
        warm = execute(spec, cache=tmp_path)
        assert warm.cache_stats["hits"] == 6
        assert warm.values() == pooled.values() == execute(spec).values()


class TestFusedPath:
    def test_fused_groups_partition_into_hits_and_misses(self, tmp_path):
        cold = execute(_sweep_spec(), fused=True, cache=tmp_path)
        warm = execute(_sweep_spec(), fused=True, cache=tmp_path)
        assert cold.cache_stats["hits"] == 0
        assert cold.cache_stats["misses"] == 4
        assert warm.cache_stats == {
            "enabled": True, "hits": 4, "misses": 0, "dir": str(tmp_path),
        }
        assert warm.values() == cold.values()

    def test_fused_and_shard_key_spaces_never_mix(self, tmp_path):
        """Fused values are distribution-equivalent, not bit-identical,
        to per-shard values — a warm per-shard cache must not feed a
        fused run, nor the reverse."""
        execute(_sweep_spec(), cache=tmp_path)
        fused = execute(_sweep_spec(), fused=True, cache=tmp_path)
        assert fused.cache_stats["hits"] == 0
        per_shard = execute(_sweep_spec(), cache=tmp_path)
        assert per_shard.cache_stats["hits"] == 4


class TestFailureSemantics:
    def test_failed_sweep_still_warms_the_cache(self, tmp_path):
        """Misses completed before the failing shard are stored before
        the ShardError propagates, so the re-run recomputes only from
        the failure onward."""
        flaky = ScenarioSpec(
            name="cache-flaky",
            measure=_flaky_measure,
            grid={"a": (1, 2, 3)},
            replications=1,
            base_seed=3,
        )
        store = ShardCache(tmp_path)
        with pytest.raises(ShardError, match="deliberate"):
            execute(flaky, cache=store)
        assert store.stats.stores == 1  # the a=1 shard, before the crash
        rerun = ShardCache(tmp_path)
        with pytest.raises(ShardError, match="deliberate"):
            execute(flaky, cache=rerun)
        assert rerun.stats.hits == 1  # a=1 replayed, a=2 recomputed


class TestResumeByRerun:
    """An interrupted or failed run keeps every finished shard in the
    cache, and rerunning it computes only the rest."""

    @pytest.fixture
    def tripwire_spec(self):
        return ScenarioSpec(
            name="cache-resume",
            measure=_tripwire_measure,
            grid={"a": (1, 2, 3)},
            replications=2,
            base_seed=17,
        )

    @pytest.mark.parametrize("fused", [False, True])
    def test_interrupted_run_keeps_finished_shards(
        self, tripwire_spec, tmp_path, monkeypatch, fused
    ):
        # The measure has no fused implementation, so with fused=True
        # every shard takes the fused executor's per-shard fallback.
        monkeypatch.setitem(TRIP, "a", 3)
        store = ShardCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            execute(tripwire_spec, fused=fused, cache=store)
        assert store.stats.stores == 4  # shards 0-3; a=3 is 4 and 5
        assert _entries(tmp_path) == 4
        monkeypatch.setitem(TRIP, "a", None)
        rerun = execute(tripwire_spec, fused=fused, cache=tmp_path)
        assert rerun.cache_stats["hits"] == 4
        assert rerun.cache_stats["misses"] == 2
        assert rerun.values() == execute(tripwire_spec).values()

    def test_interrupted_pool_run_keeps_finished_shards(
        self, spec, tmp_path
    ):
        store = ShardCache(tmp_path)
        faults = FaultPlan.from_spec("hang:i5:seconds=60", shards=6)
        done = threading.Event()

        def interrupt_when_five_stored():
            deadline = time.monotonic() + 20.0
            while not done.is_set():
                if store.stats.stores == 5 or time.monotonic() > deadline:
                    _thread.interrupt_main()
                    return
                time.sleep(0.01)

        watcher = threading.Thread(target=interrupt_when_five_stored)
        watcher.start()
        with pytest.raises(KeyboardInterrupt):
            try:
                execute(spec, jobs=2, cache=store, faults=faults)
            finally:
                done.set()
        watcher.join(timeout=30.0)
        assert not watcher.is_alive()
        assert store.stats.stores == 5
        assert _entries(tmp_path) == 5
        rerun = execute(spec, jobs=2, cache=tmp_path)
        assert rerun.cache_stats["hits"] == 5
        assert rerun.cache_stats["misses"] == 1
        assert rerun.values() == execute(spec).values()

    def test_rerun_after_shard_error_completes(
        self, tripwire_spec, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(TRIP, "a", 2)
        monkeypatch.setitem(TRIP, "error", RuntimeError)
        with pytest.raises(ShardError, match="tripwire"):
            execute(tripwire_spec, cache=tmp_path)
        monkeypatch.setitem(TRIP, "a", None)
        rerun = execute(tripwire_spec, cache=tmp_path)
        assert rerun.cache_stats["hits"] == 2  # the a=1 shards
        assert rerun.values() == execute(tripwire_spec).values()

    def test_retried_shards_are_stored(self, spec, tmp_path):
        store = ShardCache(tmp_path)
        faults = FaultPlan.from_spec("raise:i1:attempts=1", shards=6)
        result = execute(
            spec, cache=store, retry=RetryPolicy(max_attempts=2),
            faults=faults,
        )
        assert store.stats.stores == 6
        assert result.values() == execute(spec).values()

    def test_torn_entry_costs_one_recompute(self, spec, tmp_path):
        faults = FaultPlan.from_spec("tear-cache:i5", shards=6)
        execute(spec, cache=tmp_path, faults=faults)
        store = ShardCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            rerun = execute(spec, cache=store)
        assert store.stats.quarantined == 1
        assert rerun.cache_stats["hits"] == 5
        assert rerun.cache_stats["misses"] == 1
        assert rerun.values() == execute(spec).values()


class TestCliCache:
    def test_warm_rerun_reports_hits_and_matches_cold(
        self, capsys, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        cold_out = tmp_path / "cold"
        warm_out = tmp_path / "warm"
        assert main(
            ["run", "e8", "--quick", "--cache",
             "--cache-dir", str(cache_dir), "--out", str(cold_out)]
        ) == 0
        cold_err = capsys.readouterr().err
        assert main(
            ["run", "e8", "--quick", "--cache",
             "--cache-dir", str(cache_dir), "--out", str(warm_out)]
        ) == 0
        warm_err = capsys.readouterr().err
        assert "cache:" in cold_err and "cache:" in warm_err
        cold = json.loads((cold_out / "e8-quick.json").read_text())
        warm = json.loads((warm_out / "e8-quick.json").read_text())
        assert cold["cache"]["hits"] == 0
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hits"] == len(warm["shards"]) > 0
        assert cold["table"] == warm["table"]

    def test_cache_dir_implies_cache(self, capsys, tmp_path):
        assert main(
            ["run", "e8", "--quick", "--cache-dir", str(tmp_path)]
        ) == 0
        assert "cache: 0 hit(s)" in capsys.readouterr().err
        assert any(tmp_path.rglob("*.json"))

    def test_no_cache_forces_recompute(self, capsys, tmp_path):
        assert main(
            ["run", "e8", "--quick", "--no-cache",
             "--cache-dir", str(tmp_path)]
        ) == 0
        assert "cache:" not in capsys.readouterr().err
        assert not any(tmp_path.rglob("*.json"))
