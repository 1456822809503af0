"""Unit tests for the content-addressed shard result cache: the
on-disk store, key composition and the hit/miss partition helper."""

import json

import pytest

from repro.engine.backend import Backend, DtypeTable
from repro.engine.backend import np as backend_np
from repro.experiments.cache import (
    CACHE_FORMAT,
    ShardCache,
    backend_fingerprint,
    lookup_shards,
    measurement_fingerprint,
    package_fingerprint,
    resolve_cache,
    shard_key,
    verify_cache,
)
from repro.experiments.pipeline import ScenarioSpec, Shard, plan

np = backend_np


def _measure(params, rng):
    return {"value": params["a"] + float(rng.random())}


@pytest.fixture
def spec():
    return ScenarioSpec(
        name="cache-unit",
        measure=_measure,
        grid={"a": (1, 2)},
        replications=2,
        base_seed=11,
    )


class TestShardCacheStore:
    def test_put_get_round_trip(self, spec, tmp_path):
        store = ShardCache(tmp_path)
        shard = plan(spec).shards[0]
        key = shard_key(spec, shard)
        assert store.get(key) is None
        store.put(key, {"value": 1.5}, 0.25, experiment=spec.name)
        entry = store.get(key)
        assert entry == {"value": {"value": 1.5}, "seconds": 0.25}
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.stores == 1

    def test_layout_is_two_level_fanout(self, spec, tmp_path):
        store = ShardCache(tmp_path)
        shard = plan(spec).shards[0]
        key = shard_key(spec, shard)
        path = store.put(key, {"v": 1}, 0.0)
        assert path == tmp_path / key[:2] / f"{key}.json"
        assert path.exists()

    def test_corrupt_entry_is_a_miss_and_quarantined(self, spec,
                                                     tmp_path):
        store = ShardCache(tmp_path)
        shard = plan(spec).shards[0]
        key = shard_key(spec, shard)
        store.put(key, {"v": 1}, 0.0)
        store.path_for(key).write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(key) is None
        # The bad file moved aside: the slot is free and re-storable.
        assert not store.path_for(key).exists()
        assert (tmp_path / "quarantine" / f"{key}.json").exists()
        assert store.stats.quarantined == 1
        store.put(key, {"v": 1}, 0.0)
        assert store.get(key)["value"] == {"v": 1}

    def test_foreign_format_or_key_mismatch_is_a_miss(
        self, spec, tmp_path
    ):
        store = ShardCache(tmp_path)
        shard = plan(spec).shards[0]
        key = shard_key(spec, shard)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"format": "nope", "key": key}))
        with pytest.warns(RuntimeWarning, match="foreign format"):
            assert store.get(key) is None
        path.write_text(
            json.dumps(
                {"format": CACHE_FORMAT, "key": "other", "value": {}}
            )
        )
        with pytest.warns(RuntimeWarning, match="key mismatch"):
            assert store.get(key) is None
        # Collision-safe quarantine names: both bad files survive.
        quarantined = sorted(
            entry.name for entry in (tmp_path / "quarantine").iterdir()
        )
        assert quarantined == [f"{key}.json", f"{key}.json.1"]

    def test_missing_value_payload_is_a_miss(self, spec, tmp_path):
        store = ShardCache(tmp_path)
        shard = plan(spec).shards[0]
        key = shard_key(spec, shard)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"format": CACHE_FORMAT, "key": key}))
        with pytest.warns(RuntimeWarning, match="value"):
            assert store.get(key) is None

    @pytest.mark.parametrize(
        "seconds", [None, "x", [1], float("nan"), -1.0, "missing"]
    )
    def test_malformed_seconds_is_a_miss(self, spec, tmp_path, seconds):
        # A damaged entry must cost one recompute, not the whole run.
        store = ShardCache(tmp_path)
        key = shard_key(spec, plan(spec).shards[0])
        path = store.put(key, {"v": 1}, 0.5)
        doc = json.loads(path.read_text())
        if seconds == "missing":
            del doc["seconds"]
        else:
            doc["seconds"] = seconds
        path.write_text(json.dumps(doc))
        report = verify_cache(tmp_path)
        assert report["ok"] == 0
        assert "seconds" in report["bad"][0]["reason"]
        with pytest.warns(RuntimeWarning, match="seconds"):
            assert store.get(key) is None
        assert (tmp_path / "quarantine" / f"{key}.json").exists()

    def test_missing_file_is_a_plain_miss_without_warning(
        self, spec, tmp_path
    ):
        import warnings as warnings_module

        store = ShardCache(tmp_path)
        shard = plan(spec).shards[0]
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert store.get(shard_key(spec, shard)) is None
        assert store.stats.quarantined == 0

    def test_entry_is_self_describing(self, spec, tmp_path):
        store = ShardCache(tmp_path)
        shard = plan(spec).shards[0]
        key = shard_key(spec, shard)
        store.put(key, {"v": 2}, 1.0, experiment="cache-unit")
        doc = json.loads(store.path_for(key).read_text())
        assert doc["format"] == CACHE_FORMAT
        assert doc["key"] == key
        assert doc["experiment"] == "cache-unit"

    def test_resolve_cache(self, tmp_path):
        assert resolve_cache(None) is None
        store = ShardCache(tmp_path)
        assert resolve_cache(store) is store
        wrapped = resolve_cache(tmp_path)
        assert isinstance(wrapped, ShardCache)
        assert wrapped.directory == tmp_path


class TestShardKey:
    def test_stable_across_plan_expansions(self, spec):
        first = plan(spec).shards[1]
        second = plan(spec).shards[1]
        assert shard_key(spec, first) == shard_key(spec, second)

    def test_distinct_shards_get_distinct_keys(self, spec):
        shards = plan(spec).shards
        keys = {shard_key(spec, shard) for shard in shards}
        assert len(keys) == len(shards)

    def test_mode_separates_key_spaces(self, spec):
        shard = plan(spec).shards[0]
        assert shard_key(spec, shard) != shard_key(
            spec, shard, mode="fused:aggregate"
        )

    def test_code_version_invalidates(self, spec):
        shard = plan(spec).shards[0]
        a = shard_key(spec, shard, code_version="v1")
        b = shard_key(spec, shard, code_version="v2")
        default = shard_key(spec, shard)
        assert len({a, b, default}) == 3

    def test_dtype_table_invalidates(self, spec):
        shard = plan(spec).shards[0]
        narrow = Backend(
            "numpy",
            np,
            DtypeTable(np.int32, np.float32, np.uint32, np.bool_),
        )
        assert shard_key(spec, shard) != shard_key(
            spec, shard, backend=narrow
        )

    def test_seed_is_part_of_the_address(self, spec):
        shard = plan(spec).shards[0]
        reseeded = Shard(
            index=shard.index,
            cell=shard.cell,
            replication=shard.replication,
            params=shard.params,
            seed=np.random.SeedSequence(424242),
        )
        assert shard_key(spec, shard) != shard_key(spec, reseeded)


class TestFingerprints:
    def test_package_fingerprint_is_cached_and_hexdigest(self):
        first = package_fingerprint()
        assert first == package_fingerprint()
        assert len(first) == 64
        int(first, 16)

    def test_measurement_fingerprint_names_the_callable(self):
        doc = measurement_fingerprint(_measure)
        assert doc["ref"].endswith(":_measure")
        assert doc["ref"].startswith(_measure.__module__)
        assert doc["source"] is not None

    def test_backend_fingerprint_reports_dtypes(self):
        doc = backend_fingerprint()
        assert doc["name"] == "numpy"
        assert doc["dtypes"]["int64"] == "int64"
        assert doc["dtypes"]["float64"] == "float64"


class TestLookupShards:
    def test_partition_and_key_map(self, spec, tmp_path):
        store = ShardCache(tmp_path)
        shards = plan(spec).shards
        keys, hits, misses = lookup_shards(store, spec, shards)
        assert hits == {}
        assert misses == list(shards)
        assert sorted(keys) == [shard.index for shard in shards]
        store.put(keys[shards[2].index], {"v": 7}, 0.5)
        keys, hits, misses = lookup_shards(store, spec, shards)
        assert set(hits) == {shards[2].index}
        assert hits[shards[2].index]["value"] == {"v": 7}
        assert misses == [s for s in shards if s.index != shards[2].index]


class TestVerifyCache:
    def _populated(self, spec, tmp_path):
        store = ShardCache(tmp_path)
        shards = plan(spec).shards
        keys = [shard_key(spec, shard) for shard in shards]
        for key in keys:
            store.put(key, {"v": 1}, 0.1, experiment=spec.name)
        return store, keys

    def test_clean_cache_reports_all_ok(self, spec, tmp_path):
        store, keys = self._populated(spec, tmp_path)
        report = verify_cache(tmp_path)
        assert report["scanned"] == len(keys)
        assert report["ok"] == len(keys)
        assert report["bad"] == []

    def test_bad_entries_reported_with_reasons(self, spec, tmp_path):
        store, keys = self._populated(spec, tmp_path)
        store.path_for(keys[0]).write_text("{ torn")
        doc = json.loads(store.path_for(keys[1]).read_text())
        doc["key"] = "wrong"
        store.path_for(keys[1]).write_text(json.dumps(doc))
        report = verify_cache(tmp_path)
        assert report["ok"] == len(keys) - 2
        reasons = {entry["reason"].split(":")[0] for entry in report["bad"]}
        assert any("JSON" in reason for reason in reasons)
        assert any("mismatch" in reason for reason in reasons)
        # Report-only by default: nothing moved.
        assert report["quarantined"] == 0
        assert not (tmp_path / "quarantine").exists()

    def test_quarantine_moves_bad_entries(self, spec, tmp_path):
        store, keys = self._populated(spec, tmp_path)
        store.path_for(keys[0]).write_text("{ torn")
        report = verify_cache(tmp_path, quarantine=True)
        assert report["quarantined"] == 1
        assert not store.path_for(keys[0]).exists()
        assert (tmp_path / "quarantine" / f"{keys[0]}.json").exists()
        # A second scan is clean.
        again = verify_cache(tmp_path)
        assert again["bad"] == []
        assert again["scanned"] == len(keys) - 1

    def test_missing_directory_is_empty_report(self, tmp_path):
        report = verify_cache(tmp_path / "nope")
        assert report["scanned"] == 0
        assert report["bad"] == []

    def test_stray_files_are_skipped(self, spec, tmp_path):
        store, keys = self._populated(spec, tmp_path)
        (tmp_path / "README.txt").write_text("not an entry")
        (store.path_for(keys[0]).parent / "stray.json").write_text("{}")
        report = verify_cache(tmp_path)
        assert report["scanned"] == len(keys)
        assert report["bad"] == []
