"""Stability contract of the cache fingerprints (satellite of the
shard-cache PR): keys must be invariant to dict insertion order and to
Python hash randomisation, and must change when the measurement's
source changes."""

import importlib.util
import os
import pathlib
import subprocess
import sys
import textwrap

import repro
from repro.experiments.cache import (
    _module_source_hash,
    measurement_fingerprint,
    shard_key,
)
from repro.experiments.pipeline import ScenarioSpec, Shard, plan


def _measure(params, rng):
    return {"value": float(rng.random())}


def _spec(fixed):
    return ScenarioSpec(
        name="stability",
        measure=_measure,
        grid={"a": (1, 2)},
        fixed=fixed,
        replications=1,
        base_seed=5,
    )


class TestDictOrderInvariance:
    def test_shard_key_ignores_params_insertion_order(self):
        spec = _spec({"x": 1, "y": 2})
        shard = plan(spec).shards[0]
        reordered = Shard(
            index=shard.index,
            cell=shard.cell,
            replication=shard.replication,
            params=dict(reversed(list(shard.params.items()))),
            seed=shard.seed,
        )
        assert list(reordered.params) != list(shard.params)
        assert shard_key(spec, shard) == shard_key(spec, reordered)


_SUBPROCESS_SCRIPT = textwrap.dedent(
    """
    from repro.experiments.cache import shard_key
    from repro.experiments.fusion import measure_sweep_final_counts
    from repro.experiments.pipeline import ScenarioSpec, plan

    spec = ScenarioSpec(
        name="hashseed-probe",
        measure=measure_sweep_final_counts,
        grid={"n": (40, 60), "rounds": (2,)},
        fixed={"vector": (1.0, 2.0), "start": "worst"},
        replications=2,
        base_seed=77,
    )
    for shard in plan(spec).shards:
        print(shard_key(spec, shard))
    """
)


class TestHashRandomisationInvariance:
    def test_keys_survive_pythonhashseed_changes(self):
        """The same spec must produce byte-identical shard keys in
        interpreters with different hash seeds — else a cache directory
        goes cold on every new process."""
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("0", "1", "random"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(src)
            result = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0].split()) == 4  # one key per shard


def _load_temp_module(path, name):
    """Import ``path`` under ``name``, replacing any previous import
    and dropping the memoised source hash for it."""
    sys.modules.pop(name, None)
    _module_source_hash.cache_clear()
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestSourceSensitivity:
    def test_measurement_source_change_invalidates(self, tmp_path):
        """Two measurements with the same module:qualname reference but
        different module source must fingerprint differently."""
        name = "repro_test_cache_probe_module"
        before = tmp_path / "before" / f"{name}.py"
        after = tmp_path / "after" / f"{name}.py"
        before.parent.mkdir()
        after.parent.mkdir()
        before.write_text(
            "def probe(params, rng):\n    return {'v': 1}\n"
        )
        after.write_text(
            "def probe(params, rng):\n    return {'v': 2}\n"
        )
        try:
            first = measurement_fingerprint(
                _load_temp_module(before, name).probe
            )
            second = measurement_fingerprint(
                _load_temp_module(after, name).probe
            )
        finally:
            sys.modules.pop(name, None)
            _module_source_hash.cache_clear()
        assert first["ref"] == second["ref"]
        assert first["source"] != second["source"]
        assert None not in (first["source"], second["source"])
