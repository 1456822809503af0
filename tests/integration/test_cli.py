"""Integration tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


def test_cli_import_leaves_heavy_dependencies_unloaded():
    """``import repro.cli`` must not load scipy or networkx: only the
    confidence interval and the sparse-graph constructors use them, and
    loading them takes most of a second of every CLI start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    script = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_accepts_experiments(self):
        args = build_parser().parse_args(["run", "e1", "e2", "--quick"])
        assert args.experiments == ["e1", "e2"]
        assert args.quick

    def test_demo_defaults_to_one_batched_replication(self):
        args = build_parser().parse_args(["demo"])
        assert args.replications == 1
        assert args.batched

    def test_demo_accepts_replications_and_batched_flags(self):
        args = build_parser().parse_args(
            ["demo", "--replications", "25", "--no-batched"]
        )
        assert args.replications == 25
        assert not args.batched

    def test_demo_engine_defaults_to_aggregate(self):
        args = build_parser().parse_args(["demo"])
        assert args.engine == "aggregate"

    def test_demo_accepts_engine_choices(self):
        for engine in ("aggregate", "scalar", "array"):
            args = build_parser().parse_args(["demo", "--engine", engine])
            assert args.engine == engine
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--engine", "bogus"])


class TestQuickOverrides:
    def test_every_override_names_a_real_experiment(self):
        from repro.cli import QUICK_OVERRIDES
        from repro.experiments import ALL_EXPERIMENTS

        unknown = set(QUICK_OVERRIDES) - set(ALL_EXPERIMENTS)
        assert not unknown, f"orphan quick overrides: {unknown}"

    def test_every_experiment_has_a_quick_override(self):
        from repro.cli import QUICK_OVERRIDES
        from repro.experiments import ALL_EXPERIMENTS

        missing = set(ALL_EXPERIMENTS) - set(QUICK_OVERRIDES)
        assert not missing, f"experiments without quick mode: {missing}"

    def test_overrides_are_valid_kwargs(self):
        import inspect

        from repro.cli import QUICK_OVERRIDES
        from repro.experiments import ALL_EXPERIMENTS

        for name, overrides in QUICK_OVERRIDES.items():
            parameters = inspect.signature(
                ALL_EXPERIMENTS[name]
            ).parameters
            for key in overrides:
                assert key in parameters, f"{name}: bad kwarg {key!r}"


class TestRegistryProfiles:
    def test_every_experiment_has_quick_and_full(self):
        from repro.experiments import REGISTRY

        for name, definition in REGISTRY.items():
            assert set(definition.profiles) >= {"quick", "full"}, name
            assert definition.profiles["full"] == {}, name

    def test_profiles_are_valid_kwargs(self):
        import inspect

        from repro.experiments import REGISTRY

        for name, definition in REGISTRY.items():
            parameters = inspect.signature(definition.run).parameters
            for profile, overrides in definition.profiles.items():
                for key in overrides:
                    assert key in parameters, (
                        f"{name}/{profile}: bad kwarg {key!r}"
                    )

    def test_spec_builders_share_run_signature(self):
        import inspect

        from repro.experiments import REGISTRY

        for name, definition in REGISTRY.items():
            if definition.spec is None:
                continue
            run_params = set(
                inspect.signature(definition.run).parameters.keys()
            )
            # ``fused`` is an execution-mode flag (like the CLI's
            # --fused/--jobs), not a scenario parameter, so spec
            # builders deliberately do not take it.
            assert (
                set(inspect.signature(definition.spec).parameters.keys())
                == run_params - {"fused"}
            ), name


class TestCommands:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out
        assert "e12" in out

    def test_list_shows_profiles_column(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "profiles" in out
        assert "full/quick" in out

    def test_list_survives_empty_docstring(self, capsys, monkeypatch):
        from repro import experiments
        from repro.experiments import ExperimentDef

        def _undocumented():
            return None

        _undocumented.__doc__ = "   \n  "
        monkeypatch.setitem(
            experiments.REGISTRY,
            "zz-bare",
            ExperimentDef("zz-bare", _undocumented, {"full": {}}),
        )
        assert main(["list"]) == 0
        assert "zz-bare" in capsys.readouterr().out

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_quick_e8(self, capsys):
        assert main(["run", "e8", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[E8]" in out

    def test_run_fused_flag_routes_through_fusion_layer(self, capsys):
        # e8 has no fused implementation: the flag must still work,
        # with every shard on the FusedExecutor's fallback path.
        assert main(["run", "e8", "--quick", "--fused"]) == 0
        out = capsys.readouterr().out
        assert "[E8]" in out

    def test_run_fused_composes_with_jobs(self, capsys):
        # e8's shards all fall back (no fused implementation), and
        # fallback shards honour --jobs through the process pool.
        assert main(["run", "e8", "--quick", "--fused", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert "[E8]" in captured.out

    def test_run_fused_on_non_pipeline_experiment_notes_no_effect(
        self, capsys
    ):
        # e12 runs outside the pipeline: the flag must not be silently
        # swallowed.
        assert main(["run", "e12", "--quick", "--fused"]) == 0
        captured = capsys.readouterr()
        assert "[E12]" in captured.out
        assert "--fused has no effect" in captured.err

    def test_run_profile_quick_matches_quick_flag(self, capsys):
        assert main(["run", "e8", "--quick"]) == 0
        quick_out = capsys.readouterr().out
        assert main(["run", "e8", "--profile", "quick"]) == 0
        assert capsys.readouterr().out == quick_out

    def test_run_unknown_profile_fails(self, capsys):
        assert main(["run", "e8", "--profile", "huge"]) == 2
        err = capsys.readouterr().err
        assert "no 'huge' profile" in err

    def test_run_conflicting_profile_and_quick_fails(self, capsys):
        assert main(["run", "e8", "--quick", "--profile", "full"]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_run_parallel_jobs_matches_serial(self, capsys):
        assert main(["run", "e8", "--quick"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", "e8", "--quick", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_run_out_writes_plan_artifact(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        assert main(
            ["run", "e8", "--quick", "--out", str(out_dir)]
        ) == 0
        captured = capsys.readouterr()
        path = out_dir / "e8-quick.json"
        assert path.exists()
        assert str(path) in captured.err
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-plan/v1"
        assert payload["experiment"] == "e8"
        assert payload["profile"] == "quick"
        assert payload["table"]["experiment"] == "E8"
        assert len(payload["shards"]) == 1

    def test_run_out_writes_table_for_legacy_experiment(
        self, capsys, tmp_path
    ):
        # e12 has no scenario spec; --out falls back to the table JSON
        # (same profile-suffixed naming as plan artifacts).
        out_dir = tmp_path / "artifacts"
        assert main(
            ["run", "e12", "--quick", "--out", str(out_dir)]
        ) == 0
        capsys.readouterr()
        payload = json.loads((out_dir / "e12-quick.json").read_text())
        assert payload["experiment"] == "E12"

    def test_run_out_requires_a_directory(self):
        # A bare --out must not swallow a following experiment id.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--out"])

    def test_demo(self, capsys):
        code = main(
            ["demo", "--n", "200", "--weights", "1,2", "--rounds", "400",
             "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "diversity error" in out
        assert "fair share" in out

    def test_demo_invalid_weights(self):
        with pytest.raises(SystemExit):
            main(["demo", "--weights", "0.2,zzz"])

    def test_demo_replicated_batched(self, capsys):
        code = main(
            ["demo", "--n", "120", "--weights", "1,2", "--rounds", "200",
             "--seed", "5", "--replications", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replications=20" in out
        assert "batched engine" in out
        assert "mean count" in out
        assert "diversity error" in out

    def test_demo_replicated_scalar_fallback(self, capsys):
        code = main(
            ["demo", "--n", "80", "--weights", "1,2", "--rounds", "100",
             "--seed", "5", "--replications", "4", "--no-batched"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replications=4" in out
        assert "scalar engine" in out

    def test_demo_array_engine(self, capsys):
        code = main(
            ["demo", "--n", "200", "--weights", "1,2", "--rounds", "400",
             "--seed", "3", "--engine", "array"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "diversity error" in out
        assert "fair share" in out

    def test_demo_array_engine_replicated(self, capsys):
        code = main(
            ["demo", "--n", "100", "--weights", "1,2", "--rounds", "100",
             "--seed", "5", "--replications", "6", "--engine", "array"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replications=6" in out
        assert "agent/array engine" in out

    def test_series(self, capsys):
        code = main(
            ["series", "--n", "120", "--rounds", "200", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phi(t)" in out
        assert "psi(t)" in out
        assert "sigma^2(t)" in out
        assert "*" in out  # the ASCII chart rendered


class TestDemoSchedule:
    def test_parse_schedule_entries(self):
        from repro.adversary.interventions import (
            AddAgents,
            AddColour,
            RecolourColour,
        )
        from repro.cli import _parse_schedule

        schedule = _parse_schedule(
            "100:agents:0:5,200:colour:2.0:1:light,300:recolour:0:1"
        )
        entries = schedule.entries()
        assert [t for t, _ in entries] == [100, 200, 300]
        assert entries[0][1] == AddAgents(colour=0, count=5, dark=True)
        assert entries[1][1] == AddColour(weight=2.0, count=1, dark=False)
        assert entries[2][1] == RecolourColour(source=0, target=1)

    def test_parse_schedule_empty_is_none(self):
        from repro.cli import _parse_schedule

        assert _parse_schedule(None) is None
        assert _parse_schedule("  ") is None

    @pytest.mark.parametrize(
        "spec",
        ["100:bogus:1:2", "x:agents:0:5", "100:agents:0", "50:recolour:1"],
    )
    def test_parse_schedule_rejects_bad_entries(self, spec):
        from repro.cli import _parse_schedule

        with pytest.raises(SystemExit):
            _parse_schedule(spec)

    def test_demo_single_with_schedule_widens_table(self, capsys):
        code = main(
            ["demo", "--n", "200", "--weights", "1,2", "--rounds", "200",
             "--seed", "3",
             "--schedule", "10000:agents:0:20,20000:colour:2.0:1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "diversity error" in out
        # Three rows: the two original colours plus the added one.
        assert out.count("\n2       2") >= 1

    def test_demo_replicated_batched_with_schedule(self, capsys):
        code = main(
            ["demo", "--n", "120", "--weights", "1,2", "--rounds", "200",
             "--seed", "5", "--replications", "16",
             "--schedule", "8000:agents:0:12,16000:colour:2.0:1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batched engine" in out  # schedules stay on the fused path
        assert "mean count" in out

    def test_demo_array_replicated_with_schedule(self, capsys):
        code = main(
            ["demo", "--n", "100", "--weights", "1,2", "--rounds", "100",
             "--seed", "5", "--replications", "6", "--engine", "array",
             "--schedule", "5000:colour:2.0:1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "agent/array engine" in out


class TestFaultToleranceCli:
    def test_parser_accepts_fault_flags(self):
        args = build_parser().parse_args(
            [
                "run", "e8", "--quick",
                "--retries", "3",
                "--shard-timeout", "2.5",
                "--retry-backoff", "0.1",
                "--max-failures", "1",
                "--inject-faults", "raise:i0:attempts=1",
            ]
        )
        assert args.retries == 3
        assert args.shard_timeout == 2.5
        assert args.retry_backoff == 0.1
        assert args.max_failures == 1
        assert args.inject_faults == "raise:i0:attempts=1"

    def test_injected_transient_fault_with_retries_matches_clean(
        self, capsys
    ):
        assert main(["run", "e8", "--quick"]) == 0
        clean_out = capsys.readouterr().out
        assert main(
            ["run", "e8", "--quick",
             "--inject-faults", "raise:i0:attempts=1",
             "--retries", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == clean_out  # byte-identical table
        assert "faults: 1/1 shard(s) completed" in captured.err
        assert "1 recovered by retry" in captured.err

    def test_invalid_fault_spec_is_a_usage_error(self, capsys):
        assert main(
            ["run", "e8", "--quick", "--inject-faults", "melt:i0"]
        ) == 2
        assert "invalid --inject-faults" in capsys.readouterr().err

    def test_invalid_retry_policy_is_a_usage_error(self, capsys):
        assert main(["run", "e8", "--quick", "--retries", "0"]) == 2
        assert "invalid retry policy" in capsys.readouterr().err

    def test_max_failures_writes_requeue_file(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        assert main(
            ["run", "e8", "--quick",
             "--inject-faults", "raise:i0:attempts=99",
             "--retries", "2", "--max-failures", "1",
             "--out", str(out_dir)]
        ) == 0
        captured = capsys.readouterr()
        assert "failed shards: 0" in captured.err
        requeue_path = out_dir / "e8-quick.requeue.json"
        assert requeue_path.exists()
        doc = json.loads(requeue_path.read_text())
        assert doc["format"] == "repro-requeue/v1"
        assert doc["shards"][0]["index"] == 0
        assert doc["shards"][0]["attempts"] == 2
        # The plan artifact still landed, with the fault report inside.
        payload = json.loads((out_dir / "e8-quick.json").read_text())
        assert payload["faults"]["failed"] == [0]

    def test_cache_verify_reports_and_quarantines(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        # Warm the cache, then tear one entry.
        assert main(
            ["run", "e8", "--quick", "--cache-dir", str(cache_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        assert "1 entry scanned, 1 ok, 0 bad" in capsys.readouterr().out
        entries = list(cache_dir.glob("??/*.json"))
        entries[0].write_text("{ torn")
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "1 bad" in out and "invalid JSON" in out
        assert main(
            ["cache", "verify", "--cache-dir", str(cache_dir),
             "--quarantine"]
        ) == 1
        assert "1 quarantined" in capsys.readouterr().out
        assert (cache_dir / "quarantine").is_dir()
        # After quarantining, the scan is clean again.
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
