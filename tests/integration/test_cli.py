"""Integration tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.core.weights import WeightTable


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

    def test_demo_defaults_to_one_replication(self):
        args = build_parser().parse_args(["demo"])
        assert args.replications == 1

    def test_demo_accepts_replications(self):
        args = build_parser().parse_args(["demo", "--replications", "25"])
        assert args.replications == 25

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
    def test_every_experiment_has_a_quick_override(self):
        from repro.experiments import REGISTRY

        missing = {
            name for name, definition in REGISTRY.items()
            if "quick" not in definition.profiles
        }
        assert not missing, f"experiments without quick mode: {missing}"

    def test_overrides_are_valid_kwargs(self):
        import inspect

        from repro.experiments import REGISTRY

        for name, definition in REGISTRY.items():
            parameters = inspect.signature(definition.spec).parameters
            for key in definition.profiles["quick"]:
                assert key in parameters, f"{name}: bad kwarg {key!r}"

    def test_every_quick_spec_carries_its_registry_id(self):
        # The spec's name keys the artifact file and the shard cache.
        from repro.experiments import REGISTRY

        for name, definition in REGISTRY.items():
            spec = definition.spec(**definition.profiles["quick"])
            assert spec.name == name


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
            parameters = inspect.signature(definition.spec).parameters
            for profile, overrides in definition.profiles.items():
                for key in overrides:
                    assert key in parameters, (
                        f"{name}/{profile}: bad kwarg {key!r}"
                    )

    def test_spec_docstrings_start_with_their_table_id(self):
        # ``repro list`` prints the first docstring line; it opens with
        # the experiment's id ("E3b: ...", "Ablations A1/A2: ...").
        import re

        from repro.experiments import REGISTRY

        for name, definition in REGISTRY.items():
            first = definition.description
            assert re.match(rf"{name}\b", first, re.IGNORECASE), (
                f"{name}: {first!r}"
            )


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

    @pytest.mark.parametrize("flags", [["--jobs", "2"]], ids=["jobs"])
    def test_run_e12_flags_print_the_serial_table(self, capsys, flags):
        assert main(["run", "e12", "--quick"]) == 0
        serial_out = capsys.readouterr().out
        assert "[E12]" in serial_out
        assert main(["run", "e12", "--quick", *flags]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "no effect" not in captured.err

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

    def test_run_e12_out_writes_plan_artifact(self, capsys, tmp_path):
        from repro.experiments import load_plan, plan_table

        golden = pathlib.Path(__file__).parents[1] / "golden" / "e12-quick.txt"
        assert main(["run", "e12", "--quick", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = load_plan(tmp_path / "e12-quick.json")
        assert payload["format"] == "repro-plan/v1"
        assert payload["experiment"] == "e12"
        assert len(payload["shards"]) == 24
        rendered = plan_table(payload).render().rstrip() + "\n"
        assert rendered == golden.read_text()

    def test_run_out_requires_a_directory(self):
        # A bare --out must not swallow a following experiment id.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--out"])

    @pytest.mark.parametrize(
        "flag, below",
        [("--out", "x"), ("--cache-dir", "x"), ("--out", None)],
        ids=["out-under-a-file", "cache-dir-under-a-file", "out-is-a-file"],
    )
    def test_run_bad_directory_exits_before_any_shard(
        self, capsys, tmp_path, flag, below
    ):
        """A directory that cannot be made is a usage error, reported
        before E8 computes anything."""
        regular = tmp_path / "file"
        regular.write_text("")
        path = regular / below if below else regular
        assert main(["run", "e8", "--quick", flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"invalid {flag} ")

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_run_jobs_below_one_exits_before_any_shard(self, capsys, jobs):
        """A worker count below 1 is a usage error, not a serial run."""
        assert main(["run", "e2", "--profile", "quick", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--jobs must be >= 1\n"

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
        """A bad ``--weights`` is a ``ValueError``, which ``demo`` and
        ``series`` report as a usage error (exit 2, below)."""
        from repro.cli import _parse_weights

        with pytest.raises(ValueError, match="invalid --weights '0.2,zzz'"):
            _parse_weights("0.2,zzz")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["demo", "--n", "2", "--weights", "1,2,3"],
             "--n must be at least 3"),
            (["demo", "--n", "1", "--weights", "1"],
             "--n must be at least 2"),
            (["series", "--n", "1"], "--n must be at least 3"),
            (["demo", "--n", "50", "--rounds", "-1"],
             "--rounds must be >= 0"),
            (["demo", "--n", "50", "--rounds", "5", "--replications", "0"],
             "--replications must be >= 1"),
            (["demo", "--weights", "0.2,zzz"], "invalid --weights '0.2,zzz'"),
            (["series", "--weights", "0.2,zzz"],
             "invalid --weights '0.2,zzz'"),
            (["demo", "--schedule", "x:agents"],
             "invalid --schedule entry 'x:agents'"),
            (["demo", "--schedule", "50:recolour:1"],
             "invalid --schedule entry '50:recolour:1'"),
            (["demo", "--schedule", "5:colour:nan:1"],
             "invalid --schedule entry '5:colour:nan:1'"),
            (["demo", "--schedule", "5:colour:0.5:1"],
             "invalid --schedule entry '5:colour:0.5:1'"),
            (["demo", "--schedule", "5:agents:7:1"],
             "invalid --schedule entry '5:agents:7:1'"),
            (["demo", "--schedule", "5:agents:-1:1"],
             "invalid --schedule entry '5:agents:-1:1'"),
            (["demo", "--schedule", "5:recolour:0:3"],
             "invalid --schedule entry '5:recolour:0:3'"),
            (["demo", "--replications", "4",
              "--schedule", "10:colour:2:1,5:agents:3:1"],
             "invalid --schedule entry '5:agents:3:1'"),
            (["demo", "--n", "50", "--seed", "-1"], "--seed must be >= 0"),
            (["demo", "--n", "50", "--seed", "-1", "--replications", "3"],
             "--seed must be >= 0"),
            (["demo", "--n", "50", "--seed", "-1", "--engine", "array"],
             "--seed must be >= 0"),
            (["series", "--seed", "-1"], "--seed must be >= 0"),
            # No registry experiment fuses, so no run has a fused
            # group to fail, and a cache write to tear needs --cache.
            (["run", "e8", "--quick", "--inject-faults", "fuse-raise:i0"],
             "invalid --inject-faults: 'fuse-raise' never fires"),
            (["run", "e8", "--quick", "--inject-faults", "tear-cache:i0"],
             "invalid --inject-faults: 'tear-cache' fires only inside a "
             "cache store"),
            # Shard 3 exists in E3b's plan but not in E8's one-shard
            # plan: E3b must not run before E8's plan is checked.
            (["run", "e3b", "e8", "--profile", "quick", "--retries", "2",
              "--inject-faults", "raise:i3:attempts=1"],
             "invalid --inject-faults: invalid fault entry "
             "'raise:i3:attempts=1': shard indices [3] outside the "
             "plan's 0..0"),
        ],
    )
    def test_demo_and_series_reject_bad_input(self, capsys, argv, message):
        """Bad input exits 2 with one stderr line before any run
        starts: no traceback, and no silent single run for zero
        replications."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["demo", "--start", "bogus"], "invalid choice: 'bogus'"),
            (["series", "--start", "bogus"], "invalid choice: 'bogus'"),
            # `run` has no fused path, so the flag is gone.
            (["run", "e3", "--fused"], "unrecognized arguments: --fused"),
        ],
        ids=["demo", "series", "run-fused"],
    )
    def test_unknown_start_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

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
        ["100:bogus:1:2", "x:agents:0:5", "100:agents:0", "50:recolour:1",
         "5:colour:nan:1", "5:colour:inf:1", "5:colour:0.5:1"],
    )
    def test_parse_schedule_rejects_bad_entries(self, spec):
        from repro.cli import _parse_schedule

        with pytest.raises(ValueError, match="invalid --schedule entry"):
            _parse_schedule(spec)

    def test_parse_schedule_accepts_colours_added_earlier(self):
        """A colour a ``colour`` entry adds may be named by any later
        entry, whatever order the entries are written in."""
        from repro.cli import _parse_schedule

        schedule = _parse_schedule(
            "20:recolour:3:0,10:agents:3:1,5:colour:2:1",
            WeightTable([1.0, 2.0, 3.0]),
        )
        assert [t for t, _ in schedule.entries()] == [5, 10, 20]

    @pytest.mark.parametrize(
        "spec, culprit",
        [
            ("5:agents:3:1", "5:agents:3:1"),
            ("5:recolour:3:0", "5:recolour:3:0"),
            ("10:colour:2:1,5:agents:3:1", "5:agents:3:1"),
            # Same time: entries fire in the order given.
            ("5:agents:3:1,5:colour:2:1", "5:agents:3:1"),
        ],
    )
    def test_parse_schedule_rejects_colours_not_yet_added(
        self, spec, culprit
    ):
        from repro.cli import _parse_schedule

        weights = WeightTable([1.0, 2.0, 3.0])
        _parse_schedule(spec)  # well-formed without the colour check
        with pytest.raises(
            ValueError,
            match=f"invalid --schedule entry '{culprit}': colour 3 does "
            "not exist at time 5",
        ):
            _parse_schedule(spec, weights)

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

    @pytest.mark.parametrize(
        "flag, value",
        [("--retry-backoff", "nan"), ("--retry-backoff", "inf"),
         ("--shard-timeout", "nan"), ("--shard-timeout", "inf")],
    )
    def test_non_finite_retry_policy_is_a_usage_error(
        self, capsys, flag, value
    ):
        """A NaN backoff would make a retry's ready time NaN, which
        the pool's dispatch heap never serves."""
        assert main(
            ["run", "e8", "--quick", "--retries", "2", flag, value]
        ) == 2
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
