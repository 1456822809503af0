"""The ``repro lint`` subcommand: exit codes, selectors, formats.

The whole-repo run doubles as the gate the CI job enforces: the
installed package must lint clean (real problems fixed, deliberate
deviations carrying justified inline waivers).
"""

from __future__ import annotations

import json
import pathlib

from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def test_whole_repo_lints_clean(capsys):
    assert main(["lint"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_findings_exit_nonzero_with_locations(capsys):
    code = main(["lint", str(FIXTURES)])
    out = capsys.readouterr().out
    assert code == 1
    assert "determinism_violations.py:19" in out
    assert "RL203" in out and out.strip().endswith("findings")


def test_select_and_ignore_compose(capsys):
    assert main(["lint", str(FIXTURES), "--select", "RL2,RL5",
                 "--ignore", "RL5"]) == 1
    out = capsys.readouterr().out
    assert "RL20" in out
    assert "RL50" not in out


def test_selected_away_everything_exits_zero(capsys):
    assert main(["lint", str(FIXTURES), "--ignore", "ALL"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_unknown_selector_is_a_usage_error(capsys):
    assert main(["lint", "--select", "RL7"]) == 2
    assert "unknown rule selector" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(capsys):
    assert main(["lint", "does/not/exist.py"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_json_format_is_machine_readable(capsys):
    main(["lint", str(FIXTURES), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == len(doc["findings"]) > 0
    first = doc["findings"][0]
    assert set(first) == {
        "path", "relpath", "line", "col", "code", "message"
    }
    codes = {finding["code"] for finding in doc["findings"]}
    assert codes <= {
        code for code in codes if code.startswith("RL")
    }


def test_github_format_emits_error_annotations(capsys):
    main(["lint", str(FIXTURES), "--format", "github"])
    out = capsys.readouterr().out.strip().splitlines()
    assert out and all(line.startswith("::error file=") for line in out)
    assert any("title=repro-lint RL203" in line for line in out)


def test_github_format_is_silent_on_clean_runs(capsys):
    assert main(["lint", "--format", "github"]) == 0
    assert capsys.readouterr().out == ""
