"""The lint rules against the planted-violation fixture tree.

Every offending fixture line carries a ``# planted: CODE[,CODE]``
marker; the main test asserts that ``run_lint`` over the tree reports
*exactly* the planted (file, line, code) triples — every plant found
at its exact line with its exact code, and no extra findings (so the
waived file and every deliberately-clean construct stay silent).
"""

from __future__ import annotations

import pathlib
import re
import textwrap

from repro.lint import RULE_CODES, RULE_FAMILIES, run_lint

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"

_PLANTED = re.compile(r"#\s*planted:\s*([A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*)")


def planted_markers() -> set[tuple[str, int, str]]:
    expected = set()
    for path in sorted(FIXTURES.rglob("*.py")):
        relpath = path.relative_to(FIXTURES).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = _PLANTED.search(line)
            if match:
                for code in match.group(1).split(","):
                    expected.add((relpath, lineno, code.strip()))
    return expected


def fixture_findings():
    return run_lint([FIXTURES], root=FIXTURES)


def test_fixture_tree_markers_are_nonempty_and_valid():
    markers = planted_markers()
    assert markers, "fixture tree lost its planted markers"
    codes = {code for _, _, code in markers}
    assert codes <= set(RULE_CODES)
    # Every family is exercised by at least one plant.
    for family in RULE_FAMILIES:
        assert any(code.startswith(family) for code in codes), family


def test_every_plant_is_found_at_its_exact_line_and_code():
    found = {(f.relpath, f.line, f.code) for f in fixture_findings()}
    assert found == planted_markers()


def test_findings_carry_messages_and_sorted_order():
    findings = fixture_findings()
    assert findings == sorted(findings, key=lambda f: f.sort_key())
    for finding in findings:
        assert finding.code in RULE_CODES
        assert finding.message
        assert finding.location().startswith(finding.relpath)


def test_select_restricts_to_matching_families():
    rl2 = run_lint([FIXTURES], root=FIXTURES, select=["RL2"])
    assert rl2 and all(f.code.startswith("RL2") for f in rl2)
    exact = run_lint([FIXTURES], root=FIXTURES, select=["RL203"])
    assert exact and all(f.code == "RL203" for f in exact)


def test_ignore_drops_matching_families_and_wins_over_select():
    without_rl2 = run_lint([FIXTURES], root=FIXTURES, ignore=["RL2"])
    assert without_rl2
    assert not any(f.code.startswith("RL2") for f in without_rl2)
    nothing = run_lint(
        [FIXTURES], root=FIXTURES, select=["RL2"], ignore=["RL2"]
    )
    assert nothing == []


def test_unknown_selector_is_rejected():
    try:
        run_lint([FIXTURES], root=FIXTURES, select=["RL9"])
    except ValueError as error:
        assert "RL9" in str(error)
    else:  # pragma: no cover - the assertion is the point
        raise AssertionError("expected ValueError for unknown selector")


def test_waiver_suppresses_only_the_waived_line(tmp_path):
    source = textwrap.dedent(
        """\
        import time
        first = time.time()  # repro-lint: disable=RL203 -- test waiver
        second = time.time()
        """
    )
    (tmp_path / "module.py").write_text(source)
    findings = run_lint([tmp_path], root=tmp_path)
    assert [(f.line, f.code) for f in findings] == [(3, "RL203")]


def test_waiver_on_the_line_above_covers_the_statement(tmp_path):
    source = textwrap.dedent(
        """\
        import time
        # repro-lint: disable=RL203 -- test waiver
        stamp = time.time()
        """
    )
    (tmp_path / "module.py").write_text(source)
    assert run_lint([tmp_path], root=tmp_path) == []


def test_syntax_error_becomes_rl000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def half(:\n")
    findings = run_lint([bad], root=tmp_path)
    assert [f.code for f in findings] == ["RL000"]
    assert findings[0].relpath == "broken.py"


def test_missing_target_raises(tmp_path):
    try:
        run_lint([tmp_path / "absent.py"])
    except FileNotFoundError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected FileNotFoundError")
