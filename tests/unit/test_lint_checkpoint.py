"""RL3 acceptance: the checkpoint-completeness rule on real engines.

The headline case required by the rule's contract: take a *real*
engine module (``engine/hetero.py``), rename its waived transient
field to a synthetic ``_forgotten`` and strip the waiver comments —
i.e. simulate a developer adding a mutable field to the engine's
initialiser and forgetting to thread it through
``snapshot()``/``restore()`` — and assert RL3 flags exactly that field
at its assignment line, inside the private initialiser that
``__init__`` calls.
"""

from __future__ import annotations

import pathlib
import re
import textwrap

import repro
from repro.lint import run_lint

ENGINE_DIR = pathlib.Path(repro.__file__).parent / "engine"

_WAIVER_COMMENT = re.compile(r"\s*#\s*repro-lint:[^\n]*")


def _strip_waivers(source: str) -> str:
    return _WAIVER_COMMENT.sub("", source)


def test_real_engines_pass_rl3_with_their_waivers():
    assert run_lint([ENGINE_DIR], select=["RL3"]) == []


def test_real_engines_carry_justified_waivers():
    # The RL3 waivers in the engines must keep their justifications:
    # a bare disable with no rationale is how waivers rot.
    waivers = [
        line
        for path in sorted(ENGINE_DIR.glob("*.py"))
        for line in path.read_text().splitlines()
        if "repro-lint: disable" in line
    ]
    assert waivers, "engines lost their RL3 waivers"
    for line in waivers:
        assert "--" in line.partition("disable=")[2], line


def test_synthetic_forgotten_field_is_flagged(tmp_path):
    source = (ENGINE_DIR / "hetero.py").read_text()
    mutated = _strip_waivers(source).replace("_taps", "_forgotten")
    target = tmp_path / "engine" / "hetero.py"
    target.parent.mkdir()
    target.write_text(mutated)

    init_line = next(
        lineno
        for lineno, line in enumerate(mutated.splitlines(), 1)
        if "self._forgotten: list = []" in line
    )
    findings = run_lint([tmp_path], root=tmp_path, select=["RL3"])
    forgotten = [
        (f.code, f.line) for f in findings if "_forgotten" in f.message
    ]
    assert ("RL301", init_line) in forgotten
    assert ("RL302", init_line) in forgotten


def test_field_serialised_through_helper_is_not_flagged(tmp_path):
    # The transitive self-call closure: snapshot() touching the field
    # only via a helper method still counts as serialising it.
    source = textwrap.dedent(
        """\
        class Engine:
            def __init__(self):
                self._ticks = []

            def step(self):
                self._ticks.append(1)

            def _payload(self):
                return list(self._ticks)

            def snapshot(self):
                return {"ticks": self._payload()}

            def restore(self, state):
                self._ticks = list(state["ticks"])
        """
    )
    target = tmp_path / "engine.py"
    target.write_text(source)
    assert run_lint([target], root=tmp_path, select=["RL3"]) == []


def test_static_configuration_fields_are_not_flagged(tmp_path):
    # Assigned in __init__ and never mutated again: not checkpoint
    # state, no finding even though snapshot ignores it.
    source = textwrap.dedent(
        """\
        class Engine:
            def __init__(self, rows):
                self._rows = rows
                self._count = 0

            def step(self):
                self._count += 1

            def snapshot(self):
                return {"count": self._count}

            def restore(self, state):
                self._count = state["count"]
        """
    )
    target = tmp_path / "engine.py"
    target.write_text(source)
    assert run_lint([target], root=tmp_path, select=["RL3"]) == []
