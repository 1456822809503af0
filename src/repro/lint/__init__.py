"""``repro.lint`` — AST-based static checks for the repo's invariants.

The linter never imports the code it inspects: every rule is a pure
function of one file's AST, so it runs identically in CI, pre-commit
and the test suite.  See :mod:`repro.lint.findings` for the rule-code
catalogue and :mod:`repro.lint.rules` for the two rule families.

Public API::

    from repro.lint import run_lint
    findings = run_lint()                     # whole installed package
    findings = run_lint(["src/repro/engine"]) # specific paths
    findings = run_lint(select=["RL2", "RL501"], ignore=["RL203"])

Inline waivers: ``# repro-lint: disable=CODE[,CODE] -- justification``
on the offending line (or alone on the line above).
"""

from .findings import RULE_CODES, RULE_FAMILIES, Finding
from .registry import run_lint
from .reporters import render, render_github, render_json, render_text

__all__ = [
    "Finding",
    "RULE_CODES",
    "RULE_FAMILIES",
    "render",
    "render_github",
    "render_json",
    "render_text",
    "run_lint",
]
