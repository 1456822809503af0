"""Rule registration and the :func:`run_lint` driver.

A *check* is a generator function ``check(module: SourceModule) ->
Iterator[Finding]``; rule modules register theirs with the
:func:`rule` decorator at import time, and :func:`run_lint` walks the
requested files, runs every registered check, and filters the result
through inline waivers and ``--select``/``--ignore`` selectors.

The scoping contract: rules decide applicability from
``module.relpath`` (posix, relative to the lint *root* — the ``repro``
package directory by default), so the same rules run unchanged against
the real package and against fixture trees in the test suite.
"""

from __future__ import annotations

import pathlib
from collections.abc import Callable, Iterable, Iterator

from .findings import Finding, selector_matches, validate_selectors
from .walker import SourceModule, iter_python_files
from .waivers import is_waived

#: All registered checks, in registration order.
_CHECKS: list[Callable[[SourceModule], Iterator[Finding]]] = []


def rule(check):
    """Register ``check`` as a lint rule (decorator)."""
    _CHECKS.append(check)
    return check


def default_root() -> pathlib.Path:
    """The installed ``repro`` package directory."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


def detect_root(path: pathlib.Path) -> pathlib.Path:
    """The package root governing ``path``'s scope-relative names.

    The nearest ancestor (including ``path`` itself) that is a
    ``repro`` package directory; for paths outside any such package
    (fixture trees), the directory itself — callers wanting different
    scoping pass ``root=`` explicitly.
    """
    path = path.resolve()
    start = path if path.is_dir() else path.parent
    for ancestor in (start, *start.parents):
        if ancestor.name == "repro" and (ancestor / "__init__.py").is_file():
            return ancestor
    return start


def run_lint(
    paths: Iterable[pathlib.Path | str] | None = None,
    *,
    root: pathlib.Path | str | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint ``paths`` (default: the whole ``repro`` package).

    ``select`` keeps only findings matching one of its code prefixes;
    ``ignore`` then drops matching findings (ignore wins on overlap,
    mirroring the usual linter semantics).  Inline waivers are always
    honoured.  Findings come back sorted by (path, line, col, code).
    Unknown selectors raise :exc:`ValueError`.
    """
    # Import for side effect: rule modules register their checks.
    from . import rules  # noqa: F401

    selected = validate_selectors(select or [])
    ignored = validate_selectors(ignore or [])

    if paths is None:
        resolved_root = (
            pathlib.Path(root).resolve() if root is not None
            else default_root()
        )
        targets = [resolved_root]
    else:
        targets = [pathlib.Path(p) for p in paths]
        resolved_root = (
            pathlib.Path(root).resolve() if root is not None
            else detect_root(targets[0])
        )

    findings: list[Finding] = []
    seen: set[pathlib.Path] = set()
    for target in targets:
        if not target.exists():
            raise FileNotFoundError(f"no such file or directory: {target}")
        for path in iter_python_files(target):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            findings.extend(_lint_file(path, resolved_root))

    if selected:
        findings = [
            f for f in findings
            if any(selector_matches(s, f.code) for s in selected)
        ]
    if ignored:
        findings = [
            f for f in findings
            if not any(selector_matches(s, f.code) for s in ignored)
        ]
    return sorted(findings, key=Finding.sort_key)


def _lint_file(
    path: pathlib.Path, root: pathlib.Path
) -> list[Finding]:
    module = SourceModule(path, root)
    try:
        module.tree
    except SyntaxError as error:
        return [
            Finding(
                path=module.path,
                relpath=module.relpath,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                code="RL000",
                message=f"syntax error: {error.msg}",
            )
        ]
    out = []
    for check in _CHECKS:
        for finding in check(module):
            if not is_waived(module.waivers, finding.line, finding.code):
                out.append(finding)
    return out
