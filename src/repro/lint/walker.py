"""Source loading and shared AST analysis for the lint rules.

A :class:`SourceModule` bundles one parsed file with the pieces every
rule needs: the AST, the package-relative posix path (rules scope on
it — ``engine/batched.py``, ``experiments/cache.py``, ...), the
waiver table, and import-alias maps for resolving dotted call targets
(``_time.perf_counter`` -> ``time.perf_counter``).

The module-level helpers are deliberately dumb, syntactic analyses:
the linter runs without importing the code under inspection, so every
judgement is a pure function of one file's AST.
"""

from __future__ import annotations

import ast
import pathlib
from functools import cached_property

from .waivers import extract_waivers


class SourceModule:
    """One Python source file prepared for linting."""

    def __init__(self, path: pathlib.Path, root: pathlib.Path):
        self.path = pathlib.Path(path)
        self.root = pathlib.Path(root)
        self.text = self.path.read_text()
        try:
            relative = self.path.resolve().relative_to(self.root.resolve())
            self.relpath = relative.as_posix()
        except ValueError:
            self.relpath = self.path.as_posix()

    @cached_property
    def tree(self) -> ast.Module:
        """The parsed AST (raises :exc:`SyntaxError` on bad source)."""
        return ast.parse(self.text, filename=str(self.path))

    @cached_property
    def waivers(self) -> dict[int, frozenset[str]]:
        return extract_waivers(self.text)

    @cached_property
    def import_aliases(self) -> dict[str, str]:
        """Local name -> dotted origin for every import in the file.

        ``import time as _time`` maps ``_time -> time``;
        ``from datetime import datetime`` maps
        ``datetime -> datetime.datetime``.  Used to resolve call
        targets through whatever alias the module chose.
        """
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else name
                    aliases[name] = origin
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative imports never shadow stdlib
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    aliases[local] = f"{node.module}.{alias.name}"
        return aliases

    def resolve_dotted(self, node: ast.AST) -> str | None:
        """Dotted name of ``node`` with its first segment de-aliased.

        ``_time.perf_counter`` -> ``time.perf_counter`` under
        ``import time as _time``; returns None for non-name chains
        (calls, subscripts, ...).
        """
        raw = dotted_name(node)
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        origin = self.import_aliases.get(head, head)
        return f"{origin}.{rest}" if rest else origin


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def iter_python_files(path: pathlib.Path):
    """Yield ``*.py`` files under ``path`` (sorted, caches skipped)."""
    if path.is_file():
        yield path
        return
    for candidate in sorted(path.rglob("*.py")):
        if "__pycache__" not in candidate.parts:
            yield candidate
