"""RL1 — backend-seam rules.

Modules under ``src/repro/engine/`` obtain their array namespace and
dtypes from :mod:`repro.engine.backend`, the one sanctioned ``import
numpy`` site of that layer.  These AST rules supersede the regex grep
that used to live in ``tests/unit/test_backend_seam.py`` and close its
gaps: aliased imports (``import numpy as _np``), parenthesised
multi-line ``from numpy import (...)`` and dynamic
``__import__("numpy")`` / ``importlib.import_module("numpy")`` forms
are all statements or expressions the AST sees directly, where a
line-oriented regex saw nothing.

Allowed by design (exactly as before): host aliases like
``np = HOST.xp`` and ``np.random`` *attribute access* — RL1 targets
the import machinery and dtype literals specifically.
"""

from __future__ import annotations

import ast
import re

from ..findings import Finding
from ..registry import rule
from ..walker import SourceModule, dotted_name, string_constant

#: The seam scope, relative to the package root.
SANCTIONED = "engine/backend.py"

#: Raw dtype attribute names (``np.int64``, ``numpy.bool_``, ...);
#: dtypes must come from ``backend.dtypes`` or the host constants
#: re-exported by ``repro.engine.backend``.
_DTYPE = re.compile(r"^(?:u?int\d+|float\d+|bool_|complex\d+)$")


def in_seam_scope(relpath: str) -> bool:
    """Whether RL1 applies to this (root-relative) module path."""
    if relpath == SANCTIONED:
        return False
    return relpath.startswith("engine/")


def _is_numpy(module_name: str | None) -> bool:
    return module_name is not None and (
        module_name == "numpy" or module_name.startswith("numpy.")
    )


@rule
def check_seam(module: SourceModule):
    if not in_seam_scope(module.relpath):
        return
    make = lambda node, code, message: Finding(  # noqa: E731
        path=module.path,
        relpath=module.relpath,
        line=node.lineno,
        col=node.col_offset,
        code=code,
        message=message,
    )
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_numpy(alias.name):
                    shown = alias.name + (
                        f" as {alias.asname}" if alias.asname else ""
                    )
                    yield make(
                        node, "RL101",
                        f"`import {shown}` outside the backend seam — "
                        "route arrays and dtypes through "
                        "repro.engine.backend",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and _is_numpy(node.module):
                names = ", ".join(alias.name for alias in node.names)
                yield make(
                    node, "RL101",
                    f"`from {node.module} import {names}` outside the "
                    "backend seam — route arrays and dtypes through "
                    "repro.engine.backend",
                )
        elif isinstance(node, ast.Call):
            target = None
            func_name = dotted_name(node.func)
            if func_name == "__import__" and node.args:
                target = string_constant(node.args[0])
            elif func_name in (
                "importlib.import_module", "import_module"
            ) and node.args:
                target = string_constant(node.args[0])
            if _is_numpy(target):
                yield make(
                    node, "RL102",
                    f"dynamic import of {target!r} outside the backend "
                    "seam — route arrays and dtypes through "
                    "repro.engine.backend",
                )
        elif isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and _DTYPE.match(node.attr)
                and (
                    node.value.id in ("np", "numpy")
                    or _is_numpy(
                        module.import_aliases.get(node.value.id)
                    )
                )
            ):
                yield make(
                    node, "RL103",
                    f"raw dtype literal `{node.value.id}.{node.attr}` — "
                    "use the backend dtype table (backend.dtypes.int64, "
                    "...) or the host constants (INT64, FLOAT64, ...) "
                    "from repro.engine.backend",
                )
