"""Guard against unused imports in the library, the test suite, the
examples and the benchmarks.

Every non-``__init__`` module of ``src/repro`` and every module under
``tests/``, ``examples/`` and ``benchmarks/`` is parsed, and each name
an ``import`` statement binds must be read somewhere in the module as a
``Name`` node, which is also the root of every attribute chain such as
``np.asarray``.  ``__init__`` modules are skipped, since their imports
are re-exports, and so is ``tests/unit/lint_fixtures/``, whose modules
are the source-rule check's inputs with planted faults.  An import kept
on purpose, such as one that registers a side effect, carries
``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
TESTS = Path(__file__).resolve().parents[1]
REPO = TESTS.parent
SCRIPT_DIRS = ("examples", "benchmarks")


def _bound_names(node):
    """``(name, line)`` for each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.asname is not None:
            name = alias.asname
        elif isinstance(node, ast.Import):
            name = alias.name.partition(".")[0]
        else:
            name = alias.name
        yield name, alias.lineno


def unused_imports(path: Path, root: Path = SRC) -> list[str]:
    """``relpath:line: name`` for every unused import in one module,
    with ``relpath`` relative to ``root``."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for name, line in _bound_names(node):
            waived = any(
                "noqa: F401" in lines[number - 1]
                for number in (node.lineno, line)
            )
            if name not in used and not waived:
                relpath = path.relative_to(root).as_posix()
                found.append(f"{relpath}:{line}: {name}")
    return found


def library_modules() -> list[Path]:
    return [
        path
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
    ]


def suite_modules() -> list[Path]:
    return [
        path
        for path in sorted(TESTS.rglob("*.py"))
        if "lint_fixtures" not in path.relative_to(TESTS).parts
    ]


def script_modules() -> list[Path]:
    return [
        path
        for directory in SCRIPT_DIRS
        for path in sorted((REPO / directory).rglob("*.py"))
    ]


def test_scan_covers_the_library():
    """Guard the guard: the scan must see the engine, the CLI and the
    experiments, not an empty or moved tree."""
    relpaths = {path.relative_to(SRC).as_posix() for path in library_modules()}
    assert {"cli.py", "engine/hetero.py", "experiments/pipeline.py"} <= relpaths
    assert len(relpaths) >= 55


def test_no_unused_imports():
    found = [
        entry for path in library_modules() for entry in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_covers_the_tests():
    """The test-suite scan sees every tier, the shared fixtures and
    this module, and leaves the planted rule inputs alone."""
    relpaths = {path.relative_to(TESTS).as_posix() for path in suite_modules()}
    assert {
        "conftest.py",
        "integration/test_cli.py",
        "property/test_split_invariance.py",
        "unit/test_unused_imports.py",
    } <= relpaths
    assert len(relpaths) >= 70
    assert not any("lint_fixtures" in relpath for relpath in relpaths)


def test_no_unused_imports_in_tests():
    found = [
        entry
        for path in suite_modules()
        for entry in unused_imports(path, TESTS)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_covers_the_examples_and_benchmarks():
    relpaths = {path.relative_to(REPO).as_posix() for path in script_modules()}
    assert {
        "examples/quickstart.py",
        "benchmarks/ratios.py",
        "benchmarks/collect.py",
    } <= relpaths
    assert len(relpaths) >= 8


def test_no_unused_imports_in_examples_and_benchmarks():
    found = [
        entry
        for path in script_modules()
        for entry in unused_imports(path, REPO)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_flags_an_unused_import(tmp_path):
    """The scan catches plain, aliased, dotted and lazy imports, and
    spares used names and ``# noqa: F401``."""
    module = tmp_path / "planted.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import os.path\n"
        "from json import dumps, loads as _loads\n"
        "from . import rules  # noqa: F401\n"
        "def f():\n"
        "    import sys\n"
        "    return np.asarray(dumps(1))\n"
    )
    assert unused_imports(module, tmp_path) == [
        "planted.py:2: os",
        "planted.py:4: os",
        "planted.py:5: _loads",
        "planted.py:8: sys",
    ]
