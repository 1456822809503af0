"""Static guard for the backend seam — now delegated to ``repro.lint``.

Modules under ``src/repro/engine/`` must obtain their array namespace
and dtypes from ``repro.engine.backend`` — the *only* sanctioned
``import numpy`` site in that layer.  The detection used to live here
as line-oriented regexes; it is now the AST-based RL1 rule family
(:mod:`repro.lint.rules.seam`), which also catches the forms the
regexes missed — aliased imports (``import numpy as _np``),
parenthesised multi-line ``from numpy import (...)`` and dynamic
``__import__("numpy")``.
This test keeps the pytest gate (the seam cannot erode even where CI
skips the dedicated lint job) and guards the guard: the scope must be
populated, the sanctioned module must really import numpy, and the
rules must still fire on planted violations.
"""

import textwrap
from pathlib import Path

import repro
from repro.lint import run_lint
from repro.lint.rules.seam import SANCTIONED, in_seam_scope

SRC = Path(repro.__file__).resolve().parent


def test_seam_is_clean():
    offenders = run_lint(select=["RL1"])
    assert not offenders, (
        "backend-seam violations — route arrays and dtypes through "
        "repro.engine.backend:\n"
        + "\n".join(f"{f.location()}: {f.code} {f.message}" for f in offenders)
    )


def test_scope_is_populated():
    """Guard the guard: if the layout moves, fail loudly rather than
    silently scanning nothing."""
    scoped = [
        path
        for path in sorted(SRC.rglob("*.py"))
        if in_seam_scope(path.relative_to(SRC).as_posix())
    ]
    assert len(scoped) >= 9, scoped
    assert (SRC / SANCTIONED).is_file()
    assert not in_seam_scope(SANCTIONED)


def test_backend_module_is_the_numpy_importer():
    """The sanctioned module really does import numpy (sanity check
    that the allow-list entry is not stale)."""
    assert any(
        line.startswith(("import numpy", "from numpy"))
        for line in (SRC / SANCTIONED).read_text().splitlines()
    )


def test_rule_fires_on_the_historic_regex_gaps(tmp_path):
    """Regression: the three import forms the regex guard missed."""
    source = textwrap.dedent(
        """\
        import numpy as _np
        from numpy import (
            int64,
            zeros,
        )
        handle = __import__("numpy")
        WIDTH = _np.float64
        """
    )
    target = tmp_path / "engine" / "module.py"
    target.parent.mkdir()
    target.write_text(source)
    found = {
        (f.line, f.code) for f in run_lint([tmp_path], root=tmp_path)
    }
    assert found == {
        (1, "RL101"),  # aliased import
        (2, "RL101"),  # parenthesised multi-line from-import
        (6, "RL102"),  # dynamic __import__
        (7, "RL103"),  # dtype literal through the alias
    }
