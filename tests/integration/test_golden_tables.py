"""Golden-table regression corpus.

Every registered experiment's quick-profile table is rendered and
compared *byte for byte* against the committed reference under
``tests/golden/``.  Shard seeds depend only on the spec, so any diff
is a real behaviour change — an engine tweak that moves a draw, a
changed default, a formatting change — and must be either fixed or
consciously re-baselined with::

    pytest tests/integration/test_golden_tables.py --update-goldens

Only the whitespace that ends the output is normalised away;
everything else is exact.  The run also writes its plan artifact, and
the table reloaded from it must render as the printed one.
"""

import io
import contextlib
import pathlib

import pytest

from repro.cli import main
from repro.experiments import REGISTRY, load_plan, plan_table

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"


def render_quick(name: str, out: pathlib.Path) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["run", name, "--quick", "--out", str(out)])
    assert code == 0, f"repro run {name} --quick exited {code}"
    return buffer.getvalue().rstrip() + "\n"


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_quick_table_matches_golden(name, update_goldens, tmp_path):
    golden = GOLDEN_DIR / f"{name}-quick.txt"
    rendered = render_quick(name, tmp_path)
    reloaded = plan_table(load_plan(tmp_path / f"{name}-quick.json"))
    assert reloaded.render().rstrip() + "\n" == rendered, (
        f"{name}: the table reloaded from the artifact renders "
        "differently from the printed one"
    )
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden.write_text(rendered)
        return
    assert golden.exists(), (
        f"missing golden table {golden}; generate it with "
        "pytest tests/integration/test_golden_tables.py --update-goldens"
    )
    assert rendered == golden.read_text(), (
        f"{name} quick table changed; if intended, re-baseline with "
        "pytest tests/integration/test_golden_tables.py --update-goldens"
    )


def test_no_orphan_goldens():
    """Every committed golden corresponds to a registered experiment —
    renames must clean up after themselves."""
    known = {f"{name}-quick.txt" for name in REGISTRY}
    on_disk = {path.name for path in GOLDEN_DIR.glob("*.txt")}
    assert on_disk <= known, f"orphan goldens: {sorted(on_disk - known)}"
