"""Guard against library code that only the tests reach.

Every public module-level function and class of ``src/repro`` must be
read by some module under ``src/``, ``examples/``, ``benchmarks/`` or
``perfbench/``, or be listed in :data:`KEEP` with the reason it waits
for a reader.  A name counts as read if one of these holds:

* it appears in such a module as a ``Name`` node or as the attribute
  of an ``Attribute`` node, outside its own definition;
* it appears there as a string that is an identifier, outside
  ``__all__`` and type annotations (``perfbench/spans.py`` names
  functions by string);
* its definition is decorated (decorators register what they wrap).

Re-exports (``__all__`` and the imports of ``__init__`` modules) and
annotations do not count, nor does a call from the tests.  The scan
matches names, not bindings: a name read anywhere counts for every
definition of it, so the scan can miss unread code but flags none that
has a reader.  A :data:`KEEP` entry that gains a reader, or whose
definition goes, fails too, so the list can only shrink.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
READERS = ("src", "examples", "benchmarks", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

CANDIDATE = "candidate check for the paper-claim verdicts"
VERDICT_BANDS = "candidate helper for the verdicts' confidence bands"
INSPECT = "reads plan artifacts back for the planned `repro inspect`"

#: ``relpath:name`` (relative to ``src/repro``) of each definition that
#: waits for a reader, with the reason it stays.
KEEP = {
    "analysis/concentration.py:azuma_hoeffding": CANDIDATE,
    "analysis/concentration.py:chung_lu_tail": CANDIDATE,
    "analysis/concentration.py:contraction_expectation_bound": CANDIDATE,
    "analysis/concentration.py:halving_time": CANDIDATE,
    "analysis/concentration.py:markov_chain_chernoff": CANDIDATE,
    "analysis/concentration.py:markov_visit_halfwidth": CANDIDATE,
    "analysis/drift.py:verify_phi_contraction": CANDIDATE,
    "analysis/drift.py:verify_psi_contraction": CANDIDATE,
    "analysis/potentials.py:pairwise_imbalance":
        "the direct O(k²) reference the potential tests compare phi "
        "against",
    "analysis/potentials.py:theorem_1_3_statistic": CANDIDATE,
    "analysis/random_walks.py:escape_probability_bound": CANDIDATE,
    "analysis/random_walks.py:gamblers_ruin": CANDIDATE,
    "analysis/random_walks.py:simulate_biased_walk": CANDIDATE,
    "analysis/statistics.py:colour_survival": CANDIDATE,
    "analysis/statistics.py:convergence_time": CANDIDATE,
    "analysis/statistics.py:empirical_shares": CANDIDATE,
    "analysis/statistics.py:occupancy_agreement": CANDIDATE,
    "analysis/statistics.py:tv_distance": CANDIDATE,
    "core/properties.py:is_diverse": CANDIDATE,
    "core/properties.py:is_fair": CANDIDATE,
    "core/properties.py:sustainability_invariant": CANDIDATE,
    "experiments/export.py:load_plan": INSPECT,
    "experiments/export.py:plan_table": INSPECT,
    "experiments/fusion.py:fused_implementation":
        "the fused registry stays for the tests' probes, which look "
        "implementations up through it",
    "experiments/replication.py:replicate": VERDICT_BANDS,
    "experiments/replication.py:summarise": VERDICT_BANDS,
    "experiments/workloads.py:equilibrium_split":
        "the equilibrium the drift tests start from",
}


def _not_reads(tree) -> set[int]:
    """Ids of the nodes inside annotations and ``__all__`` values."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            roots += [
                arg.annotation
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg)
                if arg is not None and arg.annotation is not None
            ]
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            if any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets
            ):
                roots.append(node.value)
    return {id(sub) for root in roots if root for sub in ast.walk(root)}


def _read_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    ):
        return node.value
    return None


def scan(repo: Path = REPO) -> tuple[dict[str, bool], list[str]]:
    """``(definitions, unread)``: every public module-level definition
    of ``src/repro`` as ``relpath:name`` with whether it is decorated,
    and the sorted entries no reader reads."""
    package = repo / "src" / "repro"
    definitions: dict[str, bool] = {}
    reads = set()
    for top in READERS:
        for path in sorted((repo / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            own = {}
            if path.is_relative_to(package):
                relpath = path.relative_to(package).as_posix()
                for node in tree.body:
                    if not isinstance(node, DEFINITIONS):
                        continue
                    if node.name.startswith("_"):
                        continue
                    definitions[f"{relpath}:{node.name}"] = bool(
                        node.decorator_list
                    )
                    own.update((id(sub), node.name) for sub in ast.walk(node))
            skipped = _not_reads(tree)
            for node in ast.walk(tree):
                name = _read_name(node)
                if name is None or id(node) in skipped:
                    continue
                if own.get(id(node)) != name:
                    reads.add(name)
    unread = sorted(
        entry
        for entry, decorated in definitions.items()
        if not decorated and entry.partition(":")[2] not in reads
    )
    return definitions, unread


DEFINED, UNREAD = scan()


def test_scan_covers_the_library():
    """Guard the guard: the scan sees the engines, the pipeline and
    the CLI, not an empty or moved tree."""
    assert {
        "engine/simulator.py:Simulation",
        "experiments/pipeline.py:execute",
        "cli.py:main",
    } <= DEFINED.keys()
    assert len(DEFINED) >= 200


def test_every_public_definition_has_a_reader():
    found = [entry for entry in UNREAD if entry not in KEEP]
    assert not found, (
        "read only by the tests (give each a caller, delete it, or list "
        "it in KEEP with a reason):\n" + "\n".join(found)
    )


@pytest.mark.parametrize("entry", sorted(KEEP))
def test_keep_entry_still_waits_for_a_reader(entry):
    assert KEEP[entry].strip()
    assert entry in DEFINED, f"{entry} is gone: drop it from KEEP"
    assert entry in UNREAD, f"{entry} has a reader now: drop it from KEEP"


def test_scan_flags_planted_definitions(tmp_path):
    """Each rule on a planted tree: reads from a script, by string and
    through a decorator count; a definition's own body, annotations,
    ``__all__``, private names and the tests do not."""
    files = {
        "src/repro/__init__.py": (
            "from .planted import exported_only\n"
            "__all__ = ['exported_only']\n"
        ),
        "src/repro/planted.py": (
            "import functools\n"
            "def unread(): pass\n"
            "def called(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def annotated_only(): pass\n"
            "def exported_only(): pass\n"
            "def named_by_string(): pass\n"
            "@functools.cache\n"
            "def decorated(): pass\n"
            "def _private(): pass\n"
            "class Tested: pass\n"
        ),
        "examples/use.py": (
            "from repro import planted\n"
            "def f(x: planted.annotated_only) -> None:\n"
            "    planted.called()\n"
        ),
        "perfbench/spans.py": "TARGETS = ('named_by_string',)\n",
        "tests/test_planted.py": (
            "from repro.planted import Tested\n"
            "def test_it():\n"
            "    Tested()\n"
        ),
    }
    for relpath, text in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    definitions, unread = scan(tmp_path)
    assert len(definitions) == 8
    assert unread == [
        "planted.py:Tested",
        "planted.py:annotated_only",
        "planted.py:exported_only",
        "planted.py:recursive",
        "planted.py:unread",
    ]
