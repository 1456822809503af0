"""Guard the determinism and fingerprint rules of the library's source.

The experiments reproduce because every draw flows from an explicit
seed and no result reads the clock, and the shard cache can be trusted
because its keys depend on no ordering that Python leaves open.  Each
rule is a function of one module's AST; nothing is imported.

RL2, determinism, covers every module of ``src/repro`` but ``cli.py``,
which may timestamp its progress output.  Call targets resolve through
the module's imports (under ``import time as _clock``, ``_clock.time()``
is ``time.time``).

* ``RL201``: an ``np.random.*`` global-state call.  The explicit-state
  constructors (``default_rng``, ``Generator``, ``SeedSequence``, ...)
  are the sanctioned API.
* ``RL202``: an import of the stdlib ``random`` module.
* ``RL203``: a wall-clock read (``time.time``, ``datetime.now``, ...);
  ``perf_counter`` times durations, never results, and is allowed.
* ``RL204``: ``default_rng()`` or ``SeedSequence()`` without a seed,
  which draws OS entropy, outside ``engine/rng.py``, the module that
  turns specs into seeds.

RL5, fingerprint hygiene, covers the functions of a module that defines
one of :data:`HASH_ENTRIES`, closed under same-module calls.  Their
values feed SHA-256 content addresses, so two processes must build the
same bytes:

* ``RL501``: a loop or comprehension draws from a set, a dict view or a
  directory walk that ``sorted()`` does not wrap (possibly under
  ``list``, ``tuple``, ``enumerate`` or ``reversed``).
* ``RL502``: a ``json.dumps`` or ``json.dump`` without ``sort_keys=True``.

The fixtures under ``tests/unit/lint_fixtures/`` mark each planted
violation with ``# planted: CODE``, and the rules must report exactly
those (file, line, code) triples.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
CODES = {"RL201", "RL202", "RL203", "RL204", "RL501", "RL502"}

#: Constructors under ``np.random`` that hold their own state.
GENERATOR_API = frozenset({
    "default_rng", "Generator", "PCG64", "PCG64DXSM", "Philox",
    "SFC64", "MT19937", "SeedSequence", "BitGenerator", "RandomState",
})
WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
SEEDED_CONSTRUCTORS = frozenset({"default_rng", "SeedSequence"})
RNG_MODULE = "engine/rng.py"

#: Functions whose values feed the shard cache's content addresses.
HASH_ENTRIES = frozenset({
    "shard_key", "package_fingerprint", "measurement_fingerprint",
    "_seed_payload",
})
#: Wrappers that keep the order of what they wrap.
TRANSPARENT = frozenset({"list", "tuple", "enumerate", "reversed"})
UNORDERED_METHODS = frozenset({
    "keys", "values", "items", "glob", "rglob", "iterdir",
})

STDLIB_RANDOM = (
    "stdlib `random` is seeded globally and process-wide — draw from an "
    "explicit Generator (see engine/rng.py) instead"
)


def dotted_name(node) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree) -> dict[str, str]:
    """Local name -> dotted origin of every absolute import:
    ``import time as _clock`` maps ``_clock`` to ``time``, and
    ``from datetime import datetime`` maps ``datetime`` to
    ``datetime.datetime``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                aliases[name] = alias.name if alias.asname else name
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def is_seeded(call: ast.Call) -> bool:
    """Whether a constructor call passes a seed (``*args`` and
    ``**kwargs`` are taken to carry one)."""
    return bool(call.args) or any(
        keyword.arg in (None, "seed", "entropy") for keyword in call.keywords
    )


def determinism_findings(tree, relpath: str):
    """RL201 to RL204 as ``(node, code, message)``."""
    aliases = import_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "random":
                    yield node, "RL202", STDLIB_RANDOM
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "random":
                yield node, "RL202", STDLIB_RANDOM
        elif isinstance(node, ast.Call):
            raw = dotted_name(node.func)
            if raw is None:
                continue
            first, _, rest = raw.partition(".")
            target = aliases.get(first, first) + (f".{rest}" if rest else "")
            head, _, tail = target.rpartition(".")
            if (
                head in ("np.random", "numpy.random")
                and tail not in GENERATOR_API
            ):
                yield node, "RL201", (
                    f"`{target}` mutates numpy's hidden global RNG state — "
                    "use an explicit Generator from engine/rng.py"
                )
            elif target in WALL_CLOCK:
                yield node, "RL203", (
                    f"`{target}` makes output depend on wall-clock time — "
                    "thread timestamps in from the caller (perf_counter is "
                    "fine for durations)"
                )
            elif (
                tail in SEEDED_CONSTRUCTORS
                and head in ("", "np.random", "numpy.random",
                             "numpy.random._generator")
                and not is_seeded(node)
                and relpath != RNG_MODULE
            ):
                yield node, "RL204", (
                    f"`{tail}()` with no seed draws OS entropy — seed it "
                    "explicitly or obtain generators from engine/rng.py"
                )


def hash_closure(tree) -> dict[str, ast.FunctionDef]:
    """The module's hash entries and the module-level functions they
    reach through calls, by name."""
    functions = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    queue = [name for name in functions if name in HASH_ENTRIES]
    reached = {}
    while queue:
        name = queue.pop()
        if name in reached:
            continue
        reached[name] = functions[name]
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                called = dotted_name(node.func) or ""
                tail = called.rpartition(".")[2]
                if tail in functions:
                    queue.append(tail)
    return reached


def unordered_reason(node) -> str | None:
    """Why iterating ``node`` has no cross-process order, or None."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in TRANSPARENT
        and node.args
    ):
        node = node.args[0]
    if isinstance(node, ast.Set):
        return "set literal"
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
        return f"`{func.id}()`"
    if isinstance(func, ast.Attribute) and func.attr in UNORDERED_METHODS:
        return f"`.{func.attr}()`"
    return None


def sorts_keys(call: ast.Call) -> bool:
    """Whether a dump passes a true ``sort_keys`` (``**kwargs`` are
    taken to carry one)."""
    for keyword in call.keywords:
        if keyword.arg is None:
            return True
        if keyword.arg == "sort_keys":
            return not (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
            )
    return False


def fingerprint_findings(tree):
    """RL501 and RL502 as ``(node, code, message)``."""
    for name, function in sorted(hash_closure(tree).items()):
        for node in ast.walk(function):
            iterables = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                reason = unordered_reason(iterable)
                if reason is not None:
                    yield iterable, "RL501", (
                        f"{reason} iterated in hash path `{name}` — wrap it "
                        "in sorted() so the content address is "
                        "order-independent"
                    )
            if isinstance(node, ast.Call):
                called = dotted_name(node.func)
                if called in ("json.dumps", "json.dump") and not sorts_keys(
                    node
                ):
                    yield node, "RL502", (
                        f"`{called}` without sort_keys=True in hash path "
                        f"`{name}` — serialised bytes would track dict "
                        "build order"
                    )


def scan(root: Path) -> list[tuple[str, int, str, str]]:
    """``(relpath, line, code, message)`` of every finding in the
    modules under ``root``, with ``relpath`` relative to it, sorted."""
    found = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        hits = list(fingerprint_findings(tree))
        if relpath != "cli.py":
            hits += determinism_findings(tree, relpath)
        found += [
            (relpath, node.lineno, code, message)
            for node, code, message in hits
        ]
    return sorted(found)


_PLANTED = re.compile(r"#\s*planted:\s*([A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*)")


def planted_markers() -> set[tuple[str, int, str]]:
    expected = set()
    for path in sorted(FIXTURES.rglob("*.py")):
        relpath = path.relative_to(FIXTURES).as_posix()
        for line, text in enumerate(path.read_text().splitlines(), 1):
            match = _PLANTED.search(text)
            if match:
                for code in match.group(1).split(","):
                    expected.add((relpath, line, code.strip()))
    return expected


def test_library_follows_the_source_rules():
    found = [
        f"{relpath}:{line}: {code} {message}"
        for relpath, line, code, message in scan(SRC)
    ]
    assert not found, "source-rule findings:\n" + "\n".join(found)


def test_rules_see_the_library():
    """Guard the guard: every hash entry is still a function of the
    cache module, so RL5 does not scan an empty closure."""
    cache = SRC / "experiments" / "cache.py"
    closure = hash_closure(ast.parse(cache.read_text()))
    assert HASH_ENTRIES | {"_module_source_hash"} <= closure.keys()


def test_fixture_markers_plant_every_rule():
    assert {code for _, _, code in planted_markers()} == CODES


def test_every_plant_is_found_at_its_exact_line_and_code():
    found = {(path, line, code) for path, line, code, _ in scan(FIXTURES)}
    assert found == planted_markers()


def test_messages_name_the_resolved_target_and_the_hash_path():
    """RL203 reports ``_clock.time()`` as ``time.time``, and each RL5
    finding names the function of the hash path it sits in."""
    messages = {
        (relpath, code): message
        for relpath, _, code, message in scan(FIXTURES)
    }
    assert "`time.time`" in messages["determinism_violations.py", "RL203"]
    assert "`_payload`" in messages["fingerprint_violations.py", "RL501"]
    assert "`shard_key`" in messages["fingerprint_violations.py", "RL502"]
    assert all(message for message in messages.values())
