"""RL5 — fingerprint-hygiene rules.

Shard keys are content addresses: two processes computing the key for
the same work must get the same bytes, or the cache silently forks.
The hashing paths therefore must not observe any ordering that Python
does not guarantee across processes — set iteration order, hash-seeded
dict order, filesystem directory order — and every JSON serialisation
they hash must be ``sort_keys=True``.

Scope: any module that defines one of the hash entry functions
(``shard_key``, ``spec_fingerprint``, ``package_fingerprint``,
``measurement_fingerprint``, ``_seed_payload``), extended to the
same-module functions those entries call (``package_fingerprint`` ->
``_module_source_hash`` and friends).  Inside that closure:

``RL501``
    a ``for`` loop or comprehension drawing from a set (literal,
    ``set()``/``frozenset()``), an unsorted dict view
    (``.keys()``/``.values()``/``.items()``) or an unsorted directory
    walk (``.glob``/``.rglob``/``.iterdir``).  Wrapping in ``sorted()``
    (possibly through ``list``/``tuple``/``enumerate``/``reversed``)
    makes the order explicit and silences the rule.
``RL502``
    ``json.dumps(...)`` without ``sort_keys=True`` — the serialised
    bytes would depend on dict build order.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..registry import rule
from ..walker import SourceModule, dotted_name

#: Functions whose return values feed SHA-256 content addresses.
HASH_ENTRIES = frozenset({
    "shard_key", "spec_fingerprint", "package_fingerprint",
    "measurement_fingerprint", "_seed_payload",
})

#: Benign wrappers to peel when looking for an ordering guarantee.
_TRANSPARENT = frozenset({"list", "tuple", "enumerate", "reversed"})

_UNORDERED_METHODS = frozenset({
    "keys", "values", "items", "glob", "rglob", "iterdir",
})


@rule
def check_fingerprints(module: SourceModule):
    functions = {
        node.name: node
        for node in module.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    entries = [name for name in functions if name in HASH_ENTRIES]
    if not entries:
        return

    closure = _call_closure(entries, functions)
    for name in sorted(closure):
        yield from _check_function(module, functions[name])


def _call_closure(
    entries: list[str], functions: dict[str, ast.FunctionDef]
) -> set[str]:
    reached: set[str] = set()
    queue = list(entries)
    while queue:
        name = queue.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                called = dotted_name(node.func)
                if called is not None:
                    tail = called.rpartition(".")[2]
                    if tail in functions and tail not in reached:
                        queue.append(tail)
    return reached


def _check_function(module: SourceModule, func: ast.FunctionDef):
    for node in ast.walk(func):
        iterables = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterables.extend(gen.iter for gen in node.generators)
        for iterable in iterables:
            reason = _unordered_reason(iterable)
            if reason is not None:
                yield Finding(
                    path=module.path,
                    relpath=module.relpath,
                    line=iterable.lineno,
                    col=iterable.col_offset,
                    code="RL501",
                    message=(
                        f"{reason} iterated in hash path "
                        f"`{func.name}` — wrap it in sorted() so the "
                        "content address is order-independent"
                    ),
                )
        if isinstance(node, ast.Call):
            called = dotted_name(node.func)
            if called in ("json.dumps", "json.dump") and not _sorts_keys(node):
                yield Finding(
                    path=module.path,
                    relpath=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    code="RL502",
                    message=(
                        f"`{called}` without sort_keys=True in hash "
                        f"path `{func.name}` — serialised bytes would "
                        "track dict build order"
                    ),
                )


def _unordered_reason(node: ast.AST) -> str | None:
    """Why iterating ``node`` has no cross-process order, or None."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _TRANSPARENT
        and node.args
    ):
        node = node.args[0]
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            if node.func.id == "sorted":
                return None
            if node.func.id in ("set", "frozenset"):
                return f"`{node.func.id}()`"
        elif isinstance(node.func, ast.Attribute):
            if node.func.attr == "sorted":
                return None
            if node.func.attr in _UNORDERED_METHODS:
                return f"`.{node.func.attr}()`"
    elif isinstance(node, ast.Set):
        return "set literal"
    return None


def _sorts_keys(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg is None:  # **kwargs — cannot see inside, trust it
            return True
        if kw.arg == "sort_keys":
            return not (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            )
    return False
