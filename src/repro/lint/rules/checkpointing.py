"""RL3 — checkpoint-completeness rules (the ``repro-ckpt/v1`` contract).

Any class offering ``snapshot()``/``restore()`` promises that a
restored object replays *identically*.  The classic way that promise
rots: someone adds a stateful ``self._x`` to ``__init__``, mutates it
during stepping, and forgets to thread it through the checkpoint
payload.  Nothing fails until a resumed run silently diverges.

Detection, per class that defines both ``snapshot`` and ``restore``.
Each step works on a method's *closure*: the method plus every method
of the same class it reaches through ``self.method()`` calls (or
property reads), transitively.

1. collect every underscore field assigned in the closure of
   ``__init__`` (``self._x = ...`` / annotated / unpacked), so an
   engine that assigns its fields in a private initialiser is checked
   like one that assigns them in ``__init__`` itself;
2. keep the *mutable* ones — fields also written after construction
   (rebind, ``+=``, subscript store, ``del``, or a mutating method
   call such as ``.append``/``.update``/``.fill``): by any method
   except ``__init__``, ``restore`` and the private helpers of the
   ``__init__`` closure, or by a method one of those calls, so a
   helper that both ``__init__`` and ``run`` call still counts.
   Fields never touched after construction are static configuration
   and need no serialisation;
3. require each mutable field to be referenced in the closure of
   ``snapshot`` (else ``RL301``) and of ``restore`` (else ``RL302``),
   so a snapshot that serialises ``_dark`` via ``self.dark_counts()``
   counts.

Findings anchor at the field's first assignment in the ``__init__``
closure — that is where the waiver belongs, next to the field it is
justifying.  The analysis is single-file and inheritance-blind by
design: an engine that splits ``__init__`` and ``snapshot`` across a
class hierarchy should carry a waiver explaining where the field is
handled.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..registry import rule
from ..walker import (
    SourceModule,
    class_methods,
    self_attribute,
    self_attribute_base,
)

#: Method names that mutate their receiver in place.
MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear",
    "add", "discard", "update", "setdefault", "popitem",
    "sort", "reverse", "fill", "partial_fill", "put", "itemset",
})


@rule
def check_checkpoints(module: SourceModule):
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            yield from _check_class(module, node)


def _check_class(module: SourceModule, cls: ast.ClassDef):
    methods = class_methods(cls)
    snapshot = methods.get("snapshot")
    restore = methods.get("restore")
    init = methods.get("__init__")
    if snapshot is None or restore is None or init is None:
        return

    construction = _closure(init, methods)
    assigned = _assignments(construction)
    if not assigned:
        return

    # Methods that run after construction: all but __init__, restore
    # and the private helpers of __init__, plus what they call.
    built = {
        method.name for method in construction if method.name.startswith("_")
    }
    runtime = {
        reached.name: reached
        for name, method in methods.items()
        if name not in built and name != "restore"
        for reached in _closure(method, methods)
        if reached.name not in ("__init__", "restore")
    }
    mutated = _mutated_fields(runtime.values())
    snapshot_refs = _references(_closure(snapshot, methods))
    restore_refs = _references(_closure(restore, methods))

    for name, node in assigned.items():
        if name not in mutated:
            continue
        if name not in snapshot_refs:
            yield Finding(
                path=module.path,
                relpath=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                code="RL301",
                message=(
                    f"mutable field `self.{name}` of {cls.name} is "
                    "never serialised in snapshot() — a resumed run "
                    "will diverge (repro-ckpt/v1)"
                ),
            )
        if name not in restore_refs:
            yield Finding(
                path=module.path,
                relpath=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                code="RL302",
                message=(
                    f"mutable field `self.{name}` of {cls.name} is "
                    "never restored in restore() — a resumed run "
                    "will diverge (repro-ckpt/v1)"
                ),
            )


def _assignments(methods) -> dict[str, ast.AST]:
    """Underscore fields assigned in ``methods`` (in order).

    Maps field name -> first assignment node (the waiver anchor).
    """
    fields: dict[str, ast.AST] = {}

    def record(target: ast.AST, node: ast.AST):
        name = self_attribute(target)
        if name is not None and name.startswith("_"):
            fields.setdefault(name, node)

    for method in methods:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Tuple, ast.List)):
                        for element in target.elts:
                            record(element, node)
                    else:
                        record(target, node)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                record(node.target, node)
    return fields


def _mutated_fields(methods) -> set[str]:
    """Fields written by ``methods``."""
    mutated: set[str] = set()
    for method in methods:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = []
                for target in node.targets:
                    if isinstance(target, (ast.Tuple, ast.List)):
                        targets.extend(target.elts)
                    else:
                        targets.append(target)
                for target in targets:
                    field = self_attribute_base(target)
                    if field is not None:
                        mutated.add(field)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                field = self_attribute_base(node.target)
                if field is not None:
                    mutated.add(field)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    field = self_attribute_base(target)
                    if field is not None:
                        mutated.add(field)
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                ):
                    field = self_attribute_base(node.func.value)
                    if field is not None:
                        mutated.add(field)
    return mutated


def _closure(
    entry: ast.FunctionDef, methods: dict[str, ast.FunctionDef]
) -> list[ast.FunctionDef]:
    """``entry`` and the methods it reaches through self-calls (or
    property reads), in visiting order."""
    reached: dict[str, ast.FunctionDef] = {}
    queue = [entry]
    while queue:
        method = queue.pop()
        if method.name in reached:
            continue
        reached[method.name] = method
        for node in ast.walk(method):
            attr = self_attribute(node)
            if attr in methods:  # self.helper() / property access
                queue.append(methods[attr])
    return list(reached.values())


def _references(methods) -> set[str]:
    """``self._x`` names referenced in ``methods``."""
    return {
        attr
        for method in methods
        for node in ast.walk(method)
        if (attr := self_attribute(node)) is not None
    }
