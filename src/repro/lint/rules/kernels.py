"""RL4 — kernel-purity rules.

The array engines are portable across array-API namespaces *except*
where they deliberately opt out: ``require_engine_loops`` pins a
backend that additionally provides NumPy conveniences (``bincount``,
``concatenate``, ufunc methods, ``out=``).  Two invariants keep that
boundary honest:

``RL401`` / ``RL402``
    Transition kernels (classes named ``*Kernel``) are the hot,
    backend-agnostic core — they must stay on array-API-standard ops
    (RL401) and never mutate in place via ``out=`` or ufunc ``.at``
    scatter (RL402), because a kernel runs against *any* resolved
    backend, not just the loop-capable host.
``RL403``
    Everywhere else in the engine scope, a non-standard op or ``out=``
    is fine only in a *gated* context: a class whose methods call
    ``require_engine_loops`` (directly, or through a one-hop module
    helper like ``_resolve_loop_backend``, or by inheriting a gated
    same-module base class), or a module function that receives the
    namespace from its caller (an ``xp``/``backend``/``bk``
    parameter — the caller owns the capability decision there).

Only names literally bound to ``xp`` are inspected — that is the
repo-wide convention for "the array namespace of the resolved
backend".  Host-namespace aliases (``np = HOST.xp``) are the full
NumPy surface by construction and are the seam rules' (RL1) business.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..registry import rule
from ..walker import SourceModule, class_methods, dotted_name

#: Array-API-standard namespace members (2023.12 revision): the ops a
#: kernel may use on any resolved backend.  Grouped as in the spec.
STANDARD_OPS = frozenset({
    # creation
    "arange", "asarray", "empty", "empty_like", "eye", "from_dlpack",
    "full", "full_like", "linspace", "meshgrid", "ones", "ones_like",
    "tril", "triu", "zeros", "zeros_like",
    # elementwise
    "abs", "acos", "acosh", "add", "asin", "asinh", "atan", "atan2",
    "atanh", "bitwise_and", "bitwise_left_shift", "bitwise_invert",
    "bitwise_or", "bitwise_right_shift", "bitwise_xor", "ceil", "clip",
    "conj", "copysign", "cos", "cosh", "divide", "equal", "exp",
    "expm1", "floor", "floor_divide", "greater", "greater_equal",
    "hypot", "imag", "isfinite", "isinf", "isnan", "less",
    "less_equal", "log", "log1p", "log2", "log10", "logaddexp",
    "logical_and", "logical_not", "logical_or", "logical_xor",
    "maximum", "minimum", "multiply", "negative", "nextafter",
    "not_equal", "positive", "pow", "real", "remainder", "round",
    "sign", "signbit", "sin", "sinh", "square", "sqrt", "subtract",
    "tan", "tanh", "trunc",
    # statistical / utility
    "cumulative_sum", "max", "mean", "min", "prod", "std", "sum",
    "var", "all", "any", "diff", "count_nonzero",
    # searching / sorting / sets
    "argmax", "argmin", "nonzero", "searchsorted", "where", "argsort",
    "sort", "unique_all", "unique_counts", "unique_inverse",
    "unique_values",
    # manipulation
    "broadcast_arrays", "broadcast_to", "concat", "expand_dims",
    "flip", "moveaxis", "permute_dims", "repeat", "reshape", "roll",
    "squeeze", "stack", "tile", "unstack",
    # indexing / dtype machinery
    "take", "take_along_axis", "astype", "can_cast", "finfo", "iinfo",
    "isdtype", "result_type", "matmul", "matrix_transpose",
    "tensordot", "vecdot",
    # constants and dtype objects
    "inf", "nan", "pi", "e", "newaxis",
    "bool", "int8", "int16", "int32", "int64", "uint8", "uint16",
    "uint32", "uint64", "float32", "float64", "complex64",
    "complex128",
    # standard extension namespaces (members not individually checked)
    "linalg", "fft",
})

#: Parameters that hand the namespace decision to the caller.
_NAMESPACE_PARAMS = frozenset({"xp", "backend", "bk"})

GATE_FUNCTION = "require_engine_loops"


def in_kernel_scope(relpath: str) -> bool:
    if relpath == "engine/backend.py":
        return False
    return relpath.startswith("engine/")


@rule
def check_kernels(module: SourceModule):
    if not in_kernel_scope(module.relpath):
        return
    gated_classes = _gated_classes(module)
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            if node.name.endswith("Kernel"):
                yield from _check_kernel_class(module, node)
            elif node.name not in gated_classes:
                yield from _check_ungated(module, node, f"class {node.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _caller_owns_namespace(node):
                yield from _check_ungated(module, node, f"function {node.name}")
        else:
            yield from _check_ungated(module, node, "module-level code")


def _check_kernel_class(module: SourceModule, cls: ast.ClassDef):
    for node, op in _nonstandard_uses(cls):
        yield _make(
            module, node, "RL401",
            f"kernel {cls.name} uses non-array-API op `xp.{op}` — "
            "kernels must run on any resolved backend; move the "
            "convenience behind require_engine_loops",
        )
    for node, what in _inplace_uses(cls):
        yield _make(
            module, node, "RL402",
            f"kernel {cls.name} mutates in place via {what} — "
            "kernels must stay functional (out=/.at are "
            "NumPy-only semantics)",
        )


def _check_ungated(module: SourceModule, node: ast.AST, context: str):
    offences = [(n, f"non-array-API op `xp.{op}`") for n, op in
                _nonstandard_uses(node)]
    offences += [(n, f"in-place {what}") for n, what in _inplace_uses(node)]
    for offending, what in sorted(offences, key=lambda o: (o[0].lineno, o[0].col_offset)):
        yield _make(
            module, offending, "RL403",
            f"{what} in un-gated {context} — call require_engine_loops "
            "(or take xp from the caller) before relying on NumPy "
            "conveniences",
        )


def _make(module: SourceModule, node: ast.AST, code: str, message: str):
    return Finding(
        path=module.path,
        relpath=module.relpath,
        line=node.lineno,
        col=node.col_offset,
        code=code,
        message=message,
    )


def _nonstandard_uses(root: ast.AST):
    """(node, op-name) for each ``xp.<op>`` outside the standard."""
    for node in ast.walk(root):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id == "xp":
            if node.attr not in STANDARD_OPS:
                yield node, node.attr
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "xp"
            and base.attr not in ("linalg", "fft")
        ):
            # ufunc methods: xp.maximum.accumulate, xp.add.at, ...
            yield node, f"{base.attr}.{node.attr}"


def _inplace_uses(root: ast.AST):
    """(node, description) for ``out=`` keywords on ``xp.*`` calls."""
    for node in ast.walk(root):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None or not name.startswith("xp."):
            continue
        for kw in node.keywords:
            if kw.arg == "out":
                yield node, f"`out=` on `{name}`"


def _caller_owns_namespace(func: ast.FunctionDef) -> bool:
    params = [
        *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs,
    ]
    return any(arg.arg in _NAMESPACE_PARAMS for arg in params)


def _gated_classes(module: SourceModule) -> set[str]:
    """Names of top-level classes allowed NumPy conveniences.

    A class is gated when any of its methods calls
    ``require_engine_loops`` — directly or through a module-level
    helper that does — or when it inherits from a gated class defined
    in the same module.
    """
    gating_helpers = {GATE_FUNCTION}
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _calls_any(node, {GATE_FUNCTION}):
                gating_helpers.add(node.name)

    classes = [n for n in module.tree.body if isinstance(n, ast.ClassDef)]
    gated = {
        cls.name for cls in classes
        if any(
            _calls_any(method, gating_helpers)
            for method in class_methods(cls).values()
        )
    }
    # Propagate through same-module inheritance to a fixed point.
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in gated:
                continue
            for base in cls.bases:
                if isinstance(base, ast.Name) and base.id in gated:
                    gated.add(cls.name)
                    changed = True
                    break
    return gated


def _calls_any(root: ast.AST, names: set[str]) -> bool:
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            called = dotted_name(node.func)
            if called is not None and called.rpartition(".")[2] in names:
                return True
    return False
