"""RL2 — determinism rules.

The repo's reproducibility story rests on every random draw flowing
from an explicit ``SeedSequence`` (see ``engine/rng.py``) and on
library results never depending on wall-clock time.  These rules catch
the three classic leaks:

``RL201``
    ``np.random.*`` *global-state* calls (``np.random.seed``,
    ``np.random.rand``, ...).  Constructing generator objects
    (``np.random.default_rng``, ``np.random.Generator``,
    ``np.random.PCG64``, ``np.random.SeedSequence``) is fine — those
    are the sanctioned, explicit-state API (RL204 checks their
    seeding).
``RL202``
    importing the stdlib ``random`` module in library code.
``RL203``
    calling wall-clock sources (``time.time``, ``datetime.now``,
    ``datetime.utcnow``, ``datetime.today``) in library code.
    ``time.perf_counter``/``monotonic`` are allowed: they feed timing
    *measurements*, never results.
``RL204``
    ``default_rng()`` / ``SeedSequence()`` with no argument outside
    ``engine/rng.py`` — an unseeded construction draws OS entropy and
    the run is unreproducible.  ``engine/rng.py`` is the sanctioned
    site (it seeds from the experiment spec).

Scope: the whole package except the CLI (``cli.py`` may timestamp its
progress output).  Tests and fixtures are outside the lint root.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..registry import rule
from ..walker import SourceModule

#: Explicit-state constructors reachable via ``np.random.`` that RL201
#: must NOT flag (RL204 owns their seeding discipline).
_GENERATOR_API = frozenset({
    "default_rng", "Generator", "PCG64", "PCG64DXSM", "Philox",
    "SFC64", "MT19937", "SeedSequence", "BitGenerator", "RandomState",
})

#: Wall-clock call targets (post alias-resolution dotted names).
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Unseeded-construction targets for RL204 (tail of the dotted name).
_SEEDED_CONSTRUCTORS = frozenset({"default_rng", "SeedSequence"})

#: Module whose whole purpose is turning specs into seeds.
RNG_MODULE = "engine/rng.py"


def in_determinism_scope(relpath: str) -> bool:
    return relpath != "cli.py"


def _make(module: SourceModule, node: ast.AST, code: str, message: str):
    return Finding(
        path=module.path,
        relpath=module.relpath,
        line=node.lineno,
        col=node.col_offset,
        code=code,
        message=message,
    )


@rule
def check_determinism(module: SourceModule):
    if not in_determinism_scope(module.relpath):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield _make(
                        module, node, "RL202",
                        "stdlib `random` is seeded globally and "
                        "process-wide — draw from an explicit "
                        "Generator (see engine/rng.py) instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "random":
                yield _make(
                    module, node, "RL202",
                    "stdlib `random` is seeded globally and "
                    "process-wide — draw from an explicit "
                    "Generator (see engine/rng.py) instead",
                )
        elif isinstance(node, ast.Call):
            target = module.resolve_dotted(node.func)
            if target is None:
                continue
            head, _, tail = target.rpartition(".")
            if (
                head in ("np.random", "numpy.random")
                and tail not in _GENERATOR_API
            ):
                yield _make(
                    module, node, "RL201",
                    f"`{target}` mutates numpy's hidden global RNG "
                    "state — use an explicit Generator from "
                    "engine/rng.py",
                )
            elif target in _WALL_CLOCK:
                yield _make(
                    module, node, "RL203",
                    f"`{target}` makes output depend on wall-clock "
                    "time — thread timestamps in from the caller "
                    "(perf_counter is fine for durations)",
                )
            elif (
                tail in _SEEDED_CONSTRUCTORS
                and _looks_like_rng_constructor(target)
                and not _has_seed_argument(node)
                and module.relpath != RNG_MODULE
            ):
                yield _make(
                    module, node, "RL204",
                    f"`{tail}()` with no seed draws OS entropy — "
                    "seed it explicitly or obtain generators from "
                    "engine/rng.py",
                )


def _looks_like_rng_constructor(target: str) -> bool:
    """Filter out unrelated ``something.default_rng`` methods.

    Accept the bare names (imported from numpy.random) and the
    ``np.random.``/``numpy.random.`` qualified forms.
    """
    head, _, _tail = target.rpartition(".")
    return head in ("", "np.random", "numpy.random", "numpy.random._generator")


def _has_seed_argument(call: ast.Call) -> bool:
    if any(not isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True  # can't see inside *args: assume seeded
    for kw in call.keywords:
        if kw.arg in (None, "seed", "entropy"):
            return True
    return False
