"""Array-API backend seam for the vectorised engine layer.

Every module under :mod:`repro.engine` obtains its array namespace,
dtypes and host/device boundary converters from here instead of
importing ``numpy`` directly.  This file is the *only* sanctioned
``import numpy`` site of that layer — a rule enforced by
``tests/unit/test_backend_seam.py`` — so lifting the agent arrays and
the ``(B, k_max)`` count layout onto another array backend is a matter of
resolving a different :class:`Backend`, not of editing kernels.

Three backends are known:

``numpy``
    The always-on default.  ``Backend.xp`` *is* the ``numpy`` module,
    every converter is (at most) a view, and all code paths are
    bit-identical to a direct-numpy implementation.

``array-api-strict``
    A pure-Python reference implementation of the array-API standard
    (aliases: ``strict``, ``array_api_strict``).  It exists to prove
    portability, not speed: the transition-kernel layer runs on it
    unmodified, while the engine step/event loops — which lean on
    NumPy-compatible conveniences the strict namespace deliberately
    omits (fancy-index scatter, ufunc ``.accumulate``, ``out=``) — are
    gated and raise a clear error (``supports_engine_loops`` is False).

``cupy``
    GPU execution via the NumPy-compatible CuPy namespace.  Resolved
    lazily; requesting it without CuPy installed raises with an
    actionable message.  Host-drawn RNG blocks are transferred to the
    device by :meth:`Backend.from_host` (the portable fallback the
    array-API standard leaves unspecified).

Selection order: an explicit ``backend=`` argument on an engine wins,
then the ``REPRO_BACKEND`` environment variable, then ``numpy``.

Randomness deliberately stays on the host: :mod:`repro.engine.rng`
(``make_rng``, ``spawn_sequences``) remains the single source of
seeding truth, so a trajectory is reproducible from one integer seed on
*every* backend.  Device backends receive CPU-drawn blocks via
:meth:`Backend.uniform_block` / :meth:`Backend.integer_block`.

Engine snapshots (``repro-ckpt/v1``) always hold NumPy arrays:
snapshot paths cross :meth:`Backend.to_numpy`, so a snapshot reads the
same on every backend.
"""

from __future__ import annotations

import os

import numpy as np

# ---------------------------------------------------------------------------
# Host-side primitives re-exported for the engine layers.
#
# Modules that are host-resident by design (seeding, per-row PCG64
# streams, snapshot views, scalar engines) import these
# instead of naming numpy themselves.  ``HOST.xp`` is the numpy module.
# ---------------------------------------------------------------------------

Generator = np.random.Generator
SeedSequence = np.random.SeedSequence
PCG64 = np.random.PCG64
default_rng = np.random.default_rng

#: Host dtype constants for host-only modules (snapshot views,
#: PCG64 state words, scalar-engine count vectors).  Device-aware code
#: should prefer ``backend.dtypes`` so the dtype objects match ``xp``.
INT64 = np.int64
FLOAT64 = np.float64
UINT64 = np.uint64
BOOL = np.bool_

#: Environment variable consulted when no explicit backend is passed.
ENV_VAR = "REPRO_BACKEND"


class DtypeTable:
    """The central dtype table of one backend.

    Replaces the raw ``np.int64`` / ``np.float64`` literals that used
    to be scattered through the engines: each backend exposes *its own*
    dtype objects (the strict namespace rejects foreign dtypes), and
    the trajectory contract pins exact widths so results cannot drift
    on platforms whose default integer differs.
    """

    __slots__ = ("int64", "float64", "uint64", "bool_")

    def __init__(self, int64, float64, uint64, bool_):
        self.int64 = int64
        self.float64 = float64
        self.uint64 = uint64
        self.bool_ = bool_

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DtypeTable(int64={self.int64!r}, float64={self.float64!r}, "
            f"uint64={self.uint64!r}, bool_={self.bool_!r})"
        )


class Backend:
    """An array namespace plus the pieces the array-API doesn't cover.

    Attributes
    ----------
    name:
        Canonical backend name (``"numpy"``, ``"array-api-strict"``,
        ``"cupy"``).
    xp:
        The array namespace handle all vectorised code computes with.
    dtypes:
        This backend's :class:`DtypeTable`.
    supports_engine_loops:
        True when ``xp`` is NumPy-compatible enough to run the engine
        step/event loops (fancy-index gather/scatter, ``cumsum(axis=)``,
        the ``minimum.at`` scatter-min, ``bincount``).  The strict
        backend only covers the kernel layer and sets this False.
    """

    __slots__ = (
        "name", "xp", "dtypes", "supports_engine_loops",
        "_to_numpy", "_from_host",
    )

    def __init__(
        self,
        name: str,
        xp,
        dtypes: DtypeTable,
        *,
        supports_engine_loops: bool = True,
        to_numpy=None,
        from_host=None,
    ):
        self.name = name
        self.xp = xp
        self.dtypes = dtypes
        self.supports_engine_loops = supports_engine_loops
        self._to_numpy = to_numpy
        self._from_host = from_host

    # -- identity ----------------------------------------------------------

    @property
    def is_host(self) -> bool:
        """True when ``xp`` is the numpy module itself."""
        return self.xp is np

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Backend({self.name!r})"

    # -- boundary converters ----------------------------------------------

    def asarray(self, value, dtype=None):
        """Coerce ``value`` into this backend's namespace."""
        if dtype is None:
            return self.xp.asarray(value)
        return self.xp.asarray(value, dtype=dtype)

    def to_numpy(self, array, *, copy: bool = False):
        """Materialise ``array`` on the host as a NumPy array.

        Every snapshot/serialisation path crosses this converter so
        ``repro-ckpt/v1`` views are host NumPy on every backend.  Pass
        ``copy=True`` when the caller stores the result (snapshot
        semantics require independence from live engine state).
        """
        if self._to_numpy is not None:
            host = self._to_numpy(array)
        else:
            try:
                host = np.asarray(array)
            except TypeError:
                host = np.from_dlpack(array)
        if copy:
            return np.array(host)
        return host

    def from_host(self, array):
        """Move a host (NumPy) array onto this backend.

        The portable fallback for everything drawn on the host —
        RNG blocks, user-supplied initial state.
        A no-op view for the numpy backend.
        """
        if self._from_host is not None:
            return self._from_host(array)
        return self.xp.asarray(array)

    # -- host-drawn randomness --------------------------------------------

    def uniform_block(self, rng: Generator, shape):
        """A ``U[0, 1)`` float64 block drawn on the host, device-placed.

        Drawing on the host keeps :mod:`repro.engine.rng` the single
        source of seeding truth: the same seed yields the same
        trajectory on every backend, at the cost of one transfer per
        block on device backends.
        """
        return self.from_host(rng.random(shape))

    def integer_block(self, rng: Generator, low, high, shape, *, endpoint=False):
        """A host-drawn int64 block in ``[low, high)``, device-placed."""
        return self.from_host(
            rng.integers(low, high, size=shape, dtype=INT64, endpoint=endpoint)
        )


# ---------------------------------------------------------------------------
# Backend construction and resolution
# ---------------------------------------------------------------------------

#: The always-on NumPy backend.  ``HOST.xp is numpy``; every converter
#: is the identity (module-level singleton so ``backend is HOST`` works
#: as a fast-path test).
HOST = Backend(
    "numpy",
    np,
    DtypeTable(np.int64, np.float64, np.uint64, np.bool_),
)


def _make_strict() -> Backend:
    import array_api_strict as xs

    def to_numpy(array):
        try:
            return np.asarray(array)
        except TypeError:  # pragma: no cover - depends on strict version
            return np.from_dlpack(array)

    return Backend(
        "array-api-strict",
        xs,
        DtypeTable(xs.int64, xs.float64, xs.uint64, getattr(xs, "bool")),
        supports_engine_loops=False,
        to_numpy=to_numpy,
        from_host=xs.asarray,
    )


def _make_cupy() -> Backend:
    import cupy

    return Backend(
        "cupy",
        cupy,
        DtypeTable(cupy.int64, cupy.float64, cupy.uint64, cupy.bool_),
        to_numpy=cupy.asnumpy,
        from_host=cupy.asarray,
    )


_FACTORIES = {
    "numpy": lambda: HOST,
    "array-api-strict": _make_strict,
    "cupy": _make_cupy,
}

_ALIASES = {
    "np": "numpy",
    "host": "numpy",
    "strict": "array-api-strict",
    "array_api_strict": "array-api-strict",
}

_CACHE: dict[str, Backend] = {"numpy": HOST}


def _canonical(name: str) -> str:
    key = name.strip().lower()
    return _ALIASES.get(key, key)


def resolve_backend(spec: str | Backend | None = None) -> Backend:
    """Resolve ``spec`` into a :class:`Backend`.

    ``None`` consults the ``REPRO_BACKEND`` environment variable and
    falls back to ``numpy``; a string is looked up by (aliased) name; a
    :class:`Backend` instance passes through.  Unknown names raise
    :exc:`ValueError`; a known backend whose package is not installed
    raises :exc:`RuntimeError` naming the missing import.
    """
    if isinstance(spec, Backend):
        return spec
    if spec is None:
        spec = os.environ.get(ENV_VAR, "").strip() or "numpy"
    name = _canonical(spec)
    if name in _CACHE:
        return _CACHE[name]
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown backend {spec!r}; known backends: "
            f"{', '.join(sorted(_FACTORIES))}"
        )
    try:
        backend = factory()
    except ImportError as error:
        raise RuntimeError(
            f"backend {name!r} was requested (via {ENV_VAR} or backend=) "
            f"but its package is not importable: {error}"
        ) from error
    _CACHE[name] = backend
    return backend


def available_backends() -> dict[str, bool]:
    """Map every known backend name to whether it resolves right now."""
    out = {}
    for name in sorted(_FACTORIES):
        try:
            resolve_backend(name)
        except (RuntimeError, ValueError):
            out[name] = False
        else:
            out[name] = True
    return out


def require_engine_loops(backend: Backend, engine: str) -> Backend:
    """Gate an engine constructor on a NumPy-compatible namespace.

    The strict backend exists to validate the kernel layer; the engine
    step/event loops need conveniences the standard omits.  Raising
    here — with the supported alternatives spelled out — beats a
    cryptic ``TypeError`` three layers down an event loop.
    """
    if not backend.supports_engine_loops:
        supported = sorted(
            name for name, factory in _FACTORIES.items()
            if name != backend.name
        )
        raise ValueError(
            f"backend {backend.name!r} covers the transition-kernel layer "
            f"only; {engine} needs a NumPy-compatible backend "
            f"(one of: {', '.join(supported)})"
        )
    return backend
