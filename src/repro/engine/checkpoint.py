"""Versioned, pickle-free engine checkpoint payloads (``repro-ckpt/v1``).

Every engine exposes ``snapshot() -> dict`` and ``restore(payload)``
built from the helpers here.  A payload is a plain tree of JSON-able
scalars and NumPy arrays — *no pickled objects* — so checkpoints can be
persisted with :func:`repro.experiments.export.save_checkpoint`
(JSON + NPZ), inspected by hand, and loaded across process boundaries
without trusting the file's code.

The contract backed by these payloads (and enforced by
``tests/property/test_checkpoint_invariance.py``) is *split
invariance*: for any split point,

    ``run(a); snapshot(); ...; restore(); run(b)``

is bit-identical to the uninterrupted ``run(a + b)`` — trajectories,
tables and subsequent RNG draws all match exactly.  Two ingredients
make that possible:

* the payload captures *all* run-relevant mutable state, including the
  RNG bit-generator state (:func:`rng_state`), buffered-but-unconsumed
  draws, per-row stream pools (:mod:`repro.engine.streams`) and pending
  event arrivals (the event-driven engines carry an overshooting
  geometric jump across ``run`` calls instead of discarding it);
* ``restore`` rebuilds that state *in place* on a compatibly
  constructed engine, so nothing about the downstream draw sequence
  depends on whether a checkpoint happened.

Payloads are host-side by contract: engines running on a device backend
cross ``Backend.to_numpy`` before assembling a payload and
``Backend.from_host`` after :func:`as_array`, so a checkpoint taken on
one backend restores on any other.
"""

from __future__ import annotations

from .backend import HOST, Generator

np = HOST.xp  # host namespace: payloads always serialise as NumPy so
              # ``repro-ckpt/v1`` stays portable across array backends

#: Payload format tag; bump on incompatible layout changes.
CKPT_FORMAT = "repro-ckpt/v1"


def payload(engine: str, **fields) -> dict:
    """Assemble a ``repro-ckpt/v1`` payload for ``engine``."""
    out = {"format": CKPT_FORMAT, "engine": engine}
    out.update(fields)
    return out


def check(data: dict, engine: str) -> dict:
    """Validate a payload's format tag and engine name; returns it."""
    if not isinstance(data, dict):
        raise TypeError("checkpoint payload must be a dict")
    fmt = data.get("format")
    if fmt != CKPT_FORMAT:
        raise ValueError(
            f"unsupported checkpoint format {fmt!r} "
            f"(expected {CKPT_FORMAT!r})"
        )
    found = data.get("engine")
    if found != engine:
        raise ValueError(
            f"checkpoint was taken from engine {found!r}, "
            f"cannot restore into {engine!r}"
        )
    return data


# ----------------------------------------------------------------------
# RNG bit-generator state


def rng_state(rng: Generator) -> dict:
    """JSON-able snapshot of a generator's bit-generator state.

    NumPy's ``bit_generator.state`` is already a plain dict of strings
    and (arbitrary-precision) integers for the PCG64 family; SFC64 and
    Philox carry their counters as uint64 arrays, which are converted
    to lists so the payload stays pickle-free.
    """
    return _plain_state(rng.bit_generator.state)


def checked_rng_state(rng: Generator, state) -> dict:
    """Check an :func:`rng_state` payload for ``rng`` and return it.

    The state is loaded into a scratch bit generator of ``rng``'s
    class, so a payload that class rejects — a missing key, a wrong
    type, a word out of range — raises ValueError here, while ``rng``
    is untouched.  Engines call it with their other checks, before
    restoring anything, and assign the returned state last with
    :func:`set_rng_state`.
    """
    if not isinstance(state, dict):
        raise ValueError("checkpoint rng state must be a dict")
    kind = type(rng.bit_generator)
    name = state.get("bit_generator")
    if name != kind.__name__:
        raise ValueError(
            f"checkpoint holds {name!r} state but the engine uses "
            f"{kind.__name__!r}"
        )
    try:
        kind(0).state = state
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"checkpoint rng state is not a valid {name} state: {exc!r}"
        ) from exc
    return state


def set_rng_state(rng: Generator, state: dict) -> None:
    """Restore a generator's bit-generator state in place."""
    name = state.get("bit_generator")
    if name != type(rng.bit_generator).__name__:
        raise ValueError(
            f"checkpoint holds {name!r} state but the engine uses "
            f"{type(rng.bit_generator).__name__!r}"
        )
    rng.bit_generator.state = state


def restore_rng(state: dict) -> Generator:
    """Build a fresh generator from a :func:`rng_state` snapshot."""
    name = state.get("bit_generator")
    factory = getattr(np.random, str(name), None)
    if factory is None:
        raise ValueError(f"unknown bit generator {name!r}")
    bit_generator = factory()
    bit_generator.state = state
    return Generator(bit_generator)


def _plain_state(value):
    if isinstance(value, dict):
        return {key: _plain_state(entry) for key, entry in value.items()}
    if isinstance(value, np.ndarray):
        return [int(entry) for entry in value]
    if isinstance(value, np.integer):
        return int(value)
    return value


# ----------------------------------------------------------------------
# Array/scalar coercion for restore paths


def as_array(value, dtype):
    """Coerce a payload field back to a fresh NumPy array of ``dtype``.

    Always copies: restore paths assign the result to engine state
    that later runs mutate in place, and aliasing the payload would
    silently corrupt it for a second ``restore``.
    """
    return np.array(value, dtype=dtype)


def as_row_vector(value, dtype, rows: int, name: str):
    """:func:`as_array` for a per-row field, which must have shape
    ``(rows,)``: broadcasting would otherwise let a truncated vector
    restore without complaint and corrupt the next run."""
    array = as_array(value, dtype)
    if array.shape != (rows,):
        raise ValueError(
            f"checkpoint {name} has shape {array.shape}, expected ({rows},)"
        )
    return array


def as_int(value) -> int:
    return int(value)


def restore_weight_table(table, values) -> None:
    """Re-grow a :class:`~repro.core.weights.WeightTable` to match the
    snapshotted weights.

    Colour addition is the only legal mutation of a weight table, so a
    checkpoint taken after adversarial ``add_colour`` interventions may
    hold *more* colours than a freshly constructed engine.  The shared
    prefix must agree exactly; extra snapshotted colours are appended.
    """
    values = [float(v) for v in values]
    if len(values) < table.k:
        raise ValueError(
            f"checkpoint has {len(values)} colours but the engine's "
            f"weight table already has {table.k}"
        )
    current = [table.weight(i) for i in range(table.k)]
    if current != values[: table.k]:
        raise ValueError(
            "checkpoint weights disagree with the engine's weight table"
        )
    for weight in values[table.k:]:
        table.add_colour(weight)
