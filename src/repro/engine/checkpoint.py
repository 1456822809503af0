"""Versioned, pickle-free engine state views (``repro-ckpt/v1``).

Every engine exposes ``snapshot() -> dict`` built from the helpers
here.  A snapshot is a *read-only* view of the engine's run-relevant
state: a plain tree of JSON-able scalars and NumPy arrays — counts,
clocks, buffered-but-unconsumed draws, per-row stream pools
(:mod:`repro.engine.streams`), pending event arrivals and the RNG
bit-generator state (:func:`rng_state`).  Taking one never perturbs
the trajectory.  The loop digests (``tests/unit/test_*_loop_digest.py``)
hash snapshot fields, and the split-invariance properties
(``tests/property/test_split_invariance.py``) compare them: for any
split, ``run(a); run(b)`` leaves the same snapshot as ``run(a + b)``.
No engine restores a snapshot; an interrupted sweep resumes by
rerunning it with the shard cache.
"""

from __future__ import annotations

import numpy as np

#: Snapshot format tag; bump on incompatible layout changes.
CKPT_FORMAT = "repro-ckpt/v1"


def payload(engine: str, **fields) -> dict:
    """Assemble a ``repro-ckpt/v1`` snapshot for ``engine``."""
    out = {"format": CKPT_FORMAT, "engine": engine}
    out.update(fields)
    return out


def rng_state(rng: np.random.Generator) -> dict:
    """JSON-able snapshot of a generator's bit-generator state.

    NumPy's ``bit_generator.state`` is already a plain dict of strings
    and (arbitrary-precision) integers for the PCG64 family; SFC64 and
    Philox carry their counters as uint64 arrays, which are converted
    to lists so the snapshot stays pickle-free.
    """
    return _plain_state(rng.bit_generator.state)


def _plain_state(value):
    if isinstance(value, dict):
        return {key: _plain_state(entry) for key, entry in value.items()}
    if isinstance(value, np.ndarray):
        return [int(entry) for entry in value]
    if isinstance(value, np.integer):
        return int(value)
    return value
