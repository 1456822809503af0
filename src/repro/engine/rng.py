"""Reproducible randomness utilities.

Every stochastic component in the library accepts a
:class:`numpy.random.Generator`.  These helpers centralise construction
and deterministic splitting so that experiments are reproducible from a
single integer seed.
"""

from __future__ import annotations

from numpy.random import Generator, SeedSequence, default_rng


def make_rng(seed: int | Generator | None = None) -> Generator:
    """Build a generator from a seed, pass through an existing generator."""
    if isinstance(seed, Generator):
        return seed
    return default_rng(seed)


def spawn(rng: Generator, count: int) -> list[Generator]:
    """Split ``rng`` into ``count`` statistically independent children."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return [default_rng(s) for s in rng.bit_generator.seed_seq.spawn(count)]


def spawn_sequences(
    seed: int | SeedSequence | None, count: int
) -> list[SeedSequence]:
    """``count`` child seed sequences of ``seed``, derived statelessly.

    Unlike :func:`spawn`, which advances the parent generator's spawn
    counter, this derives the children from a *fresh*
    :class:`~numpy.random.SeedSequence`, so the mapping from
    ``(seed, index)`` to a child is pure and prefix-stable:
    ``spawn_sequences(s, m)[:j] == spawn_sequences(s, n)[:j]`` for any
    ``j <= min(m, n)``.  The first ``count`` children equal those of
    ``spawn(make_rng(seed), count)``, so pipelines that shard a legacy
    seed loop reproduce its replication streams exactly.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(seed, SeedSequence):
        # Copy so the caller's sequence keeps its own spawn counter.
        sequence = SeedSequence(
            entropy=seed.entropy,
            spawn_key=seed.spawn_key,
            pool_size=seed.pool_size,
        )
    else:
        sequence = SeedSequence(seed)
    return sequence.spawn(count)
