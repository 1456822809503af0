"""Pooled draws are per-call draws.

:class:`MultiShadeAggregate` serves its uniforms by index from blocks
drawn with one ``rng.random(block)`` call, runs NumPy's geometric search
on a pooled uniform for gaps with ``p >= 1/3``, and syncs the generator
(restores the state saved before the block, then redraws the uniforms it
served) before each gap below 1/3 and at every exit.  The property below
drives the engine and :class:`PerCallLoop`, a loop that makes one
generator call per draw (``rng.geometric`` for each gap, ``rng.random``
for every other uniform) and recomputes the event totals from the shade
table for every event, through the same ``run`` splits and ``step()``
runs from twin generators.  After every call the two must hold the same
shade table, clock, pending arrival and bit-generator state, on five
bit generators: PCG64, PCG64 holding a buffered 32-bit word, MT19937,
Philox and SFC64.  A call that an exception interrupts must leave the
generator synced too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import WeightTable
from repro.engine import checkpoint as ckpt
from repro.engine.multishade import _BLOCK, MultiShadeAggregate

BIT_GENERATORS = ["PCG64", "PCG64-buffered", "MT19937", "Philox", "SFC64"]


def generator(kind: str, seed: int) -> np.random.Generator:
    """A generator of ``kind``; ``PCG64-buffered`` holds a 32-bit word
    that no double draw consumes, so it must survive every call."""
    if kind == "PCG64-buffered":
        bit_generator = np.random.PCG64(seed)
        state = bit_generator.state
        state["has_uint32"] = 1
        state["uinteger"] = 0xDEADBEEF
        bit_generator.state = state
    else:
        bit_generator = getattr(np.random, kind)(seed)
    return np.random.Generator(bit_generator)


class PerCallLoop:
    """The multishade dynamics with one generator call per draw."""

    def __init__(self, weights, counts, rng):
        self.shades = [[0] * w + [c] for w, c in zip(weights, counts)]
        self.rng = rng
        self.time = 0
        self.pending = None
        self.gaps = {"below": 0, "search": 0}  # gaps by p < 1/3 or not
        self.uniforms = 0  # draws the engine serves from its pool

    def uniform(self):
        self.uniforms += 1
        return self.rng.random()

    def totals(self):
        """``(P_i per colour, Z, Z·P + D, n (n − 1))``."""
        positive = [sum(row[1:]) for row in self.shades]
        zero = sum(row[0] for row in self.shades)
        rate = zero * sum(positive) + sum(c * (c - 1) for c in positive)
        n = zero + sum(positive)
        return positive, zero, rate, n * (n - 1)

    def run(self, steps):
        horizon = self.time + steps
        while self.time < horizon:
            _, _, rate, pairs = self.totals()
            if not rate:
                self.time = horizon
                break
            if self.pending is None:
                p = min(rate / pairs, 1.0)
                if p < 1 / 3:
                    self.gaps["below"] += 1
                else:
                    self.gaps["search"] += 1
                    self.uniforms += 1
                self.pending = self.time + int(self.rng.geometric(p))
            if self.pending > horizon:
                self.time = horizon
                break
            self.time, self.pending = self.pending, None
            self.event()

    def step(self):
        self.pending = None
        self.time += 1
        _, _, rate, pairs = self.totals()
        if self.uniform() >= rate / pairs:
            return False
        self.event()
        return True

    def event(self):
        positive, zero, rate, _ = self.totals()
        adopt = zero * sum(positive)
        pick = self.uniform() * float(rate)
        if pick < adopt:
            source = self.pick([row[0] for row in self.shades], zero)
            target = self.pick(positive, sum(positive))
            self.shades[source][0] -= 1
            self.shades[target][-1] += 1
            return
        pick -= adopt
        acc = 0
        last = None  # the last positive decrement term
        for colour, row in enumerate(self.shades):
            if positive[colour] < 2:
                continue
            for shade in range(1, len(row)):
                acc += row[shade] * (positive[colour] - 1)
                if row[shade]:
                    last = colour, shade
                if pick < acc:
                    self.decrement(colour, shade)
                    return
        self.decrement(*last)

    def decrement(self, colour, shade):
        self.shades[colour][shade] -= 1
        self.shades[colour][shade - 1] += 1

    def pick(self, masses, total):
        pick = self.uniform() * float(total)
        acc = 0
        for index, mass in enumerate(masses):
            acc += mass
            if pick < acc:
                return index
        return max(index for index, mass in enumerate(masses) if mass)


def assert_same(engine: MultiShadeAggregate, reference: PerCallLoop):
    assert [engine.shade_counts(c) for c in range(engine.k)] == (
        reference.shades
    )
    assert engine.time == reference.time
    assert engine.snapshot()["pending"] == (
        -1 if reference.pending is None else reference.pending
    )
    assert ckpt.rng_state(engine.rng) == ckpt.rng_state(reference.rng)


def twins(kind, seed, weights, counts):
    engine = MultiShadeAggregate(
        WeightTable([float(w) for w in weights]), counts,
        rng=generator(kind, seed),
    )
    return engine, PerCallLoop(weights, counts, generator(kind, seed))


def replay(engine, reference, plan):
    """Run ``plan`` (``("run", steps)`` and ``("step", count)``) on both,
    comparing after every call."""
    for op, size in plan:
        if op == "run":
            engine.run(size)
            reference.run(size)
            assert_same(engine, reference)
        else:
            for _ in range(size):
                assert engine.step() == reference.step()
                assert_same(engine, reference)


@st.composite
def tables(draw):
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 11), min_size=k, max_size=k))
    counts = draw(
        st.lists(st.integers(0, 59), min_size=k, max_size=k)
        .filter(lambda counts: sum(counts) >= 2)
    )
    return weights, counts


plans = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(0, 2000)),
        st.tuples(st.just("step"), st.integers(1, 20)),
    ),
    min_size=1, max_size=6,
)


class TestPooledDrawsArePerCallDraws:
    @given(
        table=tables(),
        kind=st.sampled_from(BIT_GENERATORS),
        seed=st.integers(0, 2**32 - 1),
        plan=plans,
    )
    @settings(max_examples=80, deadline=None)
    def test_same_trajectory_and_generator_state(
        self, table, kind, seed, plan
    ):
        engine, reference = twins(kind, seed, *table)
        replay(engine, reference, plan)

    @pytest.mark.parametrize("kind", BIT_GENERATORS)
    def test_gaps_on_both_sides_of_one_third(self, kind):
        """Four balanced colours start with p near 1/4, below NumPy's
        search threshold, and move above it as agents lighten."""
        engine, reference = twins(kind, 11, [1, 3, 5, 7], [40, 40, 40, 40])
        replay(engine, reference, [
            ("run", 3000), ("step", 15), ("run", 1), ("run", 5000),
        ])
        assert reference.gaps["below"] > 0
        assert reference.gaps["search"] > 0

    @pytest.mark.parametrize("kind", BIT_GENERATORS)
    def test_blocks_run_out_mid_call(self, kind):
        """Every gap of this table searches, so one call serves all its
        uniforms from blocks, more than two of them."""
        engine, reference = twins(kind, 5, [2, 5], [50, 30])
        replay(engine, reference, [("run", 6000)])
        assert reference.gaps["below"] == 0
        assert reference.uniforms > 2 * _BLOCK

    @pytest.mark.parametrize("kind", BIT_GENERATORS)
    def test_interrupted_run_leaves_the_generator_synced(self, kind):
        """An exception raised at the 700th event, mid-block and after
        gaps below 1/3, leaves the generator where the per-call loop
        leaves it when interrupted at the same event."""
        engine, reference = twins(kind, 3, [1, 3, 5, 7], [40, 40, 40, 40])
        # Every event writes two shade items; the 1399th write is the
        # first of the 700th event, after its uniforms are drawn.
        engine._shades = tripwire(engine._shades, 1399)
        reference.shades = tripwire(reference.shades, 1399)
        for loop in (engine, reference):
            with pytest.raises(KeyboardInterrupt):
                loop.run(100_000)
        assert reference.gaps["below"] > 0
        assert ckpt.rng_state(engine.rng) == ckpt.rng_state(reference.rng)


def tripwire(shades, writes):
    """Copies of the shade rows whose ``writes``-th item assignment, in
    any of them, raises ``KeyboardInterrupt`` instead."""
    budget = [writes]

    class Row(list):
        def __setitem__(self, index, value):
            budget[0] -= 1
            if not budget[0]:
                raise KeyboardInterrupt
            super().__setitem__(index, value)

    return [Row(row) for row in shades]
