"""Span tracing of the ``repro`` layers, installed from outside the package.

The traced run wraps the public functions of each layer (engine classes,
RNG streams, interventions, fusion, the shard cache, the pipeline, table
building, rendering and export) by monkeypatching class attributes and
module-level names at run time; ``src/`` is never edited.  Every call
records one span (layer, parent span, start, end) into flat in-memory
arrays.  Spans are written out once, by :meth:`Tracer.save`, when the run
ends.

A layer's *self time* is the summed duration of its spans minus the part
of each span covered by its child spans.  A layer's *count* is the number
of times control entered it from another layer, so a public method that
calls another public method of the same engine counts once.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """Functions of one module (``owner=None``) or one of its classes.

    ``names=None`` selects every public function defined there; on a
    class that includes ``__init__``, so construction counts as engine
    work.
    """

    module: str
    owner: str | None = None
    names: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Layer:
    """One traced layer: its count metric, its self-time metric and the
    functions whose calls are its spans."""

    name: str
    count_metric: str
    time_metric: str
    targets: tuple[Target, ...]


#: The simulation engines: layer suffix, module and class.
ENGINES = (
    ("batched", "repro.engine.batched", "BatchedAggregateSimulation"),
    ("hetero", "repro.engine.hetero", "HeterogeneousAggregateBatch"),
    ("aggregate", "repro.engine.aggregate", "AggregateSimulation"),
    ("simulator", "repro.engine.simulator", "Simulation"),
    ("array", "repro.engine.array_engine", "ArraySimulation"),
    ("multishade", "repro.engine.multishade", "MultiShadeAggregate"),
)


#: Root span of one traced benchmark iteration; its self time is the
#: part of the iteration that no repro layer accounts for.
ROOT = "bench.iteration"

LAYERS: tuple[Layer, ...] = (
    Layer(
        "engine.streams.take", "engine.streams.take_calls",
        "engine.streams.take_s",
        (Target("repro.engine.streams", "RowStreams", ("take",)),),
    ),
    Layer(
        "engine.streams.geometric", "engine.streams.geometric_calls",
        "engine.streams.geometric_s",
        (Target("repro.engine.streams", None, ("geometric_from_uniform",)),),
    ),
    *(
        Layer(
            f"engine.{name}", f"engine.{name}.calls",
            f"engine.{name}.self_s", (Target(module, owner),),
        )
        for name, module, owner in ENGINES
    ),
    Layer(
        "adversary.apply", "adversary.interventions", "adversary.apply_s",
        (Target("repro.adversary.interventions", "Intervention", ("apply",)),),
    ),
    Layer(
        "fusion.fuse", "fusion.fuse_calls", "fusion.fuse_s",
        (Target("repro.experiments.fusion", None, ("fuse",)),),
    ),
    Layer(
        "fusion.executor", "fusion.executor.calls", "fusion.executor.self_s",
        (
            Target("repro.experiments.fusion", None, ("execute_fused",)),
            Target("repro.experiments.fusion", "FusedExecutor", ("run_plan",)),
        ),
    ),
    Layer(
        "cache.key", "cache.key_calls", "cache.key_s",
        (Target("repro.experiments.cache", None, ("shard_key",)),),
    ),
    Layer(
        "cache.get", "cache.gets", "cache.get_s",
        (Target("repro.experiments.cache", "ShardCache", ("get",)),),
    ),
    Layer(
        "cache.put", "cache.puts", "cache.put_s",
        (Target("repro.experiments.cache", "ShardCache", ("put",)),),
    ),
    Layer(
        "pipeline.plan", "pipeline.plans", "pipeline.plan_s",
        (Target("repro.experiments.pipeline", None, ("plan",)),),
    ),
    Layer(
        "pipeline.execute", "pipeline.executes", "pipeline.execute.self_s",
        (Target("repro.experiments.pipeline", None, ("execute",)),),
    ),
    Layer(
        "table.build", "table.builds", "table.build_s",
        (Target("repro.experiments.pipeline", "PlanResult", ("table",)),),
    ),
    Layer(
        "report.render", "report.renders", "report.render_s",
        (
            Target("repro.experiments.table", "ExperimentTable", ("render",)),
            Target("repro.experiments.report"),
        ),
    ),
    Layer(
        "export.save", "export.saves", "export.save_s",
        (
            Target(
                "repro.experiments.export", None,
                ("save_plan", "save_table", "plan_to_json", "table_to_json"),
            ),
        ),
    ),
)

#: Counters that observe call arguments and results rather than spans.
COUNTERS = (
    "engine.interactions",
    "fusion.groups",
    "cache.hits",
    "cache.bytes_read",
    "cache.bytes_written",
    "pipeline.shards",
    "export.bytes",
)


def engine_interactions(engine) -> int:
    """Pairwise interactions an engine instance has simulated so far:
    the sum of its per-row clocks (batched and hetero engines) or its
    clock times its fused replications (array engine)."""
    if hasattr(engine, "times"):
        return int(np.sum(engine.times()))
    return int(engine.time) * int(getattr(engine, "replications", 1))


def self_times(parent, start, end) -> np.ndarray:
    """Per-span self time: each span's duration minus the durations of
    its direct children (spans of one thread never overlap, so the sum
    of the children's durations is the part of the interval they
    cover)."""
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=np.float64) - np.asarray(
        start, dtype=np.float64
    )
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered


def layer_totals(layer, parent, start, end, layer_count: int):
    """``(entries, self_seconds)`` arrays indexed by layer id.

    A span is an *entry* into its layer when it has no parent or its
    parent belongs to another layer.
    """
    layer = np.asarray(layer, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = self_times(parent, start, end)
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
    entries = np.bincount(
        layer[parent_layer != layer], minlength=layer_count
    )
    seconds = np.bincount(layer, weights=own, minlength=layer_count)
    return entries, seconds


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    Layer ids index :data:`LAYERS`; the last id is :data:`ROOT`.
    """

    def __init__(self, layers: tuple[Layer, ...] = LAYERS):
        self.layers = layers
        self.names = [layer.name for layer in layers] + [ROOT]
        self.root_id = len(layers)
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        #: Seconds each traced process took to import ``repro.cli``.
        self.imports: list[float] = []
        self._engines: list = []
        self._sized: list[tuple[str, str]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _wrap(self, fn, layer_id: int, observe=None):
        layers, parents = self.layer.append, self.parent.append
        starts, ends = self.start, self.end
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            layers(layer_id)
            parents(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            push(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def span(self, fn):
        """Run ``fn()`` inside one :data:`ROOT` span."""
        return self._wrap(fn, self.root_id)()

    # -- counters ------------------------------------------------------

    def _observer(self, layer: Layer, name: str):
        counters = self.counters
        if layer.name.startswith("engine.") and name == "__init__":
            return lambda args, result: self._engines.append(args[0])
        if layer.name == "fusion.fuse":
            def observe(args, result):
                counters["fusion.groups"] += len(result.jobs)
            return observe
        if layer.name == "cache.get":
            def observe(args, result):
                if result is not None:
                    counters["cache.hits"] += 1
                    self._sized.append(
                        ("cache.bytes_read", args[0].path_for(args[1]))
                    )
            return observe
        if layer.name == "cache.put":
            return lambda args, result: self._sized.append(
                ("cache.bytes_written", result)
            )
        if layer.name == "pipeline.plan":
            def observe(args, result):
                counters["pipeline.shards"] += len(result.shards)
            return observe
        if layer.name == "export.save" and name in ("save_plan", "save_table"):
            def observe(args, result):
                paths = result if isinstance(result, list) else [result]
                self._sized += [("export.bytes", path) for path in paths]
            return observe
        return None

    def settle(self) -> None:
        """Fold the deferred counters (file sizes, engine clocks) in.

        Call it with the wrappers uninstalled and before the run's files
        are removed, so the reads neither record spans nor fail.
        """
        for counter, path in self._sized:
            self.counters[counter] += os.stat(path).st_size
        self._sized.clear()
        self.counters["engine.interactions"] += sum(
            engine_interactions(engine) for engine in self._engines
        )
        self._engines.clear()

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target.  A module-level function is replaced under
        every name a loaded ``repro`` module binds it to, aliases such as
        ``from .pipeline import plan as expand_plan`` included."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer_id, layer in enumerate(self.layers):
            for target in layer.targets:
                module = importlib.import_module(target.module)
                owner = (
                    module if target.owner is None
                    else getattr(module, target.owner)
                )
                for name, fn in _functions(owner, target):
                    wrapped = self._wrap(
                        fn, layer_id, self._observer(layer, name)
                    )
                    if target.owner is not None:
                        self._patch(owner, name, wrapped)
                        continue
                    for other in _repro_modules():
                        for alias, value in list(other.__dict__.items()):
                            if value is fn:
                                self._patch(other, alias, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results -------------------------------------------------------

    @property
    def spans(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, tuple[int, float]]:
        """``{layer name: (entries, self seconds)}``, :data:`ROOT`
        included."""
        entries, seconds = layer_totals(
            self.layer, self.parent, self.start, self.end, len(self.names)
        )
        return {
            name: (int(entries[i]), float(seconds[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every recorded span (columns of layer id, parent span,
        start and end in seconds), the layer names, the counters and the
        import times as ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            extras=np.array(json.dumps(
                {"counters": self.counters, "imports": self.imports}
            )),
        )

    def absorb(self, path) -> None:
        """Append the spans and counters another process saved."""
        with np.load(path) as saved:
            if list(saved["names"]) != self.names:
                raise ValueError(f"{path}: recorded with other layers")
            offset = len(self.start)
            parent = saved["parent"].astype(np.int64)
            self.parent.extend(
                np.where(parent >= 0, parent + offset, -1).tolist()
            )
            self.layer.extend(saved["layer"].tolist())
            self.start.extend(saved["start"].tolist())
            self.end.extend(saved["end"].tolist())
            extras = json.loads(str(saved["extras"]))
        for name, value in extras["counters"].items():
            self.counters[name] += value
        self.imports += extras["imports"]


def _functions(owner, target: Target):
    """``(name, function)`` pairs a target selects, defined on ``owner``
    itself (not imported into it or inherited)."""
    if target.names is not None:
        return [(name, owner.__dict__[name]) for name in target.names]
    module_name = target.module
    selected = []
    for name, value in sorted(owner.__dict__.items()):
        if not isinstance(value, types.FunctionType):
            continue
        if name.startswith("_") and not (
            target.owner is not None and name == "__init__"
        ):
            continue
        if target.owner is None and value.__module__ != module_name:
            continue
        selected.append((name, value))
    return selected


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
