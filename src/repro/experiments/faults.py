"""Fault tolerance for the declarative pipeline: injection, retries,
timeouts and worker supervision.

The execution layer used to assume a perfect world: a worker crash
killed the whole sweep, a hung shard blocked ``Pool.imap`` forever and
a torn cache entry poisoned every later warm run.  This module is the
seam that makes every execution path survive partial failure:

* :class:`RetryPolicy` — per-shard retry/backoff/timeout semantics.
  Retried shards re-run from the same ``(params, seed)`` task, so a
  sweep that recovered from transient faults merges a table
  *byte-identical* to a fault-free run (property-tested on the serial,
  pool and fused paths).
* :func:`run_serial_shards` / :func:`run_pool_shards` — the shard
  execution loops.  The pool loop dispatches tasks to dedicated worker
  processes asynchronously (replacing ``Pool.imap``), detects dead
  workers and requeues their in-flight shards, and enforces a per-shard
  deadline by killing and replacing the worker of a hung shard.
* :class:`FaultPlan` — a deterministic fault-injection harness for
  drills and tests.  Faults are selected with a generator seeded from
  the plan's own :class:`~numpy.random.SeedSequence` machinery, so an
  injected-fault run is exactly reproducible from the spec's
  ``base_seed`` and the spec text (``repro run --inject-faults``).

Fault-spec grammar (``--inject-faults``)::

    SPEC    := entry[,entry ...]
    entry   := KIND ':' TARGET [':' OPT ...]
    KIND    := raise | hang | crash | corrupt | fuse-raise | tear-cache
    TARGET  := 'i' IDX['|'IDX ...]     explicit shard indices, e.g. i0|3
             | 'p' FLOAT               each shard independently with
                                       probability FLOAT (seeded)
    OPT     := 'attempts=' N           fire on attempts <= N (default 1,
                                       i.e. transient; large N = permanent)
             | 'seconds=' S            hang duration (default 3600)

``raise`` makes the shard raise :class:`InjectedFault`; ``hang`` sleeps
``seconds`` before computing (to be killed at the deadline); ``crash``
calls ``os._exit`` in the worker process; ``corrupt`` replaces the
measurement's return value with a non-mapping payload (caught by the
runner's value validation and retried); ``fuse-raise`` fails only the
*fused mega-batch group* containing the shard (exercising graceful
degradation on the library's fused path, ``execute(..., fused=True)``;
``repro run`` rejects it, since no registry experiment fuses);
``tear-cache`` tears the shard's cache entry mid-write (exercising
quarantine: the rerun recomputes only that shard; ``repro run`` takes
it only with ``--cache``).
Process-level faults (``hang``, ``crash``) are simulated as raises when
the shard runs in-process (serial path): the orchestrator itself is
never killed or blocked.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import math
import os
import queue
import time
import traceback
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "NO_RETRY",
    "RetryPolicy",
    "ShardOutcome",
    "WorkerFailure",
    "run_attempt",
    "run_pool_shards",
    "run_serial_shards",
]

#: Fault kinds applied inside the shard attempt (travel to workers).
WORKER_FAULT_KINDS = ("raise", "hang", "crash", "corrupt")
#: Fault kinds applied by the orchestrator (never shipped to workers).
FAULT_KINDS = WORKER_FAULT_KINDS + ("fuse-raise", "tear-cache")

#: Entropy tag mixed into the fault-selection seed so the fault stream
#: never collides with the plan's own shard streams (which are plain
#: ``spawn_sequences(base_seed, ...)`` children).
_FAULT_STREAM_TAG = 0xFA017

#: Exit code of a worker killed by an injected ``crash`` fault.
CRASH_EXIT_CODE = 70

#: Supervisor poll interval (seconds) of the async-dispatch pool loop.
_TICK = 0.02


class InjectedFault(RuntimeError):
    """Raised by an injected ``raise``/``fuse-raise`` fault (and by the
    in-process simulation of process-level faults)."""


class WorkerFailure(RuntimeError):
    """Carrier of a worker-side failure, attached as the ``__cause__``
    of the :class:`~repro.experiments.pipeline.ShardError` so the
    original traceback survives the process boundary."""


@dataclass(frozen=True)
class RetryPolicy:
    """Per-shard retry semantics applied by every execution path.

    Attributes:
        max_attempts: Total tries per shard (1 = no retries).  A
            retried shard re-runs from the same ``(params, seed)``
            task, so its value is bit-identical to a first-try success.
        timeout_s: Per-attempt deadline in seconds.  Enforced
            preemptively on the process-pool path (the hung worker is
            killed and the shard requeued); the serial path cannot
            preempt an in-process measurement and treats it as
            advisory.
        backoff_s: Delay before the second attempt; subsequent delays
            multiply by ``backoff_factor``.
        backoff_factor: Exponential backoff multiplier.
    """

    max_attempts: int = 1
    timeout_s: float | None = None
    backoff_s: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self):
        # Chained comparisons reject NaN too: a NaN delay or deadline
        # never compares ready, so the pool would wait on it forever.
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and not 0 < self.timeout_s < math.inf:
            raise ValueError("timeout_s must be positive and finite")
        if not 0 <= self.backoff_s < math.inf:
            raise ValueError("backoff_s must be non-negative and finite")
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ValueError("backoff_factor must be >= 1 and finite")

    def delay(self, failed_attempts: int) -> float:
        """Backoff before the next try after ``failed_attempts``."""
        if failed_attempts < 1 or self.backoff_s == 0.0:
            return 0.0
        return self.backoff_s * self.backoff_factor ** (failed_attempts - 1)

    def to_payload(self) -> dict:
        """JSON form recorded in ``PlanResult.fault_report``."""
        return {
            "max_attempts": self.max_attempts,
            "timeout_s": self.timeout_s,
            "backoff_s": self.backoff_s,
            "backoff_factor": self.backoff_factor,
        }


#: The default policy: one attempt, no deadline — the legacy contract.
NO_RETRY = RetryPolicy()


@dataclass
class ShardOutcome:
    """Outcome of one shard across all of its attempts.

    ``error`` is None on success; on failure it holds the *last*
    attempt's formatted traceback (every attempt's error is kept in
    ``attempt_errors``).  ``seconds`` is the successful attempt's
    wall-clock (or the last failed attempt's).
    """

    value: dict | None
    error: str | None
    seconds: float
    attempts: int = 1
    attempt_errors: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.error is None


# ----------------------------------------------------------------------
# Fault injection


@dataclass(frozen=True)
class Fault:
    """One injected fault on one shard.

    ``attempts`` bounds the attempts the fault fires on (``attempt <=
    attempts``): 1 models a transient fault that a retry recovers from,
    a large value a permanent one.  ``seconds`` is the ``hang``
    duration.
    """

    kind: str
    attempts: int = 1
    seconds: float = 3600.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {FAULT_KINDS}"
            )
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0 < self.seconds < math.inf:
            raise ValueError("seconds must be positive and finite")

    def active(self, attempt: int) -> bool:
        return attempt <= self.attempts


def fault_selection_rng(base_seed) -> np.random.Generator:
    """The deterministic fault-selection stream of a plan.

    Derived through the same :class:`~numpy.random.SeedSequence`
    machinery as the plan's shard seeds, but tagged with a fault
    namespace so it never collides with (or perturbs) any shard's own
    stream — an injected-fault run stays reproducible from
    ``base_seed`` alone.
    """
    if base_seed is None:
        entropy = [_FAULT_STREAM_TAG]
    else:
        entropy = [int(base_seed), _FAULT_STREAM_TAG]
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


class FaultPlan:
    """Deterministic mapping of shard index -> injected faults.

    Built from a compact spec string (see the module docstring for the
    grammar) against a concrete plan size; probabilistic targets are
    resolved once, with :func:`fault_selection_rng`, so the same
    ``(spec text, shard count, base_seed)`` always injects the same
    faults.
    """

    def __init__(
        self,
        faults: Mapping[int, Sequence[Fault]],
        *,
        spec_text: str | None = None,
        kinds: Iterable[str] = (),
    ):
        self.by_shard: dict[int, tuple[Fault, ...]] = {
            int(index): tuple(entry)
            for index, entry in faults.items()
            if entry
        }
        self.spec_text = spec_text
        #: Every fault kind the plan names: its faults' kinds plus
        #: ``kinds`` (a spec entry's kind even when its target selected
        #: no shard).
        self.kinds = frozenset(kinds).union(
            fault.kind for entry in self.by_shard.values() for fault in entry
        )
        #: One-shot tear faults already fired, keyed by (index, kind).
        self._fired: set[tuple[int, str]] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec_text or self.by_shard!r})"

    @classmethod
    def from_spec(
        cls, text: str, *, shards: int, base_seed=None
    ) -> "FaultPlan":
        """Parse a ``--inject-faults`` spec against a plan of
        ``shards`` shards."""
        if shards < 0:
            raise ValueError("shards must be non-negative")
        rng = fault_selection_rng(base_seed)
        by_shard: dict[int, list[Fault]] = {}
        kinds: set[str] = set()
        for raw in text.split(","):
            entry = raw.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) < 2:
                raise ValueError(
                    f"invalid fault entry {entry!r}: expected "
                    "KIND:TARGET[:OPT...]"
                )
            kind = parts[0].strip().lower()
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"invalid fault entry {entry!r}: unknown kind "
                    f"{kind!r} (choose from {', '.join(FAULT_KINDS)})"
                )
            indices = cls._parse_target(entry, parts[1].strip(), shards, rng)
            options = cls._parse_options(entry, parts[2:])
            fault = Fault(kind=kind, **options)
            kinds.add(kind)
            for index in indices:
                by_shard.setdefault(index, []).append(fault)
        return cls(by_shard, spec_text=text, kinds=kinds)

    @staticmethod
    def _parse_target(entry, target, shards, rng) -> list[int]:
        # The probability draw happens for every 'p' entry in spec
        # order, so each entry consumes a fixed slice of the fault
        # stream regardless of which shards earlier entries selected.
        if target.startswith("i"):
            try:
                indices = sorted(
                    {int(part) for part in target[1:].split("|")}
                )
            except ValueError as error:
                raise ValueError(
                    f"invalid fault entry {entry!r}: bad index list "
                    f"{target!r}"
                ) from error
            out_of_range = [i for i in indices if not 0 <= i < shards]
            if out_of_range:
                raise ValueError(
                    f"invalid fault entry {entry!r}: shard indices "
                    f"{out_of_range} outside the plan's 0..{shards - 1}"
                )
            return indices
        if target.startswith("p"):
            try:
                probability = float(target[1:])
            except ValueError as error:
                raise ValueError(
                    f"invalid fault entry {entry!r}: bad probability "
                    f"{target!r}"
                ) from error
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"invalid fault entry {entry!r}: probability must "
                    "be in [0, 1]"
                )
            draws = rng.random(shards)
            return [int(i) for i in np.flatnonzero(draws < probability)]
        raise ValueError(
            f"invalid fault entry {entry!r}: target {target!r} must be "
            "iIDX[|IDX...] or pFLOAT"
        )

    @staticmethod
    def _parse_options(entry, parts) -> dict:
        options: dict = {}
        for part in parts:
            part = part.strip()
            name, _, value = part.partition("=")
            try:
                if name == "attempts":
                    options["attempts"] = int(value)
                elif name == "seconds":
                    options["seconds"] = float(value)
                else:
                    raise ValueError(f"unknown option {name!r}")
            except ValueError as error:
                raise ValueError(
                    f"invalid fault entry {entry!r}: {error}"
                ) from error
        return options

    def for_shard(self, index: int) -> tuple[Fault, ...]:
        """All faults injected on shard ``index``."""
        return self.by_shard.get(int(index), ())

    def worker_faults(self, index: int) -> tuple[Fault, ...]:
        """The shard's in-attempt faults (the ones shipped to workers)."""
        return tuple(
            fault
            for fault in self.for_shard(index)
            if fault.kind in WORKER_FAULT_KINDS
        )

    def group_fault(
        self, indices: Sequence[int], attempt: int
    ) -> str | None:
        """Description of the first fault that fails a fused mega-batch
        group containing ``indices`` on fused ``attempt``, or None.

        Both ``fuse-raise`` faults and ordinary worker faults poison
        the group: a mega-batch row cannot crash alone, so any injected
        member failure takes the whole engine call down — exactly the
        blast radius graceful degradation exists to contain.
        """
        for index in indices:
            for fault in self.for_shard(index):
                if fault.kind == "tear-cache":
                    continue
                if fault.active(attempt):
                    return (
                        f"injected {fault.kind!r} fault on member shard "
                        f"{index} (fused attempt {attempt})"
                    )
        return None

    def cache_put(
        self, store, index: int, key: str, value, seconds: float, *,
        experiment: str | None = None,
    ):
        """``store.put`` with tear-cache injection: the first store of
        a selected shard writes a torn (truncated, non-atomic) entry
        instead, modelling a crash mid-write."""
        for fault in self.for_shard(index):
            if fault.kind != "tear-cache":
                continue
            if (index, fault.kind) in self._fired:
                continue
            self._fired.add((index, fault.kind))
            path = store.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            document = json.dumps(
                {"format": "repro-shard-cache/v1", "key": key,
                 "value": value}
            )
            path.write_text(document[: max(1, len(document) // 2)])
            return path
        return store.put(key, value, seconds, experiment=experiment)


# ----------------------------------------------------------------------
# The shard attempt (shared by the serial loop and the pool workers)


class _Corrupted:
    """Sentinel returned by an injected ``corrupt`` fault: a non-mapping
    measurement value, caught by :func:`run_attempt`'s validation."""

    def __repr__(self) -> str:
        return "<injected corrupted value>"


def _apply_worker_faults(
    faults: Sequence[Fault], attempt: int, *, in_process: bool
) -> bool:
    """Fire the attempt's active faults; returns whether the value
    should be corrupted after the measurement runs."""
    corrupt = False
    for fault in faults:
        if not fault.active(attempt):
            continue
        if fault.kind == "raise":
            raise InjectedFault(
                f"injected transient fault (attempt {attempt})"
            )
        if fault.kind == "crash":
            if in_process:
                # Never _exit the orchestrator itself: process-level
                # faults need a worker process to kill.
                raise InjectedFault(
                    f"injected crash fault simulated as a raise "
                    f"(attempt {attempt}; in-process execution has no "
                    "worker to kill)"
                )
            os._exit(CRASH_EXIT_CODE)
        if fault.kind == "hang":
            if in_process:
                raise InjectedFault(
                    f"injected hang fault simulated as a raise "
                    f"(attempt {attempt}; in-process execution cannot "
                    "be preempted)"
                )
            time.sleep(fault.seconds)
        if fault.kind == "corrupt":
            corrupt = True
    return corrupt


def run_attempt(
    measure,
    params,
    seed,
    faults: Sequence[Fault] = (),
    attempt: int = 1,
    *,
    in_process: bool = True,
) -> tuple[dict | None, str | None, float]:
    """Run one attempt of one shard; never raises.

    Returns ``(value, error, seconds)`` where ``error`` is the
    formatted traceback on failure.  The measurement's return value
    must be a mapping — anything else (including an injected
    corruption) is a retryable failure, so a corrupted value can never
    silently reach a merged table.
    """
    start = time.perf_counter()
    try:
        corrupt = _apply_worker_faults(
            faults, attempt, in_process=in_process
        )
        value = measure(dict(params), np.random.default_rng(seed))
        if corrupt:
            value = _Corrupted()
        if not isinstance(value, Mapping):
            raise TypeError(
                f"measurement returned a non-mapping value "
                f"({type(value).__name__}: {value!r}); measurement "
                "values must be JSON-able dicts — possible corruption"
            )
        return dict(value), None, time.perf_counter() - start
    except Exception:
        return None, traceback.format_exc(), time.perf_counter() - start


def _normalise_task(task) -> tuple:
    """Accept ``(params, seed)`` or ``(params, seed, faults)``."""
    if len(task) == 2:
        params, seed = task
        return params, seed, ()
    params, seed, faults = task
    return params, seed, tuple(faults or ())


# ----------------------------------------------------------------------
# Serial execution loop


def run_serial_shards(
    measure,
    tasks: Sequence,
    policy: RetryPolicy = NO_RETRY,
    *,
    stop_on_failure: bool = True,
    on_success: Callable[[int, ShardOutcome], None] | None = None,
) -> list[ShardOutcome | None]:
    """Run shards in the calling process with per-shard retries.

    Returns one :class:`ShardOutcome` per task, aligned by position;
    with ``stop_on_failure`` the entries after the first permanently
    failed shard stay None (those shards never ran — the legacy
    fail-fast contract).  ``on_success(slot, outcome)`` is called once
    per task that succeeds, after its last attempt, so the caller can
    persist it before the next task starts.
    """
    outcomes: list[ShardOutcome | None] = [None] * len(tasks)
    for slot, task in enumerate(tasks):
        params, seed, faults = _normalise_task(task)
        errors: list[str] = []
        value = error = None
        seconds = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                delay = policy.delay(attempt - 1)
                if delay > 0:
                    time.sleep(delay)
            value, error, seconds = run_attempt(
                measure, params, seed, faults, attempt, in_process=True
            )
            if error is None:
                break
            errors.append(error)
        outcomes[slot] = ShardOutcome(
            value=value,
            error=error,
            seconds=seconds,
            attempts=attempt,
            attempt_errors=tuple(errors),
        )
        if error is None:
            if on_success is not None:
                on_success(slot, outcomes[slot])
        elif stop_on_failure:
            break
    return outcomes


# ----------------------------------------------------------------------
# Async-dispatch process pool with worker supervision


def _worker_main(measure, task_queue, result_queue) -> None:
    """Worker body: run dispatched attempts until the None sentinel."""
    while True:
        message = task_queue.get()
        if message is None:
            return
        slot, attempt, params, seed, faults = message
        value, error, seconds = run_attempt(
            measure, params, seed, faults, attempt, in_process=False
        )
        result_queue.put((slot, attempt, value, error, seconds))


@dataclass
class _PoolWorker:
    """One supervised worker process with its dedicated task queue."""

    process: multiprocessing.Process
    task_queue: object
    #: (slot, attempt, deadline or None, started) of the in-flight
    #: attempt; None when idle.
    current: tuple | None = None
    retired: bool = False

    def submit(self, slot, attempt, task, deadline) -> None:
        params, seed, faults = task
        self.current = (slot, attempt, deadline, time.monotonic())
        self.task_queue.put((slot, attempt, params, seed, faults))

    def kill(self) -> None:
        self.retired = True
        self.current = None
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=2.0)


def _spawn_worker(ctx, measure, result_queue) -> _PoolWorker:
    task_queue = ctx.Queue()
    process = ctx.Process(
        target=_worker_main,
        args=(measure, task_queue, result_queue),
        daemon=True,
    )
    process.start()
    return _PoolWorker(process=process, task_queue=task_queue)


def run_pool_shards(
    measure,
    tasks: Sequence,
    jobs: int,
    policy: RetryPolicy = NO_RETRY,
    *,
    stop_on_failure: bool = True,
    on_success: Callable[[int, ShardOutcome], None] | None = None,
) -> list[ShardOutcome | None]:
    """Run shards across ``jobs`` supervised worker processes.

    An async-dispatch loop (replacing the former ``Pool.imap``) assigns
    one task at a time to each worker and watches the fleet:

    * a worker that **dies** mid-shard (segfault, OOM kill, injected
      crash) is detected by liveness polling, its in-flight shard is
      requeued as a failed attempt and a replacement worker is spawned
      — the sweep no longer hangs forever on a lost result;
    * a shard that exceeds ``policy.timeout_s`` has its worker
      **killed** at the deadline and is requeued the same way;
    * failed attempts retry up to ``policy.max_attempts`` with
      exponential backoff, from the same ``(params, seed)`` task, so
      recovered sweeps stay bit-identical to clean ones.

    Returns outcomes aligned by task position (None = never completed,
    only possible with ``stop_on_failure`` after an earlier permanent
    failure, which also abandons in-flight work like the old pool did).
    ``on_success(slot, outcome)`` runs here in the orchestrator, once
    per task as its successful result arrives; the workers only ever
    receive ``(params, seed[, faults])``.
    """
    count = len(tasks)
    if count == 0:
        return []
    normalised = [_normalise_task(task) for task in tasks]
    ctx = multiprocessing.get_context()
    result_queue = ctx.Queue()
    outcomes: list[ShardOutcome | None] = [None] * count
    errors: list[list[str]] = [[] for _ in range(count)]
    #: Min-heap of (ready_time, slot, attempt) awaiting dispatch.
    ready: list[tuple[float, int, int]] = [
        (0.0, slot, 1) for slot in range(count)
    ]
    heapq.heapify(ready)
    in_flight: set[tuple[int, int]] = set()
    workers: list[_PoolWorker] = []
    pending = count
    stop = False

    def attempt_failed(slot, attempt, error, seconds) -> None:
        nonlocal pending, stop
        in_flight.discard((slot, attempt))
        errors[slot].append(error)
        if attempt < policy.max_attempts:
            ready_time = time.monotonic() + policy.delay(attempt)
            heapq.heappush(ready, (ready_time, slot, attempt + 1))
            return
        outcomes[slot] = ShardOutcome(
            value=None,
            error=error,
            seconds=seconds,
            attempts=attempt,
            attempt_errors=tuple(errors[slot]),
        )
        pending -= 1
        if stop_on_failure:
            stop = True

    def handle_result(message) -> None:
        nonlocal pending
        slot, attempt, value, error, seconds = message
        if (slot, attempt) not in in_flight:
            return  # stale: the attempt was already failed (timeout)
        for worker in workers:
            if worker.current and worker.current[:2] == (slot, attempt):
                worker.current = None
                break
        if error is None:
            in_flight.discard((slot, attempt))
            outcomes[slot] = ShardOutcome(
                value=value,
                error=None,
                seconds=seconds,
                attempts=attempt,
                attempt_errors=tuple(errors[slot]),
            )
            pending -= 1
            if on_success is not None:
                on_success(slot, outcomes[slot])
        else:
            attempt_failed(slot, attempt, error, seconds)

    def drain(block: bool) -> None:
        try:
            handle_result(result_queue.get(timeout=_TICK if block else 0))
        except queue.Empty:
            return
        while True:
            try:
                handle_result(result_queue.get_nowait())
            except queue.Empty:
                return

    try:
        while pending > 0 and not stop:
            now = time.monotonic()
            # Dispatch ready attempts to idle (or freshly spawned)
            # workers.
            while ready and ready[0][0] <= now:
                worker = next(
                    (
                        w
                        for w in workers
                        if not w.retired
                        and w.current is None
                        and w.process.is_alive()
                    ),
                    None,
                )
                if worker is None:
                    live = sum(1 for w in workers if not w.retired)
                    if live < min(jobs, pending):
                        worker = _spawn_worker(ctx, measure, result_queue)
                        workers.append(worker)
                    else:
                        break
                _, slot, attempt = heapq.heappop(ready)
                deadline = (
                    now + policy.timeout_s
                    if policy.timeout_s is not None
                    else None
                )
                in_flight.add((slot, attempt))
                worker.submit(slot, attempt, normalised[slot], deadline)
            drain(block=True)
            # Liveness + deadline sweep over the busy workers.
            now = time.monotonic()
            for worker in workers:
                if worker.retired:
                    continue
                if worker.current is None:
                    # A worker that died while idle (external kill)
                    # must be retired, or it would count against the
                    # fleet size and starve the dispatch loop.
                    if not worker.process.is_alive():
                        worker.retired = True
                    continue
                slot, attempt, deadline, started = worker.current
                if not worker.process.is_alive():
                    # The result may have raced with the exit: drain
                    # once more before declaring the shard lost.
                    drain(block=False)
                    if worker.current is None:
                        worker.retired = True
                        continue
                    worker.retired = True
                    worker.current = None
                    attempt_failed(
                        slot,
                        attempt,
                        f"worker process died (exit code "
                        f"{worker.process.exitcode}) while running the "
                        f"shard (attempt {attempt}); the shard was "
                        "requeued",
                        now - started,
                    )
                elif deadline is not None and now >= deadline:
                    worker.kill()
                    attempt_failed(
                        slot,
                        attempt,
                        f"shard attempt {attempt} exceeded the "
                        f"{policy.timeout_s:g}s deadline; its worker "
                        "was killed and the shard requeued",
                        now - started,
                    )
    finally:
        for worker in workers:
            if worker.retired:
                continue
            if worker.current is None and worker.process.is_alive():
                # Idle worker: let it exit cleanly via the sentinel.
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + 1.0
        for worker in workers:
            if worker.retired:
                continue
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        result_queue.cancel_join_thread()
    return outcomes
