"""Content-addressed shard result cache for the declarative pipeline.

The cache is the pipeline's one shard store.  A warm rerun replays
every shard it holds, an overlapping sweep computes only its new cells,
and an interrupted or failed run resumes by running it again with the
same cache: each shard is stored as soon as it succeeds, so the rerun
computes only the shards that never finished.  A :class:`ShardCache`
is an on-disk store addressed by :func:`shard_key`, a stable SHA-256 of

* the **measurement identity** — ``module:qualname`` of the
  measurement callable plus a hash of its defining module's source;
* the **code version** — a fingerprint over every ``*.py`` file of the
  installed ``repro`` package (:func:`package_fingerprint`), so any
  library change invalidates rather than silently replaying (a dtype
  edited in an engine is such a change);
* the shard's **parameters** (key-order independent: the JSON document
  is dumped with sorted keys) and its **resolved seed**
  (``SeedSequence`` entropy + spawn key);
* the **execution mode** — ``"shard"`` for the bit-identical per-shard
  paths (serial and process pool share one key space: they compute
  identical values) and ``"fused:<family>"`` for mega-batch values,
  which are only distribution-equivalent to the per-shard path and
  therefore live in their own key space.

Cached values round-trip through JSON exactly, so a warm or resumed
run's tables are byte-identical to a cold run's — asserted end to end
by the E19 row of ``benchmarks/ratios.py``, the warm-vs-cold CI job and
the interrupted-run drill.

Seed scopes and overlap.  Whether an *overlapping* sweep hits depends
on the spec's seed scope: ``"cell"`` and ``"direct"`` scopes derive
each shard's seed from its cell parameters, so shared cells keep their
keys when the grid grows; ``"stream"`` scope ties seeds to the shard
index, so only an unchanged plan prefix can hit.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import pathlib
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .export import _plain_tree
from .pipeline import ScenarioSpec, Shard

__all__ = [
    "CACHE_FORMAT",
    "CacheStats",
    "ShardCache",
    "lookup_shards",
    "measurement_fingerprint",
    "package_fingerprint",
    "resolve_cache",
    "shard_key",
    "verify_cache",
]

CACHE_FORMAT = "repro-shard-cache/v1"

#: Default cache directory of the CLI's ``--cache`` flag.
DEFAULT_CACHE_DIR = ".repro-cache"


# ----------------------------------------------------------------------
# Fingerprints: the invalidation components of a shard key


@functools.lru_cache(maxsize=None)
def package_fingerprint() -> str:
    """SHA-256 over every ``*.py`` source file of the ``repro`` package.

    The cache's code-version component: editing *any* library module —
    an engine kernel, a table builder, a seeding helper — changes this
    fingerprint and therefore every shard key, so stale values are
    recomputed, never replayed.  Hashed once per process.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _module_source_hash(module_name: str) -> str | None:
    """SHA-256 of a module's source text, or None when unavailable
    (interactive definitions, frozen modules)."""
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except Exception:
            return None
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):
        return None
    return hashlib.sha256(source.encode()).hexdigest()


def measurement_fingerprint(measure) -> dict:
    """Identity of a measurement callable: its ``module:qualname``
    reference plus a hash of its defining module's source, so editing
    the measurement (or a helper beside it) invalidates its entries
    even when the measurement lives outside the ``repro`` package."""
    return {
        "ref": f"{measure.__module__}:{measure.__qualname__}",
        "source": _module_source_hash(measure.__module__),
    }


def _seed_payload(seed: np.random.SeedSequence) -> dict:
    """JSON form of a resolved shard seed (same fields the plan
    artifacts record, plus the pool size for completeness)."""
    return {
        "entropy": _plain_tree(seed.entropy),
        "spawn_key": [int(key) for key in seed.spawn_key],
        "pool_size": int(seed.pool_size),
    }


def shard_key(
    spec: ScenarioSpec,
    shard: Shard,
    *,
    mode: str = "shard",
    code_version: str | None = None,
) -> str:
    """Content address of one shard's measurement value.

    The key is a SHA-256 over a sorted-keys JSON document, so it is
    independent of dict insertion order and of Python hash
    randomisation (``PYTHONHASHSEED``), and it changes whenever the
    measurement source, the library code version, the shard
    parameters, the resolved seed or the execution mode change.
    ``code_version`` overrides the package fingerprint (tests use this
    to model a library edit).
    """
    doc = {
        "format": CACHE_FORMAT,
        "mode": mode,
        "measurement": measurement_fingerprint(spec.measure),
        "code": (
            code_version if code_version is not None
            else package_fingerprint()
        ),
        "params": _plain_tree(dict(shard.params)),
        "seed": _seed_payload(shard.seed),
    }
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# The on-disk store


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`ShardCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0


def _entry_problem(doc, key: str | None) -> str | None:
    """Why a parsed cache document is unusable, or None if it is fine.
    ``key`` is the expected content address (None during a directory
    scan, where the filename supplies it)."""
    if not isinstance(doc, dict):
        return f"not a JSON object ({type(doc).__name__})"
    if doc.get("format") != CACHE_FORMAT:
        return f"foreign format {doc.get('format')!r}"
    if key is not None and doc.get("key") != key:
        return f"key mismatch (stored {doc.get('key')!r})"
    if not isinstance(doc.get("value"), dict):
        return "missing or non-object 'value'"
    seconds = doc.get("seconds")
    if type(seconds) not in (int, float) or not 0 <= seconds < math.inf:
        return f"'seconds' is not a finite number >= 0 ({seconds!r})"
    return None


class ShardCache:
    """Content-addressed on-disk store of shard measurement values.

    Entries live at ``<directory>/<key[:2]>/<key>.json`` (two-level
    fan-out keeps directory listings manageable for big sweeps); each
    file is a self-describing ``repro-shard-cache/v1`` document holding
    the measurement value and the compute wall-clock.  Writes are
    atomic (temp file + rename), so this library's own runs can only
    ever observe complete entries — but a crash between an external
    writer's truncate and write, filesystem damage, or the fault
    harness's ``tear-cache`` injection can still leave a torn file
    behind.  :meth:`get` treats any such entry (unparseable JSON,
    foreign format, key mismatch, missing value, missing or malformed
    ``seconds``) as a miss and moves the bad file to
    ``<directory>/quarantine/`` with a warning, so one torn write can
    never poison every warm or resumed run that hits it; the next store
    rewrites the entry in place.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = pathlib.Path(directory)
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardCache({str(self.directory)!r})"

    def path_for(self, key: str) -> pathlib.Path:
        """On-disk location of a key's entry."""
        return self.directory / key[:2] / f"{key}.json"

    def quarantine(self, path: pathlib.Path, reason: str) -> pathlib.Path:
        """Move a bad entry to ``<directory>/quarantine/`` (collision-
        safe) and warn, so corruption is preserved for diagnosis
        instead of crashing or silently replaying."""
        qdir = self.directory / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        serial = 0
        while target.exists():
            serial += 1
            target = qdir / f"{path.name}.{serial}"
        os.replace(path, target)
        self.stats.quarantined += 1
        warnings.warn(
            f"quarantined corrupt cache entry {path.name} -> "
            f"{target.relative_to(self.directory)} ({reason}); "
            "treating as a miss",
            RuntimeWarning,
            stacklevel=3,
        )
        return target

    def get(self, key: str) -> dict | None:
        """The stored ``{"value", "seconds"}`` of ``key``, or None.

        A present-but-corrupt entry counts as a miss and is quarantined
        (see the class docstring); a missing file is a plain miss.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            self.quarantine(path, f"invalid JSON: {err}")
            self.stats.misses += 1
            return None
        problem = _entry_problem(doc, key)
        if problem is not None:
            self.quarantine(path, problem)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return {"value": doc["value"], "seconds": float(doc["seconds"])}

    def put(
        self, key: str, value: dict, seconds: float, *,
        experiment: str | None = None,
    ) -> pathlib.Path:
        """Store a freshly computed value under ``key`` (atomic)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "format": CACHE_FORMAT,
            "key": key,
            "experiment": experiment,
            "seconds": float(seconds),
            "value": _plain_tree(value),
        }
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(doc) + "\n")
        os.replace(tmp, path)
        self.stats.stores += 1
        return path


def resolve_cache(
    cache: "ShardCache | str | os.PathLike | None",
) -> ShardCache | None:
    """Pass a :class:`ShardCache` through; wrap a path; None stays None."""
    if cache is None or isinstance(cache, ShardCache):
        return cache
    return ShardCache(cache)


def lookup_shards(
    store: ShardCache,
    spec: ScenarioSpec,
    shards,
    *,
    mode: str = "shard",
) -> tuple[dict, dict, list]:
    """Partition shards into cache hits and misses.

    Returns ``(keys, hits, misses)``: ``keys`` maps each shard index to
    its content address, ``hits`` maps hit indices to their stored
    ``{"value", "seconds"}`` entries, and ``misses`` lists the shards
    to compute, in the given order.
    """
    keys: dict[int, str] = {}
    hits: dict[int, dict] = {}
    misses: list = []
    for shard in shards:
        key = shard_key(spec, shard, mode=mode)
        keys[shard.index] = key
        entry = store.get(key)
        if entry is None:
            misses.append(shard)
        else:
            hits[shard.index] = entry
    return keys, hits, misses


def verify_cache(
    directory: str | os.PathLike, *, quarantine: bool = False
) -> dict:
    """Scan a cache directory and report bad entries.

    Walks every ``<2-hex>/<key>.json`` entry, validating JSON, format,
    stored-key-vs-filename agreement, the value payload and the stored
    ``seconds``.  Returns
    ``{"dir", "scanned", "ok", "bad": [{"path", "reason"}, ...],
    "quarantined"}``.  With ``quarantine=True`` each bad entry is moved
    to ``<directory>/quarantine/`` (what :meth:`ShardCache.get` would
    do lazily on the next hit); the default only reports.  Files
    already under ``quarantine/`` and stray temp files are skipped.
    """
    store = ShardCache(directory)
    root = store.directory
    report = {
        "dir": str(root),
        "scanned": 0,
        "ok": 0,
        "bad": [],
        "quarantined": 0,
    }
    if not root.is_dir():
        return report
    for path in sorted(root.glob("??/*.json")):
        key = path.stem
        if path.parent.name != key[:2] or len(key) != 64:
            continue
        report["scanned"] += 1
        reason = None
        try:
            doc = json.loads(path.read_text())
        except OSError as err:  # pragma: no cover - racing deletion
            reason = f"unreadable: {err}"
        except json.JSONDecodeError as err:
            reason = f"invalid JSON: {err}"
        else:
            reason = _entry_problem(doc, key)
        if reason is None:
            report["ok"] += 1
            continue
        entry = {"path": str(path.relative_to(root)), "reason": reason}
        if quarantine:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                target = store.quarantine(path, reason)
            entry["quarantined_to"] = str(target.relative_to(root))
            report["quarantined"] += 1
        report["bad"].append(entry)
    return report
