"""Export of experiment tables, run records and executed plans to
CSV / JSON.

Downstream users typically want the raw rows for their own plotting
pipelines; these helpers serialise :class:`ExperimentTable`,
:class:`~repro.experiments.runner.RunRecord` and
:class:`~repro.experiments.pipeline.PlanResult` without any
third-party dependency.  Executed plans persist as self-describing
JSON artifacts (spec + per-shard results + timings + the rendered
table) under a results directory, and :func:`plan_table` reloads an
artifact into the same table the run printed.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib

import numpy as np

from .pipeline import PlanResult
from .runner import RunRecord
from .table import ExperimentTable

PLAN_FORMAT = "repro-plan/v1"
CKPT_STORE_FORMAT = "repro-ckpt-store/v1"
REQUEUE_FORMAT = "repro-requeue/v1"


def _plain(value):
    """JSON/CSV-safe scalar."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _plain_tree(value):
    """Recursively JSON-safe copy of nested dicts/sequences/arrays."""
    if isinstance(value, dict):
        return {str(key): _plain_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_tree(item) for item in value]
    if isinstance(value, np.ndarray):
        return _plain_tree(value.tolist())
    return _plain(value)


def _callable_ref(fn) -> str:
    """Stable ``module:qualname`` reference for a spec callable."""
    return f"{fn.__module__}:{fn.__qualname__}"


def table_to_csv(table: ExperimentTable) -> str:
    """Render a table as CSV (header row + data rows)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.headers)
    for row in table.rows:
        writer.writerow([_plain(value) for value in row])
    return buffer.getvalue()


def table_to_json(table: ExperimentTable) -> str:
    """Render a table as a JSON document with metadata and notes."""
    payload = {
        "experiment": table.experiment,
        "title": table.title,
        "headers": list(table.headers),
        "rows": [[_plain(value) for value in row] for row in table.rows],
        "notes": list(table.notes),
    }
    return json.dumps(payload, indent=2)


def save_table(
    table: ExperimentTable,
    directory: str | pathlib.Path,
    *,
    formats: tuple[str, ...] = ("txt", "csv", "json"),
) -> list[pathlib.Path]:
    """Write the table in the requested formats; returns the paths."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = table.experiment.lower()
    written = []
    for fmt in formats:
        path = directory / f"{stem}.{fmt}"
        if fmt == "txt":
            path.write_text(table.render() + "\n")
        elif fmt == "csv":
            path.write_text(table_to_csv(table))
        elif fmt == "json":
            path.write_text(table_to_json(table))
        else:
            raise ValueError(f"unknown format {fmt!r}")
        written.append(path)
    return written


def spec_to_payload(spec) -> dict:
    """JSON description of a :class:`ScenarioSpec` (callables by ref)."""
    return {
        "name": spec.name,
        "measure": _callable_ref(spec.measure),
        "grid": {
            axis: _plain_tree(list(values))
            for axis, values in spec.grid.items()
        },
        "fixed": _plain_tree(dict(spec.fixed)),
        "replications": spec.replications,
        "base_seed": _plain(spec.base_seed),
        "seed_scope": spec.seed_scope,
        "context": _plain_tree(dict(spec.context)),
    }


def plan_to_json(
    result: PlanResult,
    table: ExperimentTable | None = None,
    *,
    profile: str | None = None,
) -> str:
    """Serialise an executed plan as a self-describing JSON artifact.

    The artifact records the spec (grid, fixed parameters, seeding
    rule), one entry per shard (parameters, wall-clock, measurement
    value) and, when given, the rendered table — enough to re-plot, to
    audit per-shard timings, or to reload the table without re-running.
    """
    payload = {
        "format": PLAN_FORMAT,
        "experiment": result.spec.name,
        "profile": profile,
        "spec": spec_to_payload(result.spec),
        "jobs": result.jobs,
        "elapsed_seconds": result.elapsed_seconds,
        # Per-run shard-cache hit/miss counters (None when the run did
        # not consult a cache) — the serving-traffic observability the
        # result cache is sized by.
        "cache": _plain_tree(result.cache_stats)
        if result.cache_stats is not None
        else None,
        # Retry/failure/degradation history (None when the run had no
        # fault-tolerance knobs engaged) — see
        # :func:`repro.experiments.pipeline.build_fault_report`.
        "faults": _plain_tree(result.fault_report)
        if result.fault_report is not None
        else None,
        "shards": [
            {
                "index": entry.shard.index,
                "cell": entry.shard.cell,
                "replication": entry.shard.replication,
                "params": _plain_tree(dict(entry.shard.params)),
                # The resolved SeedSequence, so 'cell'/'direct' scopes
                # (whose cell_seed closure is not serialisable) stay
                # reproducible from the artifact alone.
                "seed": {
                    "entropy": _plain(entry.shard.seed.entropy),
                    "spawn_key": [
                        int(key) for key in entry.shard.seed.spawn_key
                    ],
                },
                "seconds": entry.seconds,
                "value": _plain_tree(entry.value),
            }
            for entry in result.results
        ],
        "table": json.loads(table_to_json(table)) if table else None,
    }
    return json.dumps(payload, indent=2)


def save_plan(
    result: PlanResult,
    table: ExperimentTable | None,
    directory: str | pathlib.Path,
    *,
    profile: str | None = None,
) -> pathlib.Path:
    """Write a plan artifact to ``directory/<name>[-<profile>].json``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = result.spec.name + (f"-{profile}" if profile else "")
    path = directory / f"{stem}.json"
    path.write_text(plan_to_json(result, table, profile=profile) + "\n")
    return path


def save_requeue(
    result: PlanResult,
    directory: str | pathlib.Path,
    *,
    profile: str | None = None,
) -> pathlib.Path | None:
    """Write the failed shards of a partially-completed run to
    ``directory/<name>[-<profile>].requeue.json``, or None when the
    run had no permanent failures.

    Each entry is self-contained (params + resolved seed + the final
    error), so a later run can re-execute exactly the missing shards
    and merge them bit-identically into the partial table (rerun with
    ``--cache`` to compute only the failed shards).
    """
    report = result.fault_report
    if report is None or not report.get("requeue"):
        return None
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = result.spec.name + (f"-{profile}" if profile else "")
    path = directory / f"{stem}.requeue.json"
    doc = {
        "format": REQUEUE_FORMAT,
        "experiment": result.spec.name,
        "profile": profile,
        "spec": spec_to_payload(result.spec),
        "failed": _plain_tree(report.get("failed", [])),
        "shards": _plain_tree(report["requeue"]),
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_plan(path: str | pathlib.Path) -> dict:
    """Reload a plan artifact written by :func:`save_plan`."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format") != PLAN_FORMAT:
        raise ValueError(
            f"{path}: not a {PLAN_FORMAT} artifact "
            f"(format={payload.get('format')!r})"
        )
    return payload


def plan_table(payload: dict) -> ExperimentTable:
    """Rebuild the stored table of a reloaded plan artifact."""
    stored = payload.get("table")
    if stored is None:
        raise ValueError(
            f"artifact for {payload.get('experiment')!r} was saved "
            "without a rendered table"
        )
    return ExperimentTable(
        experiment=stored["experiment"],
        title=stored["title"],
        headers=list(stored["headers"]),
        rows=[list(row) for row in stored["rows"]],
        notes=list(stored["notes"]),
    )


# ----------------------------------------------------------------------
# Engine checkpoint persistence (JSON + NPZ, pickle-free)


def _strip_arrays(value, prefix: str, arrays: dict):
    """Replace every ndarray in a payload tree with an NPZ reference.

    Returns the JSON-able remainder; collected arrays land in
    ``arrays`` under their dotted tree path.
    """
    if isinstance(value, np.ndarray):
        arrays[prefix] = value
        return {"__npz__": prefix}
    if isinstance(value, dict):
        return {
            str(key): _strip_arrays(
                item, f"{prefix}.{key}" if prefix else str(key), arrays
            )
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [
            _strip_arrays(item, f"{prefix}.{index}", arrays)
            for index, item in enumerate(value)
        ]
    return _plain(value)


def _graft_arrays(value, arrays):
    """Inverse of :func:`_strip_arrays` over a loaded NPZ mapping."""
    if isinstance(value, dict):
        if set(value) == {"__npz__"}:
            return arrays[value["__npz__"]]
        return {key: _graft_arrays(item, arrays) for key, item in value.items()}
    if isinstance(value, list):
        return [_graft_arrays(item, arrays) for item in value]
    return value


def save_checkpoint(
    payload: dict, path: str | pathlib.Path
) -> tuple[pathlib.Path, pathlib.Path]:
    """Persist an engine ``snapshot()`` payload as ``<path>.json`` +
    ``<path>.npz``.

    The JSON file holds the payload tree (scalars, nested dicts, the
    RNG state) with each array replaced by a reference into the NPZ
    file, which stores the arrays under their dotted tree paths.  No
    pickling on either side, so checkpoints are inspectable by hand
    and safe to load from untrusted disks.
    """
    path = pathlib.Path(path)
    if path.suffix in (".json", ".npz"):
        path = path.with_suffix("")
    arrays: dict[str, np.ndarray] = {}
    tree = _strip_arrays(payload, "", arrays)
    json_path = path.with_suffix(".json")
    npz_path = path.with_suffix(".npz")
    json_path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "format": CKPT_STORE_FORMAT,
        "payload": tree,
        "arrays": sorted(arrays),
    }
    json_path.write_text(json.dumps(doc, indent=2) + "\n")
    np.savez_compressed(npz_path, **arrays)
    return json_path, npz_path


def load_checkpoint(path: str | pathlib.Path) -> dict:
    """Reload a :func:`save_checkpoint` pair into a restore payload."""
    path = pathlib.Path(path)
    if path.suffix in (".json", ".npz"):
        path = path.with_suffix("")
    doc = json.loads(path.with_suffix(".json").read_text())
    if doc.get("format") != CKPT_STORE_FORMAT:
        raise ValueError(
            f"{path}: not a {CKPT_STORE_FORMAT} checkpoint "
            f"(format={doc.get('format')!r})"
        )
    with np.load(path.with_suffix(".npz"), allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    missing = set(doc.get("arrays", [])) - set(arrays)
    if missing:
        raise ValueError(
            f"{path}: NPZ file is missing arrays {sorted(missing)}"
        )
    return _graft_arrays(doc["payload"], arrays)


def record_to_csv(record: RunRecord) -> str:
    """Serialise a run record's time series as CSV.

    Columns: ``time, C_0..C_{k-1}, A_0..A_{k-1}, a_0..a_{k-1}``.
    """
    k = record.colour_counts.shape[1]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["time"]
        + [f"C_{i}" for i in range(k)]
        + [f"A_{i}" for i in range(k)]
        + [f"a_{i}" for i in range(k)]
    )
    for index, time in enumerate(record.times):
        writer.writerow(
            [int(time)]
            + [int(v) for v in record.colour_counts[index]]
            + [int(v) for v in record.dark_counts[index]]
            + [int(v) for v in record.light_counts[index]]
        )
    return buffer.getvalue()


def record_to_json(record: RunRecord) -> str:
    """Serialise a run record (metadata + series) as JSON."""
    payload = {
        "n": record.n,
        "k": record.weights.k,
        "weights": list(record.weights),
        "steps": record.steps,
        "times": [int(t) for t in record.times],
        "colour_counts": record.colour_counts.tolist(),
        "dark_counts": record.dark_counts.tolist(),
        "light_counts": record.light_counts.tolist(),
    }
    return json.dumps(payload)
