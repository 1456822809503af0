"""Export of experiment tables and executed plans to CSV / JSON.

Downstream users typically want the raw rows for their own plotting
pipelines; these helpers serialise :class:`ExperimentTable` and
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
from .table import ExperimentTable

PLAN_FORMAT = "repro-plan/v1"
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
