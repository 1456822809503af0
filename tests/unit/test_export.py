"""Unit tests for the table export helpers (CSV/JSON serialisation)."""

import csv
import io
import json

import numpy as np
import pytest

from repro.experiments.export import (
    save_table,
    table_to_csv,
    table_to_json,
)
from repro.experiments.table import ExperimentTable


@pytest.fixture
def table():
    table = ExperimentTable("E0", "demo table", ["n", "err", "ok"])
    table.add_row(128, np.float64(0.125), np.bool_(True))
    table.add_row(256, 0.0625, False)
    table.add_note("a note")
    return table


class TestTableCsv:
    def test_roundtrip_via_csv_reader(self, table):
        rows = list(csv.reader(io.StringIO(table_to_csv(table))))
        assert rows[0] == ["n", "err", "ok"]
        assert rows[1] == ["128", "0.125", "True"]
        assert len(rows) == 3

    def test_numpy_scalars_converted(self, table):
        text = table_to_csv(table)
        assert "np.float64" not in text
        assert "np.True_" not in text


class TestTableJson:
    def test_valid_json_with_metadata(self, table):
        payload = json.loads(table_to_json(table))
        assert payload["experiment"] == "E0"
        assert payload["headers"] == ["n", "err", "ok"]
        assert payload["rows"][0] == [128, 0.125, True]
        assert payload["notes"] == ["a note"]


class TestSaveTable:
    def test_writes_all_formats(self, table, tmp_path):
        paths = save_table(table, tmp_path)
        names = {p.name for p in paths}
        assert names == {"e0.txt", "e0.csv", "e0.json"}
        for path in paths:
            assert path.exists()
            assert path.stat().st_size > 0

    def test_subset_of_formats(self, table, tmp_path):
        paths = save_table(table, tmp_path, formats=("json",))
        assert len(paths) == 1
        assert paths[0].suffix == ".json"

    def test_unknown_format_rejected(self, table, tmp_path):
        with pytest.raises(ValueError):
            save_table(table, tmp_path, formats=("yaml",))
