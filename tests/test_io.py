"""Unit tests for table IO (CSV/TSV/JSON)."""

import io
import json

import pytest

from repro.dataset import DatasetConfig, build_dataset
from repro.tables import (
    Table,
    TableError,
    load_tables,
    save_tables,
    table_from_csv,
    table_from_json,
    table_from_tsv,
    table_to_csv,
    table_to_json,
)
from repro.tables.values import DateValue, NumberValue


class TestCSV:
    def test_roundtrip_through_string_buffer(self, medals_table):
        buffer = io.StringIO()
        table_to_csv(medals_table, buffer)
        buffer.seek(0)
        loaded = table_from_csv(buffer)
        assert loaded.columns == medals_table.columns
        assert loaded.num_rows == medals_table.num_rows
        assert loaded.cell(3, "Nation").display() == "Fiji"

    def test_roundtrip_through_file(self, tmp_path, olympics_table):
        path = tmp_path / "olympics.csv"
        table_to_csv(olympics_table, path)
        loaded = table_from_csv(path)
        assert loaded.name == "olympics"
        assert loaded.cell(0, "City").display() == "Athens"

    def test_empty_csv_rejected(self):
        with pytest.raises(TableError):
            table_from_csv(io.StringIO(""))

    def test_tsv(self, tmp_path, olympics_table):
        path = tmp_path / "olympics.tsv"
        table_to_csv(olympics_table, path, delimiter="\t")
        loaded = table_from_tsv(path)
        assert loaded.num_rows == 6


class TestJSON:
    def test_roundtrip(self, medals_table):
        text = table_to_json(medals_table)
        loaded = table_from_json(text)
        assert loaded.name == medals_table.name
        assert loaded.columns == medals_table.columns
        assert loaded.cell(6, "Total").display() == "20"

    def test_missing_keys_rejected(self):
        with pytest.raises(TableError):
            table_from_json('{"columns": ["A"]}')

    def test_year_as_date_typing_survives(self):
        table = Table(
            columns=["Year", "City"],
            rows=[["1896", "Athens"], ["2004", "Athens"]],
            name="hosts",
            date_columns=["Year"],
        )
        loaded = table_from_json(table_to_json(table))
        assert loaded.fingerprint == table.fingerprint
        # An explicit argument still wins over the payload's own list.
        untyped = table_from_json(table_to_json(table), date_columns=[])
        assert untyped.fingerprint != table.fingerprint

    def test_a_number_in_a_date_column_stays_a_number(self):
        """``$1,200`` displays as ``1200``, which a date column would read
        back as a year; the JSON names the cell, so it stays a number."""
        table = Table(["Year"], [["1896"], ["$1,200"]], date_columns=["Year"])
        loaded = table_from_json(table_to_json(table))
        assert [type(value) for value in loaded.column_values("Year")] == [
            DateValue, NumberValue,
        ]
        assert loaded.fingerprint == table.fingerprint

    def test_json_written_before_number_cells_loads_as_before(self):
        """A payload without ``number_cells`` reads every four-digit cell
        of a date column as a year, as it always did."""
        old = json.dumps({
            "name": "hosts", "columns": ["Year"], "rows": [["1896"], ["1200"]],
            "date_columns": ["Year"],
        })
        expected = Table(["Year"], [["1896"], ["1200"]], name="hosts", date_columns=["Year"])
        loaded = table_from_json(old)
        assert loaded.fingerprint == expected.fingerprint
        assert loaded.column_values("Year") == [DateValue(year=1896), DateValue(year=1200)]

    def test_a_malformed_number_cells_entry_is_a_table_error(self):
        bad = json.dumps({
            "name": "t", "columns": ["Year"], "rows": [["1896"]],
            "date_columns": ["Year"], "number_cells": {"Year": [5]},
        })
        with pytest.raises(TableError):
            table_from_json(bad)


class TestDirectories:
    def test_dataset_round_trip_keeps_every_fingerprint(self, tmp_path):
        """What `repro dataset --output` writes, `serve --corpus` reads back
        with the same content identity (year columns stay dates)."""
        dataset = build_dataset(
            DatasetConfig(num_tables=6, questions_per_table=2, seed=0)
        )
        save_tables(dataset.tables, tmp_path / "tables")
        loaded = load_tables(tmp_path / "tables")
        assert [table.fingerprint for table in loaded] == [
            table.fingerprint for table in dataset.tables
        ]
    def test_save_and_load_many(self, tmp_path, olympics_table, medals_table):
        paths = save_tables([olympics_table, medals_table], tmp_path / "tables")
        assert len(paths) == 2
        loaded = load_tables(tmp_path / "tables")
        assert [table.name for table in loaded] == ["olympics", "medals"]
