"""Unit tests for table IO (CSV/TSV/JSON)."""

import io

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
