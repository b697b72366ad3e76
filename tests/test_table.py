"""Unit tests for the Table / Record / Cell data model."""

import copy
import dataclasses
import functools
import pickle
import weakref

import pytest

from repro.tables import DateValue, NumberValue, StringValue, Table, TableError
from repro.tables.fingerprint import TableFingerprint
from repro.tables.table import Cell, Record


class TestConstruction:
    def test_row_and_column_counts(self, olympics_table):
        assert olympics_table.num_rows == 6
        assert olympics_table.num_columns == 3
        assert len(olympics_table) == 6

    def test_duplicate_headers_rejected(self):
        with pytest.raises(TableError):
            Table(columns=["A", "A"], rows=[[1, 2]])

    def test_ragged_row_rejected(self):
        with pytest.raises(TableError):
            Table(columns=["A", "B"], rows=[[1]])

    def test_unknown_date_column_rejected(self):
        with pytest.raises(TableError):
            Table(columns=["A"], rows=[[1]], date_columns=["B"])

    def test_cells_are_typed(self, olympics_table):
        assert isinstance(olympics_table.cell(0, "Year").value, NumberValue)
        assert isinstance(olympics_table.cell(0, "Country").value, StringValue)

    def test_date_columns_parse_years_as_dates(self):
        table = Table(columns=["Year"], rows=[[1896]], date_columns=["Year"])
        assert isinstance(table.cell(0, "Year").value, DateValue)


class TestRecords:
    def test_indices_are_sequential(self, olympics_table):
        assert [record.index for record in olympics_table] == list(range(6))

    def test_prev_index(self, olympics_table):
        assert olympics_table.record(0).prev_index is None
        assert olympics_table.record(3).prev_index == 2

    def test_record_cell_lookup(self, olympics_table):
        assert olympics_table.record(2).value("City").display() == "Athens"

    def test_record_missing_column(self, olympics_table):
        with pytest.raises(TableError):
            olympics_table.record(0).cell("Continent")

    def test_record_out_of_range(self, olympics_table):
        with pytest.raises(TableError):
            olympics_table.record(99)


class TestColumns:
    def test_column_cells_in_row_order(self, olympics_table):
        cells = olympics_table.column_cells("City")
        assert [cell.row_index for cell in cells] == list(range(6))

    def test_column_values(self, medals_table):
        values = medals_table.column_values("Nation")
        assert values[0].display() == "New Caledonia"
        assert len(values) == 8

    def test_missing_column(self, olympics_table):
        with pytest.raises(TableError):
            olympics_table.column_cells("Continent")

    def test_has_column(self, olympics_table):
        assert olympics_table.has_column("Year")
        assert not olympics_table.has_column("year ")

    def test_all_cells_count(self, olympics_table):
        assert len(olympics_table.all_cells()) == 18


class TestCellCoordinates:
    def test_coordinate(self, olympics_table):
        cell = olympics_table.cell(4, "City")
        assert cell.coordinate == (4, "City")
        assert cell.display() == "London"


class TestConvenience:
    def test_from_dicts_roundtrip(self):
        rows = [{"A": 1, "B": "x"}, {"A": 2, "B": "y"}]
        table = Table.from_dicts(rows, name="t")
        assert table.columns == ["A", "B"]
        assert table.to_dicts() == [{"A": "1", "B": "x"}, {"A": "2", "B": "y"}]

    def test_from_dicts_empty_requires_columns(self):
        with pytest.raises(TableError):
            Table.from_dicts([])

    def test_from_dicts_missing_key_becomes_empty(self):
        table = Table.from_dicts([{"A": 1}], columns=["A", "B"])
        assert table.cell(0, "B").display() == ""

    def test_subtable_preserves_columns_and_reindexes(self, medals_table):
        sample = medals_table.subtable([3, 6])
        assert sample.num_rows == 2
        assert sample.columns == medals_table.columns
        assert sample.cell(0, "Nation").display() == "Fiji"
        assert sample.cell(1, "Nation").display() == "Tonga"
        assert sample.record(1).index == 1


def wide_table() -> Table:
    """40 columns of mixed types, so a by-name scan and a positional read differ."""
    columns = [f"C{position}" for position in range(40)]
    rows = [
        [
            f"r{row}c{position}" if position % 3 == 0 else
            f"${row},{position:03d}" if position % 3 == 1 else
            1900 + row * 40 + position
            for position in range(40)
        ]
        for row in range(6)
    ]
    return Table(columns=columns, rows=rows, name="wide", date_columns=["C2", "C38"])


class TestPositionalReads:
    """Tables read cells by column position; the record scan is the reference."""

    def test_cell_agrees_with_the_record_scan(self):
        table = wide_table()
        for record in table:
            for column in table.columns:
                assert table.cell(record.index, column) is record.cell(column)

    def test_column_cells_agree_with_the_record_scan(self):
        table = wide_table()
        for column in table.columns:
            scanned = tuple(record.cell(column) for record in table)
            assert table.column_cells(column) == scanned
            assert all(a is b for a, b in zip(table.column_cells(column), scanned))

    def test_subtable_agrees_with_the_record_scan(self):
        table = wide_table()
        picked = [5, 0, 3, 3]
        sample = table.subtable(picked)
        assert sample.columns == table.columns
        for new_index, old_index in enumerate(picked):
            for column in table.columns:
                assert sample.cell(new_index, column).value is table.record(old_index).value(column)

    def test_bad_reads_keep_their_messages(self):
        table = wide_table()
        with pytest.raises(TableError, match=r"record 2 has no column 'C40'"):
            table.cell(2, "C40")
        with pytest.raises(TableError, match=r"record index out of range: 6"):
            table.cell(6, "C0")
        with pytest.raises(TableError, match=r"record index out of range: -1"):
            table.cell(-1, "C0")


def slotted_instances():
    """One instance of every slotted class of the table model."""
    table = wide_table()
    record = table.record(1)
    return [
        StringValue("  New Caledonia "),
        NumberValue(1200.0),
        DateValue(1896),
        DateValue(2013, 6, 8),
        record.cell("C0"),
        record.cell("C1"),
        record.cell("C2"),
        record,
        table.fingerprint,
    ]


SLOTTED_IDS = [type(instance).__name__ for instance in slotted_instances()]


class TestSlottedModel:
    """Cells, records, values and fingerprints are frozen, slotted, and
    pickle as their field tuples."""

    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    @pytest.mark.parametrize("instance", slotted_instances(), ids=SLOTTED_IDS)
    def test_pickle_round_trip_keeps_equality_and_hash(self, instance, protocol):
        restored = pickle.loads(pickle.dumps(instance, protocol=protocol))
        assert type(restored) is type(instance)
        assert restored == instance
        assert hash(restored) == hash(instance)
        # Value equality is looser than the fields (StringValue ignores
        # case and spacing), so compare the fields exactly too.
        assert dataclasses.astuple(restored) == dataclasses.astuple(instance)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    @pytest.mark.parametrize("instance", slotted_instances(), ids=SLOTTED_IDS)
    def test_copies_keep_equality_and_hash(self, instance, copier):
        copied = copier(instance)
        assert type(copied) is type(instance)
        assert copied == instance
        assert hash(copied) == hash(instance)

    @pytest.mark.parametrize("instance", slotted_instances(), ids=SLOTTED_IDS)
    def test_instances_are_frozen_and_hold_no_attribute_dict(self, instance):
        field = dataclasses.fields(instance)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field, None)
        assert not hasattr(instance, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            instance.memo = 1
        with pytest.raises(TypeError):
            weakref.ref(instance)

    @pytest.mark.parametrize(
        "cls", [Cell, Record, StringValue, NumberValue, DateValue, TableFingerprint]
    )
    def test_a_cached_property_fails_at_first_read(self, cls, monkeypatch):
        probe = functools.cached_property(lambda self: 1)
        probe.__set_name__(cls, "probe")
        monkeypatch.setattr(cls, "probe", probe, raising=False)
        instance = next(i for i in slotted_instances() if type(i) is cls)
        with pytest.raises(TypeError, match="__dict__"):
            instance.probe

    @pytest.mark.parametrize("instance", slotted_instances(), ids=SLOTTED_IDS)
    def test_a_dict_state_is_refused(self, instance):
        blank = object.__new__(type(instance))
        with pytest.raises(TypeError, match="dict state"):
            blank.__setstate__({field.name: None for field in dataclasses.fields(instance)})

    def test_a_restore_runs_no_post_init(self, monkeypatch):
        blob = pickle.dumps(DateValue(1896))

        def refuse(self):
            raise AssertionError("__post_init__ ran on restore")

        monkeypatch.setattr(DateValue, "__post_init__", refuse)
        assert pickle.loads(blob).year == 1896
