"""The web-table data model.

Section 3.1 of the paper: a table ``T`` is an ordered list of records, each
record has a unique ``Index`` (0, 1, 2, ...) and a ``Prev`` pointer to the
record above it.  Cells contain typed values (string, number or date).

The classes in this module are deliberately simple containers; query
execution lives in :mod:`repro.dcs.executor` and provenance in
:mod:`repro.core.provenance`, both of which address cells through the
:class:`Cell` objects defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .fingerprint import TableFingerprint, fingerprint_table
from .values import RawValue, Value, parse_value, pickles_as_fields


class TableError(Exception):
    """Raised on malformed tables or invalid column/record access."""


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class Cell:
    """A single table cell.

    A cell knows its position (record index, column name) and its typed
    value.  Cells are the atoms of the provenance model: the provenance
    functions ``PO``, ``PE`` and ``PC`` all return sets of cells.  Like
    :class:`Record` it is slotted (no attribute dict, so no ad-hoc
    attribute, ``cached_property`` or weak reference) and pickles as its
    field tuple (:func:`~repro.tables.values.pickles_as_fields`).
    """

    row_index: int
    column: str
    value: Value

    @property
    def coordinate(self) -> Tuple[int, str]:
        return (self.row_index, self.column)

    def display(self) -> str:
        return self.value.display()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Cell({self.row_index}, {self.column!r}, {self.value.display()!r})"


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class Record:
    """A table record (row) with its unique index.

    ``prev_index`` implements the paper's ``Prev`` pointer; it is ``None``
    for the first record.  ``cells`` are in the table's column order, so
    :class:`Table` reads a cell by column position; :meth:`cell` scans the
    row by name.
    """

    index: int
    cells: Tuple[Cell, ...]

    @property
    def prev_index(self) -> Optional[int]:
        return self.index - 1 if self.index > 0 else None

    def cell(self, column: str) -> Cell:
        for cell in self.cells:
            if cell.column == column:
                return cell
        raise TableError(f"record {self.index} has no column {column!r}")

    def value(self, column: str) -> Value:
        return self.cell(column).value

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)


class Table:
    """An ordered web table.

    Parameters
    ----------
    columns:
        Column header names, in display order.  Headers must be unique.
    rows:
        Iterable of row contents.  Each row is a sequence of raw values
        (strings, numbers, dates or :class:`~repro.tables.values.Value`)
        with the same arity as ``columns``.
    name:
        Optional human-readable table title (e.g. the Wikipedia page name).
    date_columns:
        Column names whose bare-year strings should be parsed as dates
        rather than numbers.
    """

    def __init__(
        self,
        columns: Sequence[str],
        rows: Iterable[Sequence[RawValue]],
        name: str = "table",
        date_columns: Optional[Sequence[str]] = None,
    ) -> None:
        self.name = name
        self.columns: List[str] = [str(c) for c in columns]
        if len(set(self.columns)) != len(self.columns):
            raise TableError(f"duplicate column headers in {self.columns}")
        date_columns = set(date_columns or ())
        unknown = date_columns - set(self.columns)
        if unknown:
            raise TableError(f"date_columns not in table: {sorted(unknown)}")

        records: List[Record] = []
        for row_index, row in enumerate(rows):
            row = list(row)
            if len(row) != len(self.columns):
                raise TableError(
                    f"row {row_index} has {len(row)} cells, expected {len(self.columns)}"
                )
            cells = tuple(
                Cell(
                    row_index=row_index,
                    column=column,
                    value=parse_value(raw, prefer_date_for_years=column in date_columns),
                )
                for column, raw in zip(self.columns, row)
            )
            records.append(Record(index=row_index, cells=cells))
        self.records: Tuple[Record, ...] = tuple(records)
        self._column_cells: Dict[str, Tuple[Cell, ...]] = {
            column: tuple(record.cells[position] for record in self.records)
            for position, column in enumerate(self.columns)
        }
        self._fingerprint: Optional[TableFingerprint] = None

    # -- basic introspection --------------------------------------------------
    @property
    def fingerprint(self) -> TableFingerprint:
        """The content-addressed identity of this table.

        A stable SHA-256 over headers and typed cells (the table *name* is
        excluded); see :class:`~repro.tables.fingerprint.TableFingerprint`
        for the exact contract.  Computed lazily once per table object —
        tables are immutable after construction, so the cached digest can
        never go stale.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_table(self)
        return self._fingerprint

    @property
    def num_rows(self) -> int:
        return len(self.records)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self.num_rows

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def has_column(self, column: str) -> bool:
        return column in self._column_cells

    def record(self, index: int) -> Record:
        if not 0 <= index < self.num_rows:
            raise TableError(f"record index out of range: {index}")
        return self.records[index]

    def column_cells(self, column: str) -> Tuple[Cell, ...]:
        """All cells of a column, in record order."""
        try:
            return self._column_cells[column]
        except KeyError:
            raise TableError(f"table {self.name!r} has no column {column!r}") from None

    def column_values(self, column: str) -> List[Value]:
        return [cell.value for cell in self.column_cells(column)]

    def cell(self, row_index: int, column: str) -> Cell:
        self.record(row_index)  # range check
        try:
            return self._column_cells[column][row_index]
        except KeyError:
            raise TableError(f"record {row_index} has no column {column!r}") from None

    def all_cells(self) -> List[Cell]:
        return [cell for record in self.records for cell in record.cells]

    # -- convenience constructors --------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        rows: Sequence[Dict[str, RawValue]],
        columns: Optional[Sequence[str]] = None,
        name: str = "table",
        date_columns: Optional[Sequence[str]] = None,
    ) -> "Table":
        """Build a table from a list of ``{column: value}`` dictionaries."""
        if not rows and columns is None:
            raise TableError("cannot infer columns from an empty row list")
        if columns is None:
            columns = list(rows[0].keys())
        data = [[row.get(column) for column in columns] for row in rows]
        return cls(columns=columns, rows=data, name=name, date_columns=date_columns)

    def to_dicts(self) -> List[Dict[str, str]]:
        """Export rows as display-string dictionaries (for rendering/IO)."""
        return [
            {cell.column: cell.display() for cell in record.cells}
            for record in self.records
        ]

    def subtable(self, row_indices: Sequence[int], name: Optional[str] = None) -> "Table":
        """A new table containing only the given records (re-indexed)."""
        rows = [[cell.value for cell in self.record(index).cells] for index in row_indices]
        return Table(columns=self.columns, rows=rows, name=name or f"{self.name}[sample]")

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Table({self.name!r}, {self.num_rows}x{self.num_columns})"
