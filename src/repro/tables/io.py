"""Loading and saving tables.

WikiTableQuestions distributes its tables as CSV/TSV files; this module
provides the equivalent IO for the reproduction: CSV, TSV and JSON
round-tripping of :class:`~repro.tables.table.Table` objects.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .table import Table, TableError
from .values import DateValue, NumberValue, parse_value

PathLike = Union[str, Path]


def table_from_csv(
    source: Union[PathLike, io.TextIOBase],
    delimiter: str = ",",
    name: Optional[str] = None,
    date_columns: Optional[Sequence[str]] = None,
) -> Table:
    """Load a table from a CSV (or TSV) file or file-like object.

    The first row is taken as the header.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle, delimiter=delimiter))
        table_name = name or path.stem
    else:
        rows = list(csv.reader(source, delimiter=delimiter))
        table_name = name or "table"
    if not rows:
        raise TableError("empty CSV: no header row")
    header, data = rows[0], rows[1:]
    return Table(columns=header, rows=data, name=table_name, date_columns=date_columns)


def table_from_tsv(
    source: Union[PathLike, io.TextIOBase],
    name: Optional[str] = None,
    date_columns: Optional[Sequence[str]] = None,
) -> Table:
    """Load a table from a TSV file (the WikiTableQuestions on-disk format)."""
    return table_from_csv(source, delimiter="\t", name=name, date_columns=date_columns)


def table_to_csv(table: Table, destination: Union[PathLike, io.TextIOBase], delimiter: str = ",") -> None:
    """Write a table's display values to CSV.

    CSV keeps display strings only: which columns hold bare-year dates,
    and which four-digit cells of such a column are numbers, is not
    written, so reading the file back may type cells differently.  Use
    :func:`table_to_json` for a round trip that keeps the fingerprint.
    """
    def _write(handle) -> None:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(table.columns)
        for record in table.records:
            writer.writerow([cell.display() for cell in record.cells])

    if isinstance(destination, (str, Path)):
        with Path(destination).open("w", newline="", encoding="utf-8") as handle:
            _write(handle)
    else:
        _write(destination)


def table_to_json(table: Table) -> str:
    """Serialise a table (name, columns, display rows) to a JSON string.

    Columns whose bare years are typed as dates are listed under
    ``"date_columns"`` (omitted when there are none).  A number in such
    a column that displays as four digits (``"$1,200"`` shows ``1200``)
    would read back as a year, so ``"number_cells"`` maps each of those
    columns to the rows of its such numbers (omitted when there are
    none).  :func:`table_from_json` rebuilds the same typed cells.
    """
    payload = {
        "name": table.name,
        "columns": table.columns,
        "rows": [[cell.display() for cell in record.cells] for record in table.records],
    }
    # A bare year typed as a date displays as "1896", which re-parses as
    # a number unless its column comes back as a date column.
    date_columns = [
        column
        for column in table.columns
        if any(
            isinstance(value, DateValue) and value.is_numeric
            for value in table.column_values(column)
        )
    ]
    if date_columns:
        payload["date_columns"] = date_columns
        number_cells = {
            column: rows
            for column in date_columns
            if (rows := [
                cell.row_index
                for cell in table.column_cells(column)
                if isinstance(cell.value, NumberValue)
                and isinstance(
                    parse_value(cell.display(), prefer_date_for_years=True), DateValue
                )
            ])
        }
        if number_cells:
            payload["number_cells"] = number_cells
    return json.dumps(payload, ensure_ascii=False, indent=2)


def table_from_json(
    text: str, date_columns: Optional[Sequence[str]] = None
) -> Table:
    """Deserialise a table from the JSON produced by :func:`table_to_json`.

    An explicit ``date_columns`` argument wins over the payload's own.
    The cells ``"number_cells"`` names stay numbers whatever the date
    columns are; JSON written without that key loads as it always did.
    """
    payload = json.loads(text)
    missing = {"name", "columns", "rows"} - set(payload)
    if missing:
        raise TableError(f"JSON table missing keys: {sorted(missing)}")
    rows = payload["rows"]
    number_cells = payload.get("number_cells") or {}
    if number_cells:
        rows = [list(row) for row in rows]
    for column, row_indices in number_cells.items():
        try:
            position = payload["columns"].index(column)
            for row_index in row_indices:
                rows[row_index][position] = parse_value(rows[row_index][position])
        except (ValueError, IndexError, TypeError) as error:
            raise TableError(f"bad number_cells entry for {column!r}: {error}")
    return Table(
        columns=payload["columns"],
        rows=rows,
        name=payload["name"],
        date_columns=(
            date_columns if date_columns is not None else payload.get("date_columns")
        ),
    )


def save_tables(tables: List[Table], directory: PathLike) -> List[Path]:
    """Save a list of tables as individual JSON files in a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, table in enumerate(tables):
        path = directory / f"{i:04d}_{_slug(table.name)}.json"
        path.write_text(table_to_json(table), encoding="utf-8")
        paths.append(path)
    return paths


def load_tables(directory: PathLike) -> List[Table]:
    """Load every ``*.json`` table in a directory (sorted by filename)."""
    directory = Path(directory)
    tables = []
    for path in sorted(directory.glob("*.json")):
        tables.append(table_from_json(path.read_text(encoding="utf-8")))
    return tables


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name.lower())[:40]
