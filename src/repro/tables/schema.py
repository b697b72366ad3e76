"""Lightweight schema inspection for web tables.

The semantic parser and the question generator both need to know, per
column, whether the column is numeric, date-like or textual, and which
columns are good candidates for aggregation, superlatives and arithmetic
difference.  This module infers that information from a table's cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .table import Table
from .values import DateValue, NumberValue, StringValue


@dataclass(frozen=True)
class ColumnProfile:
    """Summary statistics for one table column."""

    name: str
    numeric_fraction: float
    date_fraction: float
    distinct_count: int
    total_count: int

    @property
    def is_numeric(self) -> bool:
        return self.numeric_fraction >= 0.8

    @property
    def is_date(self) -> bool:
        return self.date_fraction >= 0.8

    @property
    def is_textual(self) -> bool:
        return not self.is_numeric and not self.is_date

    @property
    def distinct_fraction(self) -> float:
        if self.total_count == 0:
            return 0.0
        return self.distinct_count / self.total_count


@dataclass(frozen=True)
class TableSchema:
    """Per-column profiles for a table."""

    table_name: str
    profiles: Dict[str, ColumnProfile]

    def column(self, name: str) -> ColumnProfile:
        return self.profiles[name]

    @property
    def numeric_columns(self) -> List[str]:
        return [name for name, p in self.profiles.items() if p.is_numeric]

    @property
    def date_columns(self) -> List[str]:
        return [name for name, p in self.profiles.items() if p.is_date]

    @property
    def textual_columns(self) -> List[str]:
        return [name for name, p in self.profiles.items() if p.is_textual]

    @property
    def comparable_columns(self) -> List[str]:
        """Columns usable for superlatives / comparisons (numeric or date)."""
        return [
            name
            for name, profile in self.profiles.items()
            if profile.is_numeric or profile.is_date
        ]


def profile_column(table: Table, column: str) -> ColumnProfile:
    """Compute the :class:`ColumnProfile` of one column."""
    values = table.column_values(column)
    total = len(values)
    if total == 0:
        return ColumnProfile(column, 0.0, 0.0, 0, 0)
    numeric = sum(1 for v in values if isinstance(v, NumberValue))
    dates = sum(1 for v in values if isinstance(v, DateValue))
    distinct = len({
        v.normalized if isinstance(v, StringValue) else v.display() for v in values
    })
    return ColumnProfile(
        name=column,
        numeric_fraction=numeric / total,
        date_fraction=dates / total,
        distinct_count=distinct,
        total_count=total,
    )


def infer_schema(table: Table) -> TableSchema:
    """Profile every column of a table."""
    return TableSchema(
        table_name=table.name,
        profiles={column: profile_column(table, column) for column in table.columns},
    )
