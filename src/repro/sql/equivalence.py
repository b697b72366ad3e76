"""Cross-checking the lambda DCS executor against the SQL translation.

For a query ``Q`` and table ``T`` this module runs both the native executor
(:mod:`repro.dcs.executor`) and the translated SQL on sqlite
(:mod:`repro.sql.sqlite_backend`) and compares the results.  It is used by
the test suite as an oracle and exposed in the public API because it is a
useful debugging tool when adding new operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..tables.table import Table
from ..tables.values import DateValue, NumberValue, StringValue, Value
from ..dcs.ast import Query, ResultKind
from ..dcs.executor import ExecutionResult, execute
from .sqlite_backend import JoinSQLiteBackend, SQLResult, SQLiteBackend, SQLValue


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing the DCS executor with the SQL translation."""

    query: Query
    equivalent: bool
    detail: str
    dcs_result: ExecutionResult
    sql_result: SQLResult

    def __bool__(self) -> bool:
        return self.equivalent


def _normalise_sql_value(value: SQLValue) -> object:
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return round(float(value), 6)
    text = str(value).strip()
    try:
        return round(float(text), 6)
    except ValueError:
        return text.lower()


def _normalise_dcs_value(value: Value) -> object:
    if isinstance(value, NumberValue):
        return round(value.number, 6)
    if isinstance(value, DateValue):
        if value.is_numeric:
            return round(value.as_number(), 6)
        return value.display().lower()
    text = value.display().strip()
    try:
        return round(float(text.replace(",", "")), 6)
    except ValueError:
        return text.lower()


def _multiset(items: Sequence[object]) -> dict:
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts


def check_equivalence(query: Query, table: Table, backend: Optional[SQLiteBackend] = None) -> EquivalenceReport:
    """Execute ``query`` both natively and through SQL and compare the results.

    * RECORDS queries compare the selected index sets,
    * VALUES queries compare the value multisets (normalised),
    * SCALAR queries compare the numbers up to a small tolerance.
    """
    dcs_result = execute(query, table)
    own_backend = backend is None
    backend = backend or SQLiteBackend(table)
    try:
        sql_result = backend.run_query(query)
    finally:
        if own_backend:
            backend.close()
    equivalent, detail = _compare_results(query, dcs_result, sql_result)
    return EquivalenceReport(
        query=query,
        equivalent=equivalent,
        detail=detail,
        dcs_result=dcs_result,
        sql_result=sql_result,
    )


def check_composed_equivalence(
    query: Query,
    primary: Table,
    secondary: Table,
    backend: Optional[JoinSQLiteBackend] = None,
) -> EquivalenceReport:
    """The two-table oracle: composed execution vs translated JOIN SQL.

    Runs ``query`` (a tree containing one
    :class:`~repro.dcs.ast.JoinRecords` bridge) natively with the
    :class:`~repro.compose.ComposedExecutor` and through the translated
    SQL over a :class:`JoinSQLiteBackend` materialising both tables,
    then compares with the same normalisation rules as the single-table
    check.  This is the gate ``repro bench join`` enforces on every
    composed answer.
    """
    from ..compose.executor import ComposedExecutor

    dcs_result = ComposedExecutor(primary, secondary).execute(query)
    own_backend = backend is None
    backend = backend or JoinSQLiteBackend(primary, secondary)
    try:
        sql_result = backend.run_query(query)
    finally:
        if own_backend:
            backend.close()
    equivalent, detail = _compare_results(query, dcs_result, sql_result)
    return EquivalenceReport(
        query=query,
        equivalent=equivalent,
        detail=detail,
        dcs_result=dcs_result,
        sql_result=sql_result,
    )


def _compare_results(
    query: Query, dcs_result: ExecutionResult, sql_result: SQLResult
):
    if query.result_kind == ResultKind.RECORDS:
        dcs_indices = dcs_result.record_indices
        sql_indices = sql_result.record_indices()
        equivalent = dcs_indices == sql_indices
        detail = f"dcs indices {sorted(dcs_indices)} vs sql indices {sorted(sql_indices)}"
    elif query.result_kind == ResultKind.VALUES:
        dcs_values = [_normalise_dcs_value(v) for v in dcs_result.values]
        sql_values = [_normalise_sql_value(v) for v in sql_result.values()]
        # The SQL translation of unions and most-common dedupes values, so
        # compare distinct sets rather than multisets.
        equivalent = set(dcs_values) == set(sql_values)
        detail = f"dcs values {sorted(map(str, set(dcs_values)))} vs sql values {sorted(map(str, set(sql_values)))}"
    else:
        sql_scalar = sql_result.scalar()
        if dcs_result.is_empty:
            equivalent = sql_scalar is None or sql_scalar == 0
            detail = f"dcs empty vs sql {sql_scalar}"
        else:
            dcs_scalar = _normalise_dcs_value(dcs_result.scalar())
            if sql_scalar is None or not isinstance(dcs_scalar, float):
                equivalent = False
                detail = f"dcs {dcs_scalar} vs sql {sql_scalar}"
            else:
                equivalent = math.isclose(dcs_scalar, sql_scalar, rel_tol=1e-6, abs_tol=1e-6)
                detail = f"dcs {dcs_scalar} vs sql {sql_scalar}"

    return equivalent, detail


def check_many(queries: Sequence[Query], table: Table) -> List[EquivalenceReport]:
    """Check a batch of queries against one table, reusing a single backend."""
    reports = []
    with SQLiteBackend(table) as backend:
        for query in queries:
            reports.append(check_equivalence(query, table, backend=backend))
    return reports
