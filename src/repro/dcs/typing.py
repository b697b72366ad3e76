"""Static validation of lambda DCS queries against a table.

A query can be *well-formed* (the AST constructors enforce operand kinds)
yet still be *invalid for a specific table* — it may reference a column the
table does not have, aggregate a textual column, or compare values in a
column that holds strings.  The semantic parser generates thousands of
candidates per question, so cheap static validation before execution both
speeds candidate pruning and produces clearer error messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..tables.schema import TableSchema, infer_schema
from ..tables.table import Table
from . import ast
from .ast import AggregateFunction, Query


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found while validating a query against a table."""

    query: Query
    message: str

    def __str__(self) -> str:
        return f"{self.query.operator_name}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of validating a query against a table."""

    issues: Tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok


def validate(query: Query, table: Table, schema: TableSchema = None) -> ValidationReport:
    """Validate every node of ``query`` against ``table``.

    Checks performed:

    * every referenced column exists in the table,
    * ``sum``/``avg`` aggregate only numeric columns,
    * superlatives / comparisons / difference use comparable (numeric or
      date) columns,
    * the table is non-empty.
    """
    schema = schema or infer_schema(table)
    issues: List[ValidationIssue] = []
    if table.num_rows == 0:
        issues.append(ValidationIssue(query, "table has no rows"))

    for node in query.walk():
        issues.extend(node_issues(node, table, schema))
    return ValidationReport(issues=tuple(issues))


def node_issues(node: Query, table: Table, schema: TableSchema) -> List[ValidationIssue]:
    """The issues :func:`validate` finds at ``node`` itself, children aside.

    A query validates exactly when its table has rows and no node of it
    has an issue, so a caller that keeps each node's verdict (the
    parser's per-call node facts) checks every distinct node once.
    """
    issues = [
        ValidationIssue(node, f"unknown column {column!r}")
        for column in node._own_columns()
        if not table.has_column(column)
    ]
    issues.extend(_node_issues(node, table, schema))
    return issues


def validate_composed(
    query: Query,
    primary: Table,
    secondary: Table,
    primary_schema: TableSchema = None,
    secondary_schema: TableSchema = None,
) -> ValidationReport:
    """Validate a cross-table query against its (primary, secondary) pair.

    Everything strictly below the single :class:`~repro.dcs.ast.JoinRecords`
    node answers from ``secondary``; the join's ``left_column`` and every
    node above it answer from ``primary``.  The join's ``right_column``
    must exist in ``secondary``.  Exactly one join is supported — the
    two-table scope of the composition subsystem.
    """
    primary_schema = primary_schema or infer_schema(primary)
    secondary_schema = secondary_schema or infer_schema(secondary)
    issues: List[ValidationIssue] = []
    if primary.num_rows == 0:
        issues.append(ValidationIssue(query, "primary table has no rows"))

    joins = [node for node in query.walk() if isinstance(node, ast.JoinRecords)]
    if not joins:
        issues.append(
            ValidationIssue(query, "composed query has no join-records node")
        )
        return ValidationReport(issues=tuple(issues))
    if len(joins) > 1:
        issues.append(
            ValidationIssue(
                query, f"composed queries support exactly one join, got {len(joins)}"
            )
        )
        return ValidationReport(issues=tuple(issues))
    join = joins[0]
    if not secondary.has_column(join.right_column):
        issues.append(
            ValidationIssue(
                join, f"unknown column {join.right_column!r} in secondary table"
            )
        )

    # The right subtree validates against the secondary table (its own
    # empty-rows check included) ...
    issues.extend(validate(join.records, secondary, secondary_schema).issues)
    # ... and every node outside it against the primary.
    secondary_nodes = {id(node) for node in join.records.walk()}
    for node in query.walk():
        if id(node) in secondary_nodes:
            continue
        issues.extend(node_issues(node, primary, primary_schema))
    return ValidationReport(issues=tuple(issues))


def _node_issues(node: Query, table: Table, schema: TableSchema) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []

    def comparable(column: str) -> bool:
        return table.has_column(column) and (
            schema.column(column).is_numeric or schema.column(column).is_date
        )

    if isinstance(node, ast.Aggregate):
        if node.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            for column in node.operand._own_columns():
                if table.has_column(column) and not schema.column(column).is_numeric:
                    issues.append(
                        ValidationIssue(
                            node,
                            f"{node.function.value} over non-numeric column {column!r}",
                        )
                    )
    elif isinstance(node, ast.SuperlativeRecords):
        if table.has_column(node.column) and not comparable(node.column):
            issues.append(
                ValidationIssue(node, f"superlative over non-comparable column {node.column!r}")
            )
    elif isinstance(node, ast.ComparisonRecords):
        if table.has_column(node.column) and not comparable(node.column):
            issues.append(
                ValidationIssue(node, f"comparison over non-comparable column {node.column!r}")
            )
    elif isinstance(node, ast.CompareValues):
        if table.has_column(node.key_column) and not comparable(node.key_column):
            issues.append(
                ValidationIssue(
                    node, f"comparison key column {node.key_column!r} is not comparable"
                )
            )
    elif isinstance(node, ast.Difference):
        for operand in node.children():
            for column in operand._own_columns():
                if table.has_column(column) and not comparable(column):
                    # Count differences are fine on any column; only flag when the
                    # operand directly projects the column's values.
                    if isinstance(operand, ast.ColumnValues) and operand.column == column:
                        issues.append(
                            ValidationIssue(
                                node,
                                f"difference over non-numeric column {column!r}",
                            )
                        )
    return issues
