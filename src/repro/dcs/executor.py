"""Execution of lambda DCS queries over a :class:`~repro.tables.table.Table`.

The executor walks the query AST and produces an :class:`ExecutionResult`
that carries, besides the answer itself, the *output cells* of every
operator.  Those per-operator output cells are exactly the ``PO`` sets of
the paper's Table 10, which is why the provenance engine
(:mod:`repro.core.provenance`) is built directly on top of this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union as TUnion

from ..tables.index import table_index
from ..tables.table import Cell, Table
from ..tables.values import (
    DateValue,
    NumberValue,
    StringValue,
    Value,
    pickles_as_fields,
    values_equal,
)
from . import ast
from .ast import AggregateFunction, ComparisonOperator, Query, ResultKind, SuperlativeKind
from .errors import ExecutionError


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """The result of executing one (sub-)query.

    Slotted and pickled as its field tuple, like the cells it holds
    (:func:`~repro.tables.values.pickles_as_fields`).

    Attributes
    ----------
    kind:
        Whether the query produced records, values or a scalar.
    record_indices:
        For RECORDS results, the indices of the selected records.
    cells:
        The operator's output cells — the ``PO`` set of Table 10 (without
        the aggregate-function markers, which are listed separately).
    values:
        The answer values.  For RECORDS results this is empty; for VALUES
        results it is the multiset of output cell values (plus literal
        values with no backing cell); for SCALAR results it is a single
        value.
    aggregates:
        Names of aggregate/arithmetic functions applied at this node
        (``{AGGR}`` in the provenance model).
    """

    kind: ResultKind
    record_indices: FrozenSet[int] = frozenset()
    cells: Tuple[Cell, ...] = ()
    values: Tuple[Value, ...] = ()
    aggregates: Tuple[str, ...] = ()

    # -- answer interface -----------------------------------------------------
    def answer_values(self) -> Tuple[Value, ...]:
        """The values this result denotes as an *answer* to a question."""
        return self.values

    def answer_set(self) -> FrozenSet[Value]:
        return frozenset(self.values)

    def answer_strings(self) -> Tuple[str, ...]:
        return tuple(value.display() for value in self.values)

    @property
    def is_empty(self) -> bool:
        if self.kind == ResultKind.RECORDS:
            return not self.record_indices
        return not self.values

    def scalar(self) -> Value:
        if self.kind != ResultKind.SCALAR or not self.values:
            raise ExecutionError("result is not a scalar")
        return self.values[0]


def _match_key(value: Value):
    """A hashable key whose equality *implies* ``values_equal``.

    Used by the :func:`answers_match` fast path: two values with equal
    keys are always ``values_equal`` (normalised text for strings, the
    component triple for dates, a 1e-9-rounded float for numbers — well
    inside the ``isclose`` tolerance).  The converse does not hold
    (cross-type equality, tolerance edges), which is why unequal key
    multisets still fall back to the pairwise comparison.
    """
    if isinstance(value, StringValue):
        return ("str", value.normalized)
    if isinstance(value, NumberValue):
        return ("num", round(value.number, 9))
    if isinstance(value, DateValue):
        return ("date", value.year, value.month, value.day)
    return ("other", value)


def answers_match(left: Sequence[Value], right: Sequence[Value]) -> bool:
    """Order-insensitive answer comparison with cross-type value equality."""
    remaining = list(right)
    if len(left) != len(remaining):
        # Fall back to set semantics: duplicated values in one answer are
        # tolerated as long as the distinct values coincide.
        left_set, right_set = list(dict.fromkeys(left)), list(dict.fromkeys(right))
        if len(left_set) != len(right_set):
            return False
        left, remaining = left_set, right_set
    # Fast path: identical key multisets admit a perfect same-type
    # matching, so the quadratic pairwise search below is redundant.
    if Counter(map(_match_key, left)) == Counter(map(_match_key, remaining)):
        return True
    for value in left:
        for i, other in enumerate(remaining):
            if values_equal(value, other):
                del remaining[i]
                break
        else:
            return False
    return True


class Executor:
    """Executes lambda DCS queries against one table.

    With ``use_index=True`` (the default) the hot operators — column
    selections, ordered comparisons, superlatives and the value
    aggregations built on them — answer from the content-addressed
    :class:`~repro.tables.index.TableIndex` via hash and bisect lookups
    instead of scanning every row.  ``use_index=False`` keeps the plain
    row-scan reference path; the two are bit-identical (property-tested
    in ``tests/test_property_based.py``).
    """

    def __init__(self, table: Table, use_index: bool = True) -> None:
        self.table = table
        self._index = table_index(table) if use_index else None

    # -- index helpers ---------------------------------------------------------
    def _equal_rows(self, column: str, targets: Sequence[Value]) -> List[int]:
        """Sorted rows of ``column`` whose cell equals any of ``targets``.

        Probes the column index for candidate rows (a guaranteed
        superset) and confirms each with ``values_equal``, so the result
        is exactly the set a full scan would select.
        """
        cells = self.table.column_cells(column)
        index = self._index.column(column)
        rows = set()
        for target in targets:
            for row in index.equality_candidates(target):
                if row not in rows and values_equal(cells[row].value, target):
                    rows.add(row)
        return sorted(rows)

    # -- public entry point ----------------------------------------------------
    def execute(self, query: Query) -> ExecutionResult:
        method = getattr(self, f"_execute_{type(query).__name__}", None)
        if method is None:
            raise ExecutionError(f"no execution rule for {type(query).__name__}")
        return method(query)

    # -- leaves ----------------------------------------------------------------
    def _execute_ValueLiteral(self, query: ast.ValueLiteral) -> ExecutionResult:
        return ExecutionResult(kind=ResultKind.VALUES, values=(query.value,))

    def _execute_AllRecords(self, query: ast.AllRecords) -> ExecutionResult:
        indices = frozenset(range(self.table.num_rows))
        return ExecutionResult(kind=ResultKind.RECORDS, record_indices=indices)

    # -- record operators --------------------------------------------------------
    def _execute_ColumnRecords(self, query: ast.ColumnRecords) -> ExecutionResult:
        targets = self.execute(query.value).values
        self._check_column(query.column)
        column_cells = self.table.column_cells(query.column)
        if self._index is not None:
            cells = [column_cells[row] for row in self._equal_rows(query.column, targets)]
        else:
            cells = [
                cell
                for cell in column_cells
                if any(values_equal(cell.value, target) for target in targets)
            ]
        return ExecutionResult(
            kind=ResultKind.RECORDS,
            record_indices=frozenset(cell.row_index for cell in cells),
            cells=tuple(cells),
        )

    def _execute_ComparisonRecords(self, query: ast.ComparisonRecords) -> ExecutionResult:
        operand = self.execute(query.value)
        if len(operand.values) != 1:
            raise ExecutionError("comparison requires exactly one reference value")
        reference = operand.values[0]
        self._check_column(query.column)
        column_cells = self.table.column_cells(query.column)
        if self._index is not None:
            if query.op == ComparisonOperator.NE:
                equal = set(self._equal_rows(query.column, (reference,)))
                rows: List[int] = [
                    row for row in range(self.table.num_rows) if row not in equal
                ]
            else:
                rows = self._index.column(query.column).ordered_rows(
                    query.op.value, reference
                )
            cells = [column_cells[row] for row in rows]
        else:
            cells = [
                cell
                for cell in column_cells
                if _compare(cell.value, query.op, reference)
            ]
        return ExecutionResult(
            kind=ResultKind.RECORDS,
            record_indices=frozenset(cell.row_index for cell in cells),
            cells=tuple(cells),
        )

    def _execute_PrevRecords(self, query: ast.PrevRecords) -> ExecutionResult:
        base = self.execute(query.records)
        indices = frozenset(i - 1 for i in base.record_indices if i - 1 >= 0)
        return ExecutionResult(kind=ResultKind.RECORDS, record_indices=indices)

    def _execute_NextRecords(self, query: ast.NextRecords) -> ExecutionResult:
        base = self.execute(query.records)
        limit = self.table.num_rows
        indices = frozenset(i + 1 for i in base.record_indices if i + 1 < limit)
        return ExecutionResult(kind=ResultKind.RECORDS, record_indices=indices)

    def _execute_Intersection(self, query: ast.Intersection) -> ExecutionResult:
        left = self.execute(query.left)
        right = self.execute(query.right)
        indices = left.record_indices & right.record_indices
        cells = tuple(
            cell
            for cell in left.cells + right.cells
            if cell.row_index in indices
        )
        return ExecutionResult(
            kind=ResultKind.RECORDS, record_indices=frozenset(indices), cells=cells
        )

    def _execute_JoinRecords(self, query: ast.JoinRecords) -> ExecutionResult:
        raise ExecutionError(
            "join-records spans two tables; execute it with "
            "repro.compose.ComposedExecutor(primary, secondary)"
        )

    def _execute_SuperlativeRecords(self, query: ast.SuperlativeRecords) -> ExecutionResult:
        base = self.execute(query.records)
        self._check_column(query.column)
        column_cells = self.table.column_cells(query.column)
        candidates = [column_cells[i] for i in sorted(base.record_indices)]
        if not candidates:
            return ExecutionResult(kind=ResultKind.RECORDS)
        extreme = _extreme_value(
            [cell.value for cell in candidates], query.kind
        )
        if self._index is not None:
            winners = [
                column_cells[row]
                for row in self._equal_rows(query.column, (extreme,))
                if row in base.record_indices
            ]
        else:
            winners = [cell for cell in candidates if values_equal(cell.value, extreme)]
        indices = frozenset(cell.row_index for cell in winners)
        return ExecutionResult(
            kind=ResultKind.RECORDS, record_indices=indices, cells=tuple(winners)
        )

    def _execute_FirstLastRecords(self, query: ast.FirstLastRecords) -> ExecutionResult:
        base = self.execute(query.records)
        if not base.record_indices:
            return ExecutionResult(kind=ResultKind.RECORDS)
        picker = max if query.kind == SuperlativeKind.ARGMAX else min
        chosen = picker(base.record_indices)
        return ExecutionResult(
            kind=ResultKind.RECORDS, record_indices=frozenset({chosen})
        )

    # -- value operators -----------------------------------------------------------
    def _execute_ColumnValues(self, query: ast.ColumnValues) -> ExecutionResult:
        base = self.execute(query.records)
        self._check_column(query.column)
        column_cells = self.table.column_cells(query.column)
        cells = tuple(column_cells[i] for i in sorted(base.record_indices))
        return ExecutionResult(
            kind=ResultKind.VALUES,
            cells=cells,
            values=tuple(cell.value for cell in cells),
        )

    def _execute_Union(self, query: ast.Union) -> ExecutionResult:
        left = self.execute(query.left)
        right = self.execute(query.right)
        if query.result_kind == ResultKind.RECORDS:
            indices = left.record_indices | right.record_indices
            return ExecutionResult(
                kind=ResultKind.RECORDS,
                record_indices=frozenset(indices),
                cells=left.cells + right.cells,
            )
        values = list(left.values)
        for value in right.values:
            if not any(values_equal(value, existing) for existing in values):
                values.append(value)
        return ExecutionResult(
            kind=ResultKind.VALUES,
            cells=left.cells + right.cells,
            values=tuple(values),
        )

    def _execute_IndexSuperlative(self, query: ast.IndexSuperlative) -> ExecutionResult:
        base = self.execute(query.records)
        self._check_column(query.column)
        if not base.record_indices:
            return ExecutionResult(kind=ResultKind.VALUES)
        picker = max if query.kind == SuperlativeKind.ARGMAX else min
        chosen = picker(base.record_indices)
        cell = self.table.cell(chosen, query.column)
        return ExecutionResult(
            kind=ResultKind.VALUES, cells=(cell,), values=(cell.value,)
        )

    def _execute_MostCommonValue(self, query: ast.MostCommonValue) -> ExecutionResult:
        raw_candidates = self.execute(query.values).values
        candidates: List[Value] = []
        for candidate in raw_candidates:
            if not any(values_equal(candidate, existing) for existing in candidates):
                candidates.append(candidate)
        self._check_column(query.column)
        column_cells = self.table.column_cells(query.column)
        counts: List[Tuple[Value, int, List[Cell]]] = []
        for candidate in candidates:
            if self._index is not None:
                matching = [
                    column_cells[row]
                    for row in self._equal_rows(query.column, (candidate,))
                ]
            else:
                matching = [
                    cell for cell in column_cells if values_equal(cell.value, candidate)
                ]
            counts.append((candidate, len(matching), matching))
        counts = [entry for entry in counts if entry[1] > 0]
        if not counts:
            return ExecutionResult(kind=ResultKind.VALUES)
        best_count = (
            max(entry[1] for entry in counts)
            if query.kind == SuperlativeKind.ARGMAX
            else min(entry[1] for entry in counts)
        )
        winners = [entry for entry in counts if entry[1] == best_count]
        values = tuple(entry[0] for entry in winners)
        cells = tuple(cell for entry in winners for cell in entry[2])
        return ExecutionResult(kind=ResultKind.VALUES, cells=cells, values=values)

    def _execute_CompareValues(self, query: ast.CompareValues) -> ExecutionResult:
        candidates = self.execute(query.values).values
        self._check_column(query.key_column)
        self._check_column(query.value_column)
        value_cells = self.table.column_cells(query.value_column)
        key_cells = self.table.column_cells(query.key_column)
        if self._index is not None:
            scored: List[Tuple[Cell, Value]] = [
                (value_cells[row], key_cells[row].value)
                for row in self._equal_rows(query.value_column, candidates)
            ]
        else:
            scored = []
            for cell in value_cells:
                if any(values_equal(cell.value, candidate) for candidate in candidates):
                    scored.append((cell, key_cells[cell.row_index].value))
        if not scored:
            return ExecutionResult(kind=ResultKind.VALUES)
        extreme = _extreme_value([key for _, key in scored], query.kind)
        winners = [cell for cell, key in scored if values_equal(key, extreme)]
        # Deduplicate equal display values while keeping every witness cell.
        values: List[Value] = []
        for cell in winners:
            if not any(values_equal(cell.value, existing) for existing in values):
                values.append(cell.value)
        return ExecutionResult(
            kind=ResultKind.VALUES, cells=tuple(winners), values=tuple(values)
        )

    # -- scalar operators ------------------------------------------------------------
    def _execute_Aggregate(self, query: ast.Aggregate) -> ExecutionResult:
        operand = self.execute(query.operand)
        function = query.function
        if function == AggregateFunction.COUNT:
            if operand.kind == ResultKind.RECORDS:
                count = len(operand.record_indices)
                cells = operand.cells
            else:
                count = len(operand.values)
                cells = operand.cells
            return ExecutionResult(
                kind=ResultKind.SCALAR,
                cells=cells,
                values=(NumberValue(float(count)),),
                aggregates=(function.value,),
            )
        values = operand.values
        if not values:
            raise ExecutionError(f"{function.value} over an empty value set")
        if function in (AggregateFunction.MIN, AggregateFunction.MAX):
            kind = (
                SuperlativeKind.ARGMAX
                if function == AggregateFunction.MAX
                else SuperlativeKind.ARGMIN
            )
            extreme = _extreme_value(list(values), kind)
            cells = tuple(
                cell for cell in operand.cells if values_equal(cell.value, extreme)
            )
            return ExecutionResult(
                kind=ResultKind.SCALAR,
                cells=cells or operand.cells,
                values=(extreme,),
                aggregates=(function.value,),
            )
        numbers = _as_numbers(values, function.value)
        total = sum(numbers)
        result = total if function == AggregateFunction.SUM else total / len(numbers)
        return ExecutionResult(
            kind=ResultKind.SCALAR,
            cells=operand.cells,
            values=(NumberValue(result),),
            aggregates=(function.value,),
        )

    def _execute_Difference(self, query: ast.Difference) -> ExecutionResult:
        left = self.execute(query.left)
        right = self.execute(query.right)
        left_number = _single_number(left, "left operand of difference")
        right_number = _single_number(right, "right operand of difference")
        return ExecutionResult(
            kind=ResultKind.SCALAR,
            cells=left.cells + right.cells,
            values=(NumberValue(abs(left_number - right_number)),),
            aggregates=("sub",) + left.aggregates + right.aggregates,
        )

    # -- helpers -------------------------------------------------------------------
    def _check_column(self, column: str) -> None:
        if not self.table.has_column(column):
            raise ExecutionError(
                f"table {self.table.name!r} has no column {column!r}"
            )


def execute(query: Query, table: Table) -> ExecutionResult:
    """Convenience wrapper: execute ``query`` against ``table``."""
    return Executor(table).execute(query)


# ---------------------------------------------------------------------------
# value helpers
# ---------------------------------------------------------------------------


def _compare(cell_value: Value, op: ComparisonOperator, reference: Value) -> bool:
    if op == ComparisonOperator.NE:
        return not values_equal(cell_value, reference)
    try:
        left = cell_value.as_number() if cell_value.is_numeric else None
        right = reference.as_number() if reference.is_numeric else None
    except Exception:  # pragma: no cover - defensive
        left = right = None
    if left is not None and right is not None:
        pairs = {
            ComparisonOperator.GT: left > right,
            ComparisonOperator.GE: left >= right,
            ComparisonOperator.LT: left < right,
            ComparisonOperator.LE: left <= right,
        }
        return pairs[op]
    # Fall back to the total order over sort keys (dates, strings).
    key_left, key_right = cell_value.sort_key(), reference.sort_key()
    if key_left[0] != key_right[0]:
        return False
    pairs = {
        ComparisonOperator.GT: key_left > key_right,
        ComparisonOperator.GE: key_left >= key_right,
        ComparisonOperator.LT: key_left < key_right,
        ComparisonOperator.LE: key_left <= key_right,
    }
    return pairs[op]


def _extreme_value(values: List[Value], kind: SuperlativeKind) -> Value:
    if not values:
        raise ExecutionError("superlative over an empty set")
    picker = max if kind == SuperlativeKind.ARGMAX else min
    return picker(values, key=lambda value: value.sort_key())


def _as_numbers(values: Sequence[Value], context: str) -> List[float]:
    numbers = []
    for value in values:
        if not value.is_numeric:
            raise ExecutionError(f"{context} requires numeric values, got {value.display()!r}")
        numbers.append(value.as_number())
    return numbers


def _single_number(result: ExecutionResult, context: str) -> float:
    values = result.values
    if len(values) != 1:
        raise ExecutionError(f"{context} must produce exactly one value, got {len(values)}")
    value = values[0]
    if not value.is_numeric:
        raise ExecutionError(f"{context} must be numeric, got {value.display()!r}")
    return value.as_number()
