"""Query-to-utterance explanations (paper Section 5.1).

Every lambda DCS operator carries an NL template (the right-hand sides of
the grammar in Table 3).  An utterance for a query is derived recursively,
bottom-up, exactly like the query itself is derived by the parser's CFG
(Figure 3): the utterance of a composite operator embeds the utterances of
its sub-queries.

Besides the flat utterance string, :func:`derive` also returns the full
derivation tree so that callers can display Figure 3-style side-by-side
parse/utterance trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from ..dcs import ast
from ..dcs.ast import (
    AggregateFunction,
    ComparisonOperator,
    Query,
    ResultKind,
    SuperlativeKind,
)


@dataclass(frozen=True)
class DerivationNode:
    """One node of the utterance derivation tree (Figure 3b)."""

    category: str
    text: str
    query: Query
    children: Tuple["DerivationNode", ...] = ()

    def pretty(self, indent: int = 0) -> str:
        lines = [f"{'  ' * indent}({self.category}) {self.text}"]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


@dataclass(frozen=True)
class UtteranceResult:
    """The utterance of a query plus its derivation tree."""

    utterance: str
    derivation: DerivationNode


_TEXT = attrgetter("text")

_CATEGORY = {
    ResultKind.RECORDS: "Records",
    ResultKind.VALUES: "Values",
    ResultKind.SCALAR: "Entity",
}

_COMPARISON_PHRASES = {
    ComparisonOperator.GT: "are more than",
    ComparisonOperator.GE: "are at least",
    ComparisonOperator.LT: "are less than",
    ComparisonOperator.LE: "are at most",
    ComparisonOperator.NE: "are not",
}

_AGGREGATE_PHRASES = {
    AggregateFunction.MAX: "maximum of",
    AggregateFunction.MIN: "minimum of",
    AggregateFunction.SUM: "the sum of",
    AggregateFunction.AVG: "the average of",
}


def utterance(query: Query) -> str:
    """The NL utterance describing ``query`` (the yield of the derivation tree)."""
    return derive(query).utterance


def derive(query: Query) -> UtteranceResult:
    """Derive the utterance and the derivation tree for ``query``."""
    node = _derive(query)
    return UtteranceResult(utterance=node.text, derivation=node)


# ---------------------------------------------------------------------------
# recursive derivation
# ---------------------------------------------------------------------------


def _derive(query: Query) -> DerivationNode:
    template = _template(query)
    children = tuple(map(_derive, query.children()))
    text = template(query, *map(_TEXT, children))
    category = "Entity" if isinstance(query, ast.ValueLiteral) else _CATEGORY[query.result_kind]
    return DerivationNode(category=category, text=text, query=query, children=children)


def compose_utterance(query: Query, children: Sequence[str]) -> str:
    """``query``'s utterance from its children's, in ``children()`` order.

    :func:`utterance` is this applied bottom-up; a caller that already
    holds each child's utterance (the parser's per-call node facts)
    builds a node's without re-deriving its sub-trees.
    """
    return _template(query)(query, *children)


def _template(query: Query):
    template = _TEMPLATES.get(type(query))
    if template is None:
        raise ValueError(f"no utterance template for {type(query).__name__}")
    return template


def _strip_rows_prefix(text: str) -> str:
    """Turn ``rows where ...`` into ``where ...`` for the intersection template."""
    if text.startswith("rows "):
        return text[len("rows "):]
    return text


def _u_first_last_records(query: ast.FirstLastRecords, records: str) -> str:
    position = "last" if query.kind == SuperlativeKind.ARGMAX else "first"
    if isinstance(query.records, ast.AllRecords):
        return f"where it is the {position} row"
    return f"where it is the {position} row in {records}"


def _u_column_values(query: ast.ColumnValues, records: str) -> str:
    if isinstance(query.records, ast.AllRecords):
        return f"values in column {query.column}"
    return f"values in column {query.column} in {records}"


def _u_index_superlative(query: ast.IndexSuperlative, records: str) -> str:
    position = "last" if query.kind == SuperlativeKind.ARGMAX else "first"
    if isinstance(query.records, ast.AllRecords):
        return f"values in column {query.column} in the {position} row"
    return f"values in column {query.column} where it is the {position} row in {records}"


def _u_most_common(query: ast.MostCommonValue, values: str) -> str:
    most_least = "most" if query.kind == SuperlativeKind.ARGMAX else "least"
    operand = query.values
    if isinstance(operand, ast.ColumnValues) and isinstance(operand.records, ast.AllRecords) \
            and operand.column == query.column:
        return f"the value that appears the {most_least} in column {query.column}"
    return (
        f"the value of {values} that appears the {most_least} "
        f"in column {query.column}"
    )


def _u_compare_values(query: ast.CompareValues, values: str) -> str:
    extreme = "highest" if query.kind == SuperlativeKind.ARGMAX else "lowest"
    operand = query.values
    if isinstance(operand, ast.ColumnValues) and isinstance(operand.records, ast.AllRecords) \
            and operand.column == query.value_column:
        return (
            f"between values in column {query.value_column} in rows, who has the "
            f"{extreme} value of column {query.key_column} out of the values in "
            f"{query.value_column}"
        )
    return (
        f"between {values} who has the {extreme} value of column "
        f"{query.key_column} out of the values in {query.value_column}"
    )


def _u_aggregate(query: ast.Aggregate, operand: str) -> str:
    if query.function == AggregateFunction.COUNT:
        return f"the number of {operand}"
    return f"{_AGGREGATE_PHRASES[query.function]} {operand}"


def _u_difference(query: ast.Difference, left: str, right: str) -> str:
    special = _difference_special_case(query)
    if special is not None:
        return special
    return f"the difference between {left} and {right}"


def _difference_special_case(query: ast.Difference) -> Optional[str]:
    """The two difference templates of Table 3."""
    left, right = query.left, query.right
    # Difference of values: sub(R[C1].C2.v, R[C1].C2.u)
    if (
        isinstance(left, ast.ColumnValues)
        and isinstance(right, ast.ColumnValues)
        and left.column == right.column
        and isinstance(left.records, ast.ColumnRecords)
        and isinstance(right.records, ast.ColumnRecords)
        and left.records.column == right.records.column
        and isinstance(left.records.value, ast.ValueLiteral)
        and isinstance(right.records.value, ast.ValueLiteral)
    ):
        return (
            f"difference in values of column {left.column} between rows where "
            f"value of column {left.records.column} is "
            f"{left.records.value.value.display()} and "
            f"{right.records.value.value.display()}"
        )
    # Difference of value occurrences: sub(count(C.v), count(C.u))
    if (
        isinstance(left, ast.Aggregate)
        and isinstance(right, ast.Aggregate)
        and left.function == AggregateFunction.COUNT
        and right.function == AggregateFunction.COUNT
        and isinstance(left.operand, ast.ColumnRecords)
        and isinstance(right.operand, ast.ColumnRecords)
        and left.operand.column == right.operand.column
        and isinstance(left.operand.value, ast.ValueLiteral)
        and isinstance(right.operand.value, ast.ValueLiteral)
    ):
        return (
            f"in column {left.operand.column}, what is the difference between "
            f"rows with value {left.operand.value.value.display()} and rows with "
            f"value {right.operand.value.value.display()}"
        )
    return None


#: Each node class's utterance, given its children's.
_TEMPLATES = {
    ast.ValueLiteral: lambda query: query.value.display(),
    ast.AllRecords: lambda query: "rows",
    ast.ColumnRecords: lambda query, value: (
        f"rows where value of column {query.column} is {value}"
    ),
    ast.ComparisonRecords: lambda query, value: (
        f"rows where values of column {query.column} "
        f"{_COMPARISON_PHRASES[query.op]} {value}"
    ),
    ast.PrevRecords: lambda query, records: f"rows right above {records}",
    ast.NextRecords: lambda query, records: f"rows right below {records}",
    ast.Intersection: lambda query, left, right: (
        f"{left} and also {_strip_rows_prefix(right)}"
    ),
    ast.Union: lambda query, left, right: f"{left} or {right}",
    ast.SuperlativeRecords: lambda query, records: (
        f"{records} that have the "
        f"{'highest' if query.kind == SuperlativeKind.ARGMAX else 'lowest'} "
        f"value in column {query.column}"
    ),
    ast.FirstLastRecords: _u_first_last_records,
    ast.ColumnValues: _u_column_values,
    ast.IndexSuperlative: _u_index_superlative,
    ast.MostCommonValue: _u_most_common,
    ast.CompareValues: _u_compare_values,
    ast.Aggregate: _u_aggregate,
    ast.Difference: _u_difference,
}
