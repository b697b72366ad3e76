"""Floating-grammar candidate generation.

The parser of Zhang et al. 2017 builds candidate lambda DCS queries by
composing grammar rules anchored on phrases of the question (entity and
column links) plus "floating" rules that are not anchored on any phrase.
This module reproduces that candidate space for the operator inventory of
the paper: starting from the lexical analysis of the question it derives

* base record sets (joins, comparisons),
* composed record sets (intersection, superlatives, previous/next rows,
  first/last rows),
* value projections and value-level superlatives,
* scalar aggregates and arithmetic differences.

The generator deliberately over-generates (that is the point of the paper:
the top-ranked candidate is frequently wrong, and users pick the right one
from the top-k list); ranking happens in :mod:`repro.parser.candidates`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..tables.schema import TableSchema, infer_schema
from ..tables.table import Table
from ..tables.values import Value
from ..dcs import ast, builder as q
from ..dcs.ast import ComparisonOperator, Query, SuperlativeKind
from ..dcs.sexpr import to_sexpr
from .lexicon import LexicalAnalysis, Lexicon


@dataclass
class GenerationConfig:
    """Knobs bounding the size of the candidate space."""

    max_base_records: int = 40
    max_record_sets: int = 120
    max_value_queries: int = 250
    max_candidates: int = 600
    comparison_operators: Tuple[ComparisonOperator, ...] = (
        ComparisonOperator.GT,
        ComparisonOperator.GE,
        ComparisonOperator.LT,
        ComparisonOperator.LE,
    )
    enable_intersection: bool = True
    enable_neighbors: bool = True
    enable_superlatives: bool = True
    enable_difference: bool = True
    enable_most_common: bool = True
    enable_compare_values: bool = True


class CandidateGrammar:
    """Generates the candidate query space for one question over one table.

    A grammar is built once per table and shared by every thread parsing
    over it, so it holds no per-question state: :meth:`keyed` hands one
    generation call a view that deduplicates by that call's composed
    s-expressions.
    """

    #: How deduplication keys a query (see :meth:`keyed`).
    _sexpr: Callable[[Query], str] = staticmethod(to_sexpr)

    def __init__(self, table: Table, config: Optional[GenerationConfig] = None) -> None:
        self.table = table
        self.schema: TableSchema = infer_schema(table)
        self.config = config or GenerationConfig()

    def keyed(self, sexpr: Callable[[Query], str]) -> "CandidateGrammar":
        """A view of this grammar whose deduplication reads ``sexpr``.

        The parser passes its per-call node facts, so a sub-tree shared by
        many candidates is serialized once instead of once per candidate
        that embeds it.  The view shares the table, schema and config.
        """
        view = copy.copy(self)
        view._sexpr = sexpr
        return view

    # -- public API -----------------------------------------------------------
    def generate(self, analysis: LexicalAnalysis) -> List[Query]:
        """All candidate queries for the analysed question (deduplicated).

        Only value- and scalar-producing queries are returned (a question's
        answer is a set of values or a number); record-producing queries
        appear as sub-queries of those candidates.  Differences are emitted
        before the bulk of counts/aggregates so the candidate cap never
        drops them.
        """
        records = self._record_sets(analysis)
        values = self._value_queries(analysis, records)
        differences = (
            self._difference_queries(analysis) if self.config.enable_difference else []
        )
        scalars = self._scalar_queries(analysis, records, values)
        candidates = values + differences + scalars
        return _dedupe(candidates, self._sexpr)[: self.config.max_candidates]

    # -- record sets -------------------------------------------------------------
    def _base_record_sets(self, analysis: LexicalAnalysis) -> List[Query]:
        base: List[Query] = []
        for column, value in analysis.matched_entities():
            base.append(q.column_records(column, value))
        # Unions of two entities matched in the same column ("China or Greece").
        by_column: Dict[str, List[Value]] = {}
        for column, value in analysis.matched_entities():
            by_column.setdefault(column, []).append(value)
        for column, column_values in by_column.items():
            for left, right in combinations(column_values, 2):
                base.append(q.column_records(column, q.union(left, right)))
        # Numeric comparisons against numbers mentioned in the question.
        comparison_columns = self._comparison_columns(analysis)
        for number in analysis.numbers:
            for column in comparison_columns:
                for op in self.config.comparison_operators:
                    base.append(q.comparison_records(column, op, number.value))
        return _dedupe(base, self._sexpr)[: self.config.max_base_records]

    def _record_sets(self, analysis: LexicalAnalysis) -> List[Query]:
        base = self._base_record_sets(analysis)
        records: List[Query] = [q.all_records()] + list(base)

        if self.config.enable_intersection:
            for left, right in combinations(base, 2):
                if _joins_same_column(left, right):
                    continue
                records.append(q.intersection(left, right))

        if self.config.enable_superlatives:
            for column in self.schema.comparable_columns:
                records.append(q.argmax_records(column))
                records.append(q.argmin_records(column))
            for record_set in base:
                for column in self.schema.comparable_columns:
                    if column in record_set.columns():
                        continue
                    records.append(
                        ast.SuperlativeRecords(SuperlativeKind.ARGMAX, column, record_set)
                    )
                    records.append(
                        ast.SuperlativeRecords(SuperlativeKind.ARGMIN, column, record_set)
                    )
            records.append(q.first_record())
            records.append(q.last_record())
            for record_set in base:
                records.append(q.first_record(record_set))
                records.append(q.last_record(record_set))

        if self.config.enable_neighbors:
            for record_set in base:
                records.append(q.prev_records(record_set))
                records.append(q.next_records(record_set))

        return _dedupe(records, self._sexpr)[: self.config.max_record_sets]

    # -- value queries --------------------------------------------------------------
    def _value_queries(self, analysis: LexicalAnalysis, records: Sequence[Query]) -> List[Query]:
        projection_columns = self._projection_columns(analysis)
        values: List[Query] = []
        for record_set in records:
            if isinstance(record_set, ast.AllRecords):
                continue
            for column in projection_columns:
                if column in _join_columns(record_set):
                    continue
                values.append(q.column_values(column, record_set))
        # Whole-column projections feed the sum/avg/max/min aggregates.
        for column in self._mentioned_columns(analysis) or list(self.table.columns):
            values.append(q.column_values(column, q.all_records()))

        if self.config.enable_most_common:
            for column in self._mentioned_columns(analysis) or list(self.table.columns):
                values.append(q.most_common(column))

        if self.config.enable_compare_values:
            values.extend(self._compare_value_queries(analysis))

        return _dedupe(values, self._sexpr)[: self.config.max_value_queries]

    def _compare_value_queries(self, analysis: LexicalAnalysis) -> List[Query]:
        queries: List[Query] = []
        by_column: Dict[str, List[Value]] = {}
        for column, value in analysis.matched_entities():
            by_column.setdefault(column, []).append(value)
        key_columns = self._mentioned_comparable_columns(analysis) or self.schema.comparable_columns
        for value_column, column_values in by_column.items():
            if len(column_values) < 2:
                continue
            for left, right in combinations(column_values, 2):
                candidates = q.union(left, right)
                for key_column in key_columns:
                    if key_column == value_column:
                        continue
                    queries.append(q.compare_values(key_column, value_column, candidates))
                    queries.append(
                        q.compare_values(
                            key_column, value_column, candidates, kind=SuperlativeKind.ARGMIN
                        )
                    )
        # "between values in column X, who has the highest value of column Y"
        for value_column in self.schema.textual_columns:
            all_values = q.column_values(value_column, q.all_records())
            for key_column in key_columns:
                if key_column == value_column:
                    continue
                queries.append(q.compare_values(key_column, value_column, all_values))
                queries.append(
                    q.compare_values(
                        key_column, value_column, all_values, kind=SuperlativeKind.ARGMIN
                    )
                )
        return queries

    # -- scalar queries ---------------------------------------------------------------
    def _scalar_queries(
        self,
        analysis: LexicalAnalysis,
        records: Sequence[Query],
        values: Sequence[Query],
    ) -> List[Query]:
        scalars: List[Query] = []
        for record_set in records:
            if isinstance(record_set, ast.AllRecords):
                continue
            scalars.append(q.count(record_set))

        numeric_columns = set(self.schema.numeric_columns)
        for value_query in values:
            if not isinstance(value_query, ast.ColumnValues):
                continue
            if value_query.column in numeric_columns:
                scalars.append(q.max_(value_query))
                scalars.append(q.min_(value_query))
                scalars.append(q.sum_(value_query))
                scalars.append(q.avg(value_query))
            elif value_query.column in self.schema.date_columns:
                scalars.append(q.max_(value_query))
                scalars.append(q.min_(value_query))
        return scalars

    def _difference_queries(self, analysis: LexicalAnalysis) -> List[Query]:
        queries: List[Query] = []
        by_column: Dict[str, List[Value]] = {}
        for column, value in analysis.matched_entities():
            by_column.setdefault(column, []).append(value)
        numeric_columns = self._mentioned_numeric_columns(analysis) or self.schema.numeric_columns
        for where_column, column_values in by_column.items():
            for left, right in combinations(column_values, 2):
                # Difference of value occurrences.
                queries.append(q.count_difference(where_column, left, right))
                queries.append(q.count_difference(where_column, right, left))
                # Difference of values in a numeric column.
                for value_column in numeric_columns:
                    if value_column == where_column:
                        continue
                    queries.append(
                        q.value_difference(value_column, where_column, left, right)
                    )
                    queries.append(
                        q.value_difference(value_column, where_column, right, left)
                    )
        return queries

    # -- column selection helpers --------------------------------------------------
    def _mentioned_columns(self, analysis: LexicalAnalysis) -> List[str]:
        return analysis.matched_columns()

    def _projection_columns(self, analysis: LexicalAnalysis) -> List[str]:
        mentioned = analysis.matched_columns()
        ordered = list(mentioned)
        for column in self.table.columns:
            if column not in ordered:
                ordered.append(column)
        return ordered

    def _comparison_columns(self, analysis: LexicalAnalysis) -> List[str]:
        mentioned = [
            column
            for column in analysis.matched_columns()
            if column in self.schema.comparable_columns
        ]
        return mentioned or self.schema.numeric_columns

    def _mentioned_numeric_columns(self, analysis: LexicalAnalysis) -> List[str]:
        return [
            column
            for column in analysis.matched_columns()
            if column in self.schema.numeric_columns
        ]

    def _mentioned_comparable_columns(self, analysis: LexicalAnalysis) -> List[str]:
        return [
            column
            for column in analysis.matched_columns()
            if column in self.schema.comparable_columns
        ]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _dedupe(queries: Iterable[Query], sexpr: Callable[[Query], str]) -> List[Query]:
    seen: Set[str] = set()
    unique: List[Query] = []
    for query in queries:
        key = sexpr(query)
        if key not in seen:
            seen.add(key)
            unique.append(query)
    return unique


def _join_columns(query: Query) -> Set[str]:
    """Columns used as selection (join) columns anywhere in a record query."""
    columns: Set[str] = set()
    for node in query.walk():
        if isinstance(node, (ast.ColumnRecords, ast.ComparisonRecords)):
            columns.add(node.column)
    return columns


def _joins_same_column(left: Query, right: Query) -> bool:
    return bool(_join_columns(left) & _join_columns(right))
