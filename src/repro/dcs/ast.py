"""The lambda DCS abstract syntax tree.

Section 3.2 of the paper defines a simplified lambda DCS over single web
tables.  Every operator of the paper's Table 10 is represented by a node
class here:

=========================  ==================================================
Paper operator             AST node
=========================  ==================================================
``C.v`` (column records)   :class:`ColumnRecords`
``R[C].records``           :class:`ColumnValues`
``R[C].Prev.records``      :class:`ColumnValues` over :class:`PrevRecords`
``R[C].R[Prev].records``   :class:`ColumnValues` over :class:`NextRecords`
``aggr(vals)``             :class:`Aggregate`
``sub(vals, vals)``        :class:`Difference`
``sub(count(C.v), ...)``   :class:`Difference` over :class:`Aggregate`
``vals ⊔ vals``            :class:`Union`
``records ⊓ records``      :class:`Intersection`
``argmax(Record, C.x)``    :class:`SuperlativeRecords`
``R[C].argmax(recs, Idx)`` :class:`IndexSuperlative`
``argmax(vals, count)``    :class:`MostCommonValue`
``argmax(vals, R[C1].C2)`` :class:`CompareValues`
comparisons (>, >=, ...)   :class:`ComparisonRecords`
entity constant            :class:`ValueLiteral`
``Record`` (all rows)      :class:`AllRecords`
=========================  ==================================================

Every node reports its :class:`ResultKind` (records, values or scalar) and
its children, so that the executor, the SQL translator, the provenance
engine and the utterance generator can all walk the same tree.

Nodes are frozen slotted dataclasses, like the table model's cells and
values: no attribute dict (so no ad-hoc attribute or
``cached_property``), and each concrete class pickles as its field tuple
(:func:`~repro.tables.values.pickles_as_fields`), refusing the dict
state an older pickle carries.  :class:`Query` keeps one slot for weak
references.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, Tuple

from ..tables.values import Value, pickles_as_fields
from .errors import QueryTypeError


class ResultKind(Enum):
    """What a (sub-)query evaluates to."""

    RECORDS = "records"
    VALUES = "values"
    SCALAR = "scalar"


class AggregateFunction(Enum):
    """The aggregate functions of the paper's ``aggrs`` set."""

    COUNT = "count"
    MIN = "min"
    MAX = "max"
    SUM = "sum"
    AVG = "avg"


class SuperlativeKind(Enum):
    ARGMAX = "argmax"
    ARGMIN = "argmin"


class ComparisonOperator(Enum):
    GT = ">"
    GE = ">="
    LT = "<"
    LE = "<="
    NE = "!="


@dataclass(frozen=True)
class Query:
    """Base class of all lambda DCS nodes."""

    # Declared here rather than through ``slots=True``, which cannot add
    # a weak-reference slot before Python 3.11.
    __slots__ = ("__weakref__",)

    def children(self) -> Tuple["Query", ...]:
        return ()

    @property
    def result_kind(self) -> ResultKind:
        raise NotImplementedError

    @property
    def operator_name(self) -> str:
        """Short operator name used by features, rendering and statistics."""
        return type(self).__name__

    def walk(self) -> Iterator["Query"]:
        """Depth-first pre-order traversal of the query tree (self included)."""
        yield self
        for child in self.children():
            yield from child.walk()

    def subqueries(self) -> Tuple["Query", ...]:
        """``QSUB``: every proper sub-query of this query."""
        return tuple(node for node in self.walk() if node is not self)

    def columns(self) -> Tuple[str, ...]:
        """Every column mentioned anywhere in the query, in traversal order."""
        seen = []
        for node in self.walk():
            for column in getattr(node, "_own_columns", lambda: ())():
                if column not in seen:
                    seen.append(column)
        return tuple(seen)

    def depth(self) -> int:
        children = self.children()
        if not children:
            return 1
        return 1 + max(child.depth() for child in children)

    def size(self) -> int:
        return sum(1 for _ in self.walk())

    def _own_columns(self) -> Tuple[str, ...]:
        return ()


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class ValueLiteral(Query):
    """An entity constant (a unary containing a single value), e.g. ``Greece``."""

    value: Value

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.VALUES

    def __repr__(self) -> str:
        return f"ValueLiteral({self.value.display()!r})"


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class AllRecords(Query):
    """The ``Record`` unary: every record of the table."""

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.RECORDS


# ---------------------------------------------------------------------------
# Record-producing operators
# ---------------------------------------------------------------------------


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class ColumnRecords(Query):
    """``C.v`` — records whose column ``C`` equals value ``v``.

    The value operand is a VALUES query; in the common case it is a
    :class:`ValueLiteral`, but a union of literals (``C.(v ⊔ u)``) is also
    allowed and selects records matching any of the values.
    """

    column: str
    value: Query

    def __post_init__(self):
        _require(self.value, ResultKind.VALUES, "ColumnRecords.value")

    def children(self) -> Tuple[Query, ...]:
        return (self.value,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.RECORDS

    def _own_columns(self) -> Tuple[str, ...]:
        return (self.column,)


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class ComparisonRecords(Query):
    """Records whose column value compares against a constant.

    E.g. *rows where values of column Games are more than 4* is
    ``ComparisonRecords("Games", GT, ValueLiteral(4))`` (Figure 4).
    """

    column: str
    op: ComparisonOperator
    value: Query

    def __post_init__(self):
        _require(self.value, ResultKind.VALUES, "ComparisonRecords.value")

    def children(self) -> Tuple[Query, ...]:
        return (self.value,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.RECORDS

    def _own_columns(self) -> Tuple[str, ...]:
        return (self.column,)


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class PrevRecords(Query):
    """``Prev.records`` — the records immediately above the given records."""

    records: Query

    def __post_init__(self):
        _require(self.records, ResultKind.RECORDS, "PrevRecords.records")

    def children(self) -> Tuple[Query, ...]:
        return (self.records,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.RECORDS


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class NextRecords(Query):
    """``R[Prev].records`` — the records immediately below the given records."""

    records: Query

    def __post_init__(self):
        _require(self.records, ResultKind.RECORDS, "NextRecords.records")

    def children(self) -> Tuple[Query, ...]:
        return (self.records,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.RECORDS


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class Intersection(Query):
    """``records1 ⊓ records2`` — records appearing in both operands."""

    left: Query
    right: Query

    def __post_init__(self):
        _require(self.left, ResultKind.RECORDS, "Intersection.left")
        _require(self.right, ResultKind.RECORDS, "Intersection.right")

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.RECORDS


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class JoinRecords(Query):
    """Cross-table bridge — records of the *primary* table whose
    ``left_column`` value matches (``values_equal``) some value of
    ``right_column`` in the given records of the *secondary* table.

    The one node that spans two tables: ``records`` is evaluated against
    the secondary table, everything above this node against the primary.
    Relationally it is a semi-join — ``T1 ⋉ T2`` on
    ``T1.left_column = T2.right_column`` — which keeps the result a
    plain RECORDS set of the primary table, so every single-table
    operator composes above it unchanged.  The single-table
    :class:`~repro.dcs.executor.Executor` rejects it with a clear
    error; execution needs the two-table
    :class:`~repro.compose.ComposedExecutor`.
    """

    left_column: str
    right_column: str
    records: Query

    def __post_init__(self):
        _require(self.records, ResultKind.RECORDS, "JoinRecords.records")

    def children(self) -> Tuple[Query, ...]:
        return (self.records,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.RECORDS

    def _own_columns(self) -> Tuple[str, ...]:
        # Only the primary-side column: ``columns()`` and the
        # single-table validator see the table the whole query answers
        # from.  The right side is checked by ``validate_composed``.
        return (self.left_column,)


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class SuperlativeRecords(Query):
    """``argmax(records, λx[C.x])`` — records with the extreme value in ``C``.

    E.g. *rows that have the highest value in column Year*.
    """

    kind: SuperlativeKind
    column: str
    records: Query

    def __post_init__(self):
        _require(self.records, ResultKind.RECORDS, "SuperlativeRecords.records")

    def children(self) -> Tuple[Query, ...]:
        return (self.records,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.RECORDS

    def _own_columns(self) -> Tuple[str, ...]:
        return (self.column,)


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class FirstLastRecords(Query):
    """``argmax/argmin(records, Index)`` — the last / first record of a set.

    Used by the paper's *"where it is the last row"* template.  ``ARGMAX``
    selects the record with the highest index (the last row of the set),
    ``ARGMIN`` the first.
    """

    kind: SuperlativeKind
    records: Query

    def __post_init__(self):
        _require(self.records, ResultKind.RECORDS, "FirstLastRecords.records")

    def children(self) -> Tuple[Query, ...]:
        return (self.records,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.RECORDS


# ---------------------------------------------------------------------------
# Value-producing operators
# ---------------------------------------------------------------------------


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class ColumnValues(Query):
    """``R[C].records`` — values of column ``C`` in the given records."""

    column: str
    records: Query

    def __post_init__(self):
        _require(self.records, ResultKind.RECORDS, "ColumnValues.records")

    def children(self) -> Tuple[Query, ...]:
        return (self.records,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.VALUES

    def _own_columns(self) -> Tuple[str, ...]:
        return (self.column,)


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class Union(Query):
    """``vals1 ⊔ vals2`` (or a union of record sets)."""

    left: Query
    right: Query

    def __post_init__(self):
        if self.left.result_kind != self.right.result_kind:
            raise QueryTypeError(
                "Union operands must have the same kind, got "
                f"{self.left.result_kind.value} and {self.right.result_kind.value}"
            )
        if self.left.result_kind == ResultKind.SCALAR:
            raise QueryTypeError("Union of scalars is not defined")

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)

    @property
    def result_kind(self) -> ResultKind:
        return self.left.result_kind


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class IndexSuperlative(Query):
    """``R[C].argmax(records, Index)`` — the value of ``C`` in the last
    (or first, for ``ARGMIN``) record of a record set.

    E.g. *"The title of the last show"* → value of column Episode in the
    record with the highest index.
    """

    kind: SuperlativeKind
    column: str
    records: Query

    def __post_init__(self):
        _require(self.records, ResultKind.RECORDS, "IndexSuperlative.records")

    def children(self) -> Tuple[Query, ...]:
        return (self.records,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.VALUES

    def _own_columns(self) -> Tuple[str, ...]:
        return (self.column,)


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class MostCommonValue(Query):
    """``argmax(vals, R[λx.count(C.x)])`` — the value appearing most often in ``C``.

    The operand restricts the candidate values; passing every value of the
    column yields the paper's *"the value that appears the most in column C"*.
    """

    column: str
    values: Query
    kind: SuperlativeKind = SuperlativeKind.ARGMAX

    def __post_init__(self):
        _require(self.values, ResultKind.VALUES, "MostCommonValue.values")

    def children(self) -> Tuple[Query, ...]:
        return (self.values,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.VALUES

    def _own_columns(self) -> Tuple[str, ...]:
        return (self.column,)


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class CompareValues(Query):
    """``argmax(vals, R[λx.R[C1].C2.x])`` — compare candidate values by a key column.

    E.g. *"between London or Beijing who has the highest value of column
    Year"*: the candidate values live in column ``C2`` (City) and are
    compared by the value of ``C1`` (Year) in their records.
    """

    kind: SuperlativeKind
    key_column: str
    value_column: str
    values: Query

    def __post_init__(self):
        _require(self.values, ResultKind.VALUES, "CompareValues.values")

    def children(self) -> Tuple[Query, ...]:
        return (self.values,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.VALUES

    def _own_columns(self) -> Tuple[str, ...]:
        return (self.key_column, self.value_column)


# ---------------------------------------------------------------------------
# Scalar-producing operators
# ---------------------------------------------------------------------------


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class Aggregate(Query):
    """``aggr(operand)`` for ``aggr ∈ {count, min, max, sum, avg}``.

    ``count`` also accepts a RECORDS operand (*"the number of rows where
    ..."*); the numeric aggregates require a VALUES operand.
    """

    function: AggregateFunction
    operand: Query

    def __post_init__(self):
        kind = self.operand.result_kind
        if kind == ResultKind.SCALAR:
            raise QueryTypeError("cannot aggregate a scalar")
        if kind == ResultKind.RECORDS and self.function != AggregateFunction.COUNT:
            raise QueryTypeError(
                f"{self.function.value} requires a VALUES operand, got RECORDS"
            )

    def children(self) -> Tuple[Query, ...]:
        return (self.operand,)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.SCALAR


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class Difference(Query):
    """``sub(left, right)`` — arithmetic difference of two single-valued operands.

    Each operand is either a VALUES query that evaluates to one value (the
    paper's *Difference of Values*) or a scalar aggregate (the paper's
    *Difference of Value Occurrences*, ``sub(count(C.v), count(C.u))``).
    """

    left: Query
    right: Query

    def __post_init__(self):
        for name, operand in (("left", self.left), ("right", self.right)):
            if operand.result_kind == ResultKind.RECORDS:
                raise QueryTypeError(
                    f"Difference.{name} must produce values or a scalar, got RECORDS"
                )

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)

    @property
    def result_kind(self) -> ResultKind:
        return ResultKind.SCALAR


def _require(query: Query, kind: ResultKind, where: str) -> None:
    if query.result_kind != kind:
        raise QueryTypeError(
            f"{where} must be a {kind.value} query, got {query.result_kind.value} "
            f"({type(query).__name__})"
        )


#: Nodes producing record sets.
RECORD_NODES = (
    AllRecords,
    ColumnRecords,
    ComparisonRecords,
    PrevRecords,
    NextRecords,
    Intersection,
    JoinRecords,
    SuperlativeRecords,
    FirstLastRecords,
)

#: Nodes producing value sets.
VALUE_NODES = (
    ValueLiteral,
    ColumnValues,
    Union,
    IndexSuperlative,
    MostCommonValue,
    CompareValues,
)

#: Nodes producing scalars.
SCALAR_NODES = (Aggregate, Difference)

ALL_NODE_TYPES = RECORD_NODES + VALUE_NODES + SCALAR_NODES
