"""Knowledge-base view of a table.

The paper (Section 3.1) describes the table as a knowledge base
``K ⊆ E × P × E`` where the entity set ``E`` contains all table cells and
all table records, and the property set ``P`` contains the column headers,
each acting as a binary relation from a cell value to the records in which
that value appears.

This module materialises that view.  Nothing on the
answer path reads it: the lambda DCS executor resolves joins such as
``Country.Greece`` through the column index of :mod:`repro.tables.index`,
and the parser lexicon indexes cell values straight from the table.  It
is the reference those fast paths are checked against: the property
tests compare :meth:`KnowledgeBase.records_with_value` with
:class:`~repro.tables.index.TableIndex`, and the lexicon tests compare
the lexicon's value index with :meth:`KnowledgeBase.column_entities`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .table import Table
from .values import StringValue, Value, values_equal


@dataclass(frozen=True)
class Triple:
    """A single KB triple ``(record_index, property, value)``."""

    record_index: int
    property: str
    value: Value


class KnowledgeBase:
    """An index over a table's (record, column, value) triples.

    The KB offers the two lookups that drive lambda DCS joins:

    * ``records_with_value(column, value)`` — the ``C.v`` join,
    * ``values_of_records(column, indices)`` — the ``R[C].records`` reverse join.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self._triples: List[Triple] = []
        self._by_property: Dict[str, List[Triple]] = defaultdict(list)
        self._value_index: Dict[Tuple[str, Value], Set[int]] = defaultdict(set)
        #: Value types present per column: the cross-type scan in
        #: :meth:`records_with_value` is skipped when a column is
        #: homogeneous in the probe's type (the typed index is complete
        #: there), which keeps the common case O(1).
        self._column_types: Dict[str, Set[type]] = defaultdict(set)
        for record in table.records:
            for cell in record.cells:
                triple = Triple(record.index, cell.column, cell.value)
                self._triples.append(triple)
                self._by_property[cell.column].append(triple)
                self._value_index[(cell.column, cell.value)].add(record.index)
                self._column_types[cell.column].add(type(cell.value))

    # -- entity / property enumeration ---------------------------------------
    @property
    def properties(self) -> List[str]:
        return list(self.table.columns)

    @property
    def triples(self) -> List[Triple]:
        return list(self._triples)

    def entities(self) -> Set[Value]:
        """All distinct cell values in the table."""
        return {triple.value for triple in self._triples}

    def column_entities(self, column: str) -> Set[Value]:
        return {triple.value for triple in self._by_property[column]}

    # -- joins ----------------------------------------------------------------
    def records_with_value(self, column: str, value: Value) -> FrozenSet[int]:
        """Indices of records where ``column`` holds ``value`` (the ``C.v`` join).

        The contract mirrors :class:`~repro.tables.index.TableIndex`: every
        record whose cell satisfies :func:`values_equal` is returned.  The
        typed index answers same-type matches in O(1); cross-type matches
        (the string ``"2004"`` against the number ``2004``) come from a
        scan over the column's *other-typed* cells, which a homogeneous
        column — the common case — skips entirely.  An exact hit must NOT
        short-circuit that scan: a column holding both ``"2004"`` and
        ``2004`` owes the join both records.
        """
        exact = self._value_index.get((column, value))
        matches: Set[int] = set(exact) if exact is not None else set()
        probe_type = type(value)
        if self._column_types.get(column, set()) - {probe_type}:
            for triple in self._by_property.get(column, ()):
                if type(triple.value) is not probe_type and values_equal(
                    triple.value, value
                ):
                    matches.add(triple.record_index)
        return frozenset(matches)

    def values_of_records(self, column: str, indices) -> List[Value]:
        """Values of ``column`` in the given records (``R[C].records``)."""
        column_cells = self.table.column_cells(column)
        return [column_cells[i].value for i in sorted(indices)]

    # -- string search ---------------------------------------------------------
    def find_entity(self, text: str) -> List[Tuple[str, Value]]:
        """Find table values whose textual form matches ``text``.

        Returns ``(column, value)`` pairs; matching is case-insensitive on
        the normalised string form.
        """
        target = StringValue(text).normalized
        matches: List[Tuple[str, Value]] = []
        seen: Set[Tuple[str, Value]] = set()
        for triple in self._triples:
            key = (triple.property, triple.value)
            if key in seen:
                continue
            display = StringValue(triple.value.display()).normalized
            if display == target:
                matches.append(key)
                seen.add(key)
        return matches

    def find_columns(self, text: str) -> List[str]:
        """Columns whose header matches ``text`` (case-insensitive)."""
        target = StringValue(text).normalized
        return [
            column
            for column in self.table.columns
            if StringValue(column).normalized == target
        ]
