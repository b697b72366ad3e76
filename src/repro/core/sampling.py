"""Scaling provenance highlights to large tables (paper Section 5.3).

NL utterances are independent of the table size, but showing highlights on a
table with thousands of rows is impractical.  The paper's solution: the
highlights explain the *query*, not the full answer, so it suffices to show
a small sample of rows that exercises every provenance stratum.

Concretely the sampler:

1. computes the provenance chain and maps each provenance cell to its row,
   producing the record sets ``RO ⊆ RE ⊆ RC``,
2. samples one row from ``RO``, one from ``RE \\ RO`` and one from
   ``RC \\ RE`` (two rows from ``RO`` for arithmetic-difference queries, one
   per subtracted value),
3. orders the sampled rows by their original position and restricts the
   highlight to them (Figure 7).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..tables.table import Table
from ..dcs import ast
from ..dcs.ast import Query
from .highlights import HighlightedTable, Highlighter


@dataclass(frozen=True)
class HighlightSample:
    """The succinct row sample used to display highlights on a large table."""

    query: Query
    table: Table
    row_indices: Tuple[int, ...]
    highlighted: HighlightedTable
    output_rows: FrozenSet[int]
    execution_rows: FrozenSet[int]
    column_rows: FrozenSet[int]

    @property
    def sample_size(self) -> int:
        return len(self.row_indices)

    def sampled_table(self) -> Table:
        """A standalone table containing only the sampled rows."""
        return self.table.subtable(list(self.row_indices))


class HighlightSampler:
    """Samples representative rows for provenance-based highlights.

    Stateless: every :meth:`sample` call draws from a fresh
    ``random.Random(seed)``, so a sample is a pure function of (table
    content, query, seed), and two queries whose provenance strata hold
    the same rows are shown the same rows.
    """

    def __init__(self, highlighter: Highlighter, seed: Optional[int] = 0) -> None:
        self.highlighter = highlighter
        self.seed = seed

    def sample(
        self, highlighted: HighlightedTable, max_rows_per_stratum: int = 1
    ) -> HighlightSample:
        """Produce the Figure 7 sample of ``highlighter``'s highlight of a query.

        ``max_rows_per_stratum`` controls how many rows are drawn from each
        provenance stratum; the paper uses one (two from ``RO`` for
        difference queries, which is handled automatically).
        """
        query = highlighted.query
        provenance = highlighted.provenance
        output_rows = provenance.output_record_indices()
        execution_rows = provenance.execution_record_indices()
        column_rows = provenance.column_record_indices()

        rng = random.Random(self.seed)
        per_stratum = max_rows_per_stratum
        if isinstance(query, ast.Difference):
            # One row per subtracted operand.
            chosen: List[int] = []
            for operand in query.children():
                operand_rows = self.highlighter.engine.output_provenance(operand)
                chosen.extend(
                    _draw(rng, operand_rows.record_indices() - set(chosen), per_stratum)
                )
        else:
            chosen = _draw(rng, output_rows, per_stratum)
        chosen.extend(_draw(rng, execution_rows - output_rows - set(chosen), per_stratum))
        chosen.extend(_draw(rng, column_rows - execution_rows - set(chosen), per_stratum))
        # Keep the original table order (the paper orders sampled records by
        # their position in the source table).
        ordered = tuple(sorted(dict.fromkeys(chosen)))
        return HighlightSample(
            query=query,
            table=highlighted.table,
            row_indices=ordered,
            highlighted=highlighted.restricted_to_rows(list(ordered)),
            output_rows=output_rows,
            execution_rows=execution_rows,
            column_rows=column_rows,
        )


def _draw(rng: random.Random, candidates: FrozenSet[int], count: int) -> List[int]:
    pool = sorted(candidates)
    if not pool or count <= 0:
        return []
    if len(pool) <= count:
        return pool
    return sorted(rng.sample(pool, count))


def sample_highlights(
    query: Query, table: Table, seed: Optional[int] = 0, max_rows_per_stratum: int = 1
) -> HighlightSample:
    """Convenience wrapper around :class:`HighlightSampler`."""
    highlighter = Highlighter(table)
    return HighlightSampler(highlighter, seed=seed).sample(
        highlighter.highlight(query, output=True), max_rows_per_stratum
    )
