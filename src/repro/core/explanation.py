"""Combined query explanations (paper Section 5).

The interface explains each candidate query with *both* mechanisms:

* the NL utterance (Section 5.1) — a detailed description of the query,
* the provenance-based highlight (Section 5.2) — a quick visual cue,
  sampled down for large tables (Section 5.3).

:class:`QueryExplanation` bundles the two together with the query, its
answer and its serialised form; :func:`explain` builds one, and
:func:`explain_candidates` explains a ranked candidate list the way the
deployed interface does (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..tables.table import Table
from ..dcs.ast import Query
from ..dcs.executor import ExecutionResult, Executor
from ..dcs.sexpr import to_sexpr
from .utterance import DerivationNode, derive

if TYPE_CHECKING:
    from .highlights import HighlightedTable
    from .sampling import HighlightSample

#: Above this many rows, explanations display the sampled highlight only.
LARGE_TABLE_THRESHOLD = 50


@dataclass(frozen=True)
class QueryExplanation:
    """Everything the interface shows a user about one candidate query.

    The fields are what serving reads.  The highlight (with its provenance
    chain), derivation, s-expression and sample are pure functions of
    (table content, query, seed), built on first read and then kept.  That
    first ``highlighted`` read pays for the provenance (about 0.15 ms per
    query on a 2-CPU host), ``repro ask``'s text output reads all k, and on
    Python 3.10 and 3.11 ``cached_property`` serializes first reads per class.
    The highlight, sampling and rendering modules are imported by the
    properties and renderers that use them, so the first such read in a
    process also pays their import; a process that only serves answers
    never loads them.
    """

    query: Query
    table: Table
    utterance: str
    result: ExecutionResult
    #: Seed of the highlight sample's row draws.
    sampling_seed: Optional[int] = 0

    @cached_property
    def highlighted(self) -> HighlightedTable:
        from .highlights import Highlighter

        return Highlighter(self.table).highlight(self.query, output=True)

    @cached_property
    def derivation(self) -> DerivationNode:
        return derive(self.query).derivation

    @cached_property
    def sexpr(self) -> str:
        return to_sexpr(self.query)

    @cached_property
    def sample(self) -> HighlightSample:
        """The Figure 7 row sample, displayed over :data:`LARGE_TABLE_THRESHOLD` rows."""
        from .highlights import Highlighter
        from .sampling import HighlightSampler

        sampler = HighlightSampler(Highlighter(self.table), seed=self.sampling_seed)
        return sampler.sample(self.highlighted)

    @property
    def answer(self) -> Tuple[str, ...]:
        return self.result.answer_strings()

    @property
    def uses_sampling(self) -> bool:
        """Whether the display should fall back to the sampled rows (Section 5.3)."""
        return self.table.num_rows > LARGE_TABLE_THRESHOLD

    def display_rows(self) -> List[int]:
        """The row indices shown to the user."""
        if self.uses_sampling:
            return list(self.sample.row_indices)
        return list(range(self.table.num_rows))

    def as_text(self, ansi: bool = False) -> str:
        """Terminal-friendly rendering: utterance plus highlighted rows."""
        from .rendering import render_text

        body = render_text(self.highlighted, rows=self.display_rows(), ansi=ansi)
        return f"utterance: {self.utterance}\n{body}"

    def as_html(self) -> str:
        """HTML rendering close to the user-study interface."""
        from .rendering import render_html

        return render_html(self.highlighted, rows=self.display_rows(), caption=self.utterance)


class ExplanationGenerator:
    """Builds :class:`QueryExplanation` objects for one table.

    Stateless and cheap to build: an explanation is a pure function of
    (table content, query, ``sampling_seed``) and builds its own highlight.
    """

    def __init__(self, table: Table, sampling_seed: Optional[int] = 0) -> None:
        self.table = table
        self.sampling_seed = sampling_seed
        self.executor = Executor(table)

    def explain(self, query: Query, result: Optional[ExecutionResult] = None) -> QueryExplanation:
        """Explain ``query``; without its ``result`` it executes (and may raise) here."""
        if result is None:
            result = self.executor.execute(query)
        utterance = derive(query).utterance
        return QueryExplanation(query=query, table=self.table, utterance=utterance,
                                result=result, sampling_seed=self.sampling_seed)

    def explain_many(self, queries: Sequence[Query]) -> List[QueryExplanation]:
        return [self.explain(query) for query in queries]


def explain(query: Query, table: Table) -> QueryExplanation:
    """Explain a single query over a table."""
    return ExplanationGenerator(table).explain(query)


def explain_candidates(queries: Sequence[Query], table: Table) -> List[QueryExplanation]:
    """Explain a ranked list of candidate queries over the same table."""
    return ExplanationGenerator(table).explain_many(queries)
