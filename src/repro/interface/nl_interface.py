"""The NL interface: question → explained candidate queries (Sections 2 and 6).

:class:`NLInterface` glues the semantic parser to the explanation
generator: given a question over a table it returns the top-k candidate
queries, each paired with its NL utterance and provenance-based highlight.
This is the object both the deployment loop and the example scripts build
on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..tables.fingerprint import LRUCache
from ..tables.table import Table
from ..core.explanation import ExplanationGenerator, QueryExplanation
from ..parser.candidates import Candidate, ParseOutput, SemanticParser
from ..perf.pool import BatchItem, serving_pool


@dataclass(frozen=True)
class ExplainedCandidate:
    """One candidate query together with its explanation."""

    rank: int
    candidate: Candidate
    explanation: QueryExplanation

    @property
    def utterance(self) -> str:
        return self.explanation.utterance

    @property
    def answer(self) -> Tuple[str, ...]:
        return self.candidate.answer

    def __repr__(self) -> str:
        # Bounded: skips the explanation/provenance graph.
        return (
            f"ExplainedCandidate(rank={self.rank}, answer={self.answer!r}, "
            f"utterance={self.utterance!r})"
        )


@dataclass
class InterfaceResponse:
    """What the interface returns for one question.

    On the batch path a single question can fail — its deadline expired,
    or its pool worker died past every retry — while the rest of the
    batch completes.  Such a response carries the failure in ``error``
    with ``parse=None`` and no explanations; callers that route
    responses onto the wire classify ``error`` into the coded taxonomy.
    """

    question: str
    table: Table
    parse: Optional[ParseOutput]
    explained: List[ExplainedCandidate]
    parse_seconds: float
    explain_seconds: float
    error: Optional[Exception] = None

    @property
    def top(self) -> Optional[ExplainedCandidate]:
        return self.explained[0] if self.explained else None

    def utterances(self) -> List[str]:
        return [item.utterance for item in self.explained]

    def __repr__(self) -> str:
        # Bounded: the generated repr would recurse through the parse
        # output and every explanation — any accidental repr of a served
        # answer (asyncio task formatting, logging) pays the whole graph.
        top = self.top
        return (
            f"InterfaceResponse(question={self.question!r}, "
            f"table={self.table.name!r}, explained=<{len(self.explained)}>, "
            f"top_answer={top.answer if top else ()!r})"
        )

    def as_text(self, ansi: bool = False) -> str:
        """Render the whole candidate list for a terminal."""
        blocks = [f"question: {self.question}", f"table: {self.table.name}", ""]
        for item in self.explained:
            blocks.append(f"--- candidate {item.rank + 1} (answer: {', '.join(item.answer)}) ---")
            blocks.append(item.explanation.as_text(ansi=ansi))
            blocks.append("")
        return "\n".join(blocks)


class NLInterface:
    """A natural-language interface over web tables with query explanations.

    It keeps no per-table state: the parser's generator holds every
    per-table cache, and an explanation is a pure function of (table
    content, query), so an :class:`ExplanationGenerator` is built where
    a response is explained.
    """

    def __init__(self, parser: Optional[SemanticParser] = None, k: int = 7) -> None:
        self.parser = parser or SemanticParser()
        self.k = k

    def evict_table(self, table: Table) -> None:
        """Unload every in-memory artifact of ``table``'s content.

        The interface-level shard-eviction hook used by
        :class:`~repro.tables.catalog.TableCatalog`: the parser's
        generator drops its per-table entry, its candidate lists and the
        process-wide index entry for this content.  Nothing needs
        persisting first: candidate lists reach the disk store (when
        configured) at generation time, and the sub-query memo never
        outlives a parse.  Results after eviction are bit-identical,
        sampled highlight rows included — everything dropped is derived
        state.
        """
        self.parser.evict_table(table)

    def retire_table(self, table: Table) -> None:
        """Drop a *superseded* table version's in-memory derived state.

        The same one call as :meth:`evict_table`, column index included;
        the catalog's churn path calls it under this name, so a
        retirement can be timed apart from an eviction.  Entries of every
        other fingerprint are untouched.
        """
        self.evict_table(table)

    def ask(self, question: str, table: Table, k: Optional[int] = None) -> InterfaceResponse:
        """Parse a question and explain the top-k candidates."""
        limit = k if k is not None else self.k
        started = time.perf_counter()
        parse = self.parser.parse(question, table)
        parse_seconds = time.perf_counter() - started
        return _respond(question, table, parse, parse_seconds, limit)

    def ask_many(
        self,
        items: Sequence[Tuple[str, Table]],
        k: Optional[int] = None,
        pool=None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
    ) -> List[InterfaceResponse]:
        """Answer a batch of (question, table) pairs.

        Parsing runs on a :class:`~repro.perf.pool.WorkerPool`
        (order-stable, identical to asking sequentially): the long-lived
        ``pool`` when one is passed (an engine's), else the calling
        thread, through a one-worker ``serving_pool("thread", parser)``
        built for this call and closed after it.
        The pool parses each question to its top ``k`` only: that is all
        its ranked memo (the thread pool's, or each process worker's)
        keeps, and the parser stores no unranked candidate list for it,
        so a served question stays resident once.  Each response's
        ``parse`` holds just those ``k`` candidates — with the same
        scores and probabilities as the top of a full parse.  Asking
        again with another ``k``, or after a weight change, generates
        the question afresh instead of re-ranking it (unless a full
        parse, such as :meth:`ask`, cached its list).
        Explanation stays sequential per response since it is cheap
        relative to parsing; it goes through the pool's explanation
        memo.  Returns one :class:`InterfaceResponse` per input pair,
        index-aligned.

        ``deadlines`` (index-aligned absolute ``time.monotonic()``
        instants, ``None`` entries wait forever) bounds each item; an
        expired item comes back as an error response while the rest of
        the batch completes — see :class:`InterfaceResponse`.
        """
        if pool is None:
            with serving_pool("thread", self.parser) as call_pool:
                return self.ask_many(items, k=k, pool=call_pool, deadlines=deadlines)
        limit = k if k is not None else self.k
        if deadlines is None:
            deadlines = [None] * len(items)
        batch = [
            BatchItem(question=question, table=table, k=limit, deadline=deadline)
            for (question, table), deadline in zip(items, deadlines)
        ]
        results = pool.parse_all(batch)
        return [
            _respond(
                item.question, item.table, parse, seconds, limit, pool.explanations
            )
            for item, (parse, seconds) in zip(batch, results)
        ]


def _respond(
    question: str,
    table: Table,
    parse: Union[ParseOutput, Exception],
    parse_seconds: float,
    limit: int,
    memo: Optional[LRUCache] = None,
) -> InterfaceResponse:
    """The response to one parsed question: its top ``limit`` explained.

    A failed parse (an exception in its place) makes an error response.
    With a pool's explanation ``memo``, each explanation is read from it
    under ``(fingerprint, sexpr)`` and put there on a miss.  A new
    explanation takes its candidate's execution result, so the query does
    not run a second time and a memoized explanation shares the ranked
    memo's result; it builds no highlight until something reads one.
    """
    if isinstance(parse, Exception):
        return InterfaceResponse(
            question=question, table=table, parse=None, explained=[],
            parse_seconds=parse_seconds, explain_seconds=0.0, error=parse,
        )
    started = time.perf_counter()
    generator: Optional[ExplanationGenerator] = None
    explained: List[ExplainedCandidate] = []
    for rank, candidate in enumerate(parse.top_k(limit)):
        explanation = None
        if memo is not None:
            key = (table.fingerprint, candidate.sexpr)
            explanation = memo.get(key)
        if explanation is None:
            generator = generator or ExplanationGenerator(table)
            explanation = generator.explain(candidate.query, candidate.result)
            if memo is not None:
                memo.put(key, explanation)
        explained.append(
            ExplainedCandidate(rank=rank, candidate=candidate, explanation=explanation)
        )
    return InterfaceResponse(
        question=question,
        table=table,
        parse=parse,
        explained=explained,
        parse_seconds=parse_seconds,
        explain_seconds=time.perf_counter() - started,
    )
