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
from typing import List, Optional, Sequence, Tuple

from ..tables.fingerprint import LRUCache
from ..tables.table import Table
from ..core.explanation import ExplanationGenerator, QueryExplanation
from ..parser.candidates import Candidate, ParseOutput, SemanticParser
from ..perf.pool import BatchItem, create_pool


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
    """A natural-language interface over web tables with query explanations."""

    def __init__(
        self,
        parser: Optional[SemanticParser] = None,
        k: int = 7,
        table_cache_size: int = 64,
    ) -> None:
        self.parser = parser or SemanticParser()
        self.k = k
        self._generators: LRUCache = LRUCache(maxsize=table_cache_size)

    def _generator(self, table: Table) -> ExplanationGenerator:
        # Content-addressed (never id-keyed: ids are recycled) and bounded,
        # mirroring the parser's own per-table caches.
        return self._generators.get_or_create(
            table.fingerprint, lambda: ExplanationGenerator(table)
        )

    def evict_table(self, table: Table) -> None:
        """Unload every in-memory artifact of ``table``'s content.

        The interface-level shard-eviction hook used by
        :class:`~repro.tables.catalog.TableCatalog`: drops the parser
        caches, the explanation generator and the process-wide
        index/schema entries for this content.  Nothing needs persisting
        first: candidate lists reach the disk store (when configured) at
        generation time, and the sub-query memo never outlives a parse.
        Results after eviction are bit-identical — everything dropped is
        derived state.
        """
        from ..tables.index import evict_index
        from ..tables.schema import evict_schema

        self.parser.evict_table(table)
        self._generators.pop(table.fingerprint)
        evict_index(table.fingerprint)
        evict_schema(table.fingerprint)

    def retire_table(self, table: Table) -> None:
        """Drop a *superseded* table version's in-memory derived state.

        The same as :meth:`evict_table`; the catalog's churn path calls
        it under this name, so a retirement can be timed apart from an
        eviction.  Entries of every other fingerprint are untouched.
        """
        self.evict_table(table)

    def ask(self, question: str, table: Table, k: Optional[int] = None) -> InterfaceResponse:
        """Parse a question and explain the top-k candidates."""
        limit = k if k is not None else self.k
        started = time.perf_counter()
        parse = self.parser.parse(question, table)
        parse_seconds = time.perf_counter() - started

        generator = self._generator(table)
        explained: List[ExplainedCandidate] = []
        started = time.perf_counter()
        for rank, candidate in enumerate(parse.top_k(limit)):
            explanation = generator.explain(candidate.query)
            explained.append(
                ExplainedCandidate(rank=rank, candidate=candidate, explanation=explanation)
            )
        explain_seconds = time.perf_counter() - started
        return InterfaceResponse(
            question=question,
            table=table,
            parse=parse,
            explained=explained,
            parse_seconds=parse_seconds,
            explain_seconds=explain_seconds,
        )

    def ask_many(
        self,
        items: Sequence[Tuple[str, Table]],
        k: Optional[int] = None,
        workers: int = 4,
        backend: str = "thread",
        pool=None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
    ) -> List[InterfaceResponse]:
        """Answer a batch of (question, table) pairs concurrently.

        Parsing runs on a :class:`~repro.perf.pool.WorkerPool`
        (order-stable, identical to asking sequentially): the long-lived
        ``pool`` when one is passed, else a ``create_pool(backend,
        parser, workers)`` pool built for this call and closed after it.
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
        relative to parsing.  Returns one :class:`InterfaceResponse` per
        input pair, index-aligned.

        ``deadlines`` (index-aligned absolute ``time.monotonic()``
        instants, ``None`` entries wait forever) bounds each item; an
        expired item comes back as an error response while the rest of
        the batch completes — see :class:`InterfaceResponse`.
        """
        limit = k if k is not None else self.k
        if deadlines is None:
            deadlines = [None] * len(items)
        batch = [
            BatchItem(question=question, table=table, k=limit, deadline=deadline)
            for (question, table), deadline in zip(items, deadlines)
        ]
        if pool is None:
            with create_pool(backend, self.parser, workers) as call_pool:
                results = call_pool.parse_all(batch)
            warm_explanations = None
        else:
            results = pool.parse_all(batch)
            warm_explanations = pool.explanations
        responses: List[InterfaceResponse] = []
        for item, (parse, seconds) in zip(batch, results):
            if isinstance(parse, Exception):
                responses.append(
                    InterfaceResponse(
                        question=item.question,
                        table=item.table,
                        parse=None,
                        explained=[],
                        parse_seconds=seconds,
                        explain_seconds=0.0,
                        error=parse,
                    )
                )
                continue
            # The generator is built lazily: on a fully warm batch every
            # explanation comes out of the pool registry and an evicted
            # generator is never rebuilt at all.
            generator: Optional[ExplanationGenerator] = None
            started = time.perf_counter()
            explained: List[ExplainedCandidate] = []
            for rank, candidate in enumerate(parse.top_k(limit)):
                explanation = None
                key = None
                if warm_explanations is not None:
                    key = (item.table.fingerprint, candidate.sexpr)
                    explanation = warm_explanations.get(key)
                if explanation is None:
                    if generator is None:
                        generator = self._generator(item.table)
                    explanation = generator.explain(candidate.query)
                    if key is not None:
                        warm_explanations.put(key, explanation)
                explained.append(
                    ExplainedCandidate(
                        rank=rank, candidate=candidate, explanation=explanation
                    )
                )
            explain_seconds = time.perf_counter() - started
            responses.append(
                InterfaceResponse(
                    question=item.question,
                    table=item.table,
                    parse=parse,
                    explained=explained,
                    parse_seconds=seconds,
                    explain_seconds=explain_seconds,
                )
            )
        return responses
