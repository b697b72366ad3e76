""":class:`ReproEngine` — the one façade every query surface goes through.

The paper's system is a single interface: a user poses a question and
gets ranked candidates with NL utterances and provenance.  Before this
module the reproduction had grown three overlapping entry points
(:meth:`NLInterface.ask`, :meth:`TableCatalog.ask`/:meth:`ask_any`, the
:class:`~repro.serving.AsyncServer`) with three result shapes.  The
engine collapses them: it owns a :class:`~repro.tables.catalog.TableCatalog`
and answers every :class:`~repro.api.envelope.QueryRequest` with a
:class:`~repro.api.envelope.QueryResult` —

* ``query`` / ``query_many`` — synchronous, with the same shard-grouped
  batching the serving dispatcher uses;
* ``aquery`` — the asyncio face (one request off the running loop);
* ``server()`` — an :class:`~repro.serving.AsyncServer` bound to this
  engine, for micro-batched concurrent sessions and the TCP endpoint.

Errors never escape as stringly exceptions: the engine returns an error
envelope carrying an :class:`~repro.api.errors.ErrorCode`
(``result.raise_for_error()`` restores exception behaviour when wanted).

The module also hosts the two result builders (:func:`result_from_response`,
:func:`result_from_catalog_answer`) shared by the engine, the serving
layer's v2 wire path and the CLI — one construction site is what makes
"TCP result == in-process result" a structural property instead of a
hope.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..tables.catalog import CatalogAnswer, TableCatalog
from .envelope import (
    CandidateInfo,
    ComposedInfo,
    ErrorInfo,
    QueryRequest,
    QueryResult,
    RankedShard,
    RoutingInfo,
    ShardInfo,
    ShardScoreInfo,
    TimingInfo,
)
from .errors import ApiError, ErrorCode, bad_request, classify_exception

#: What ``query`` accepts: a full request or a bare question string.
RequestLike = Union[QueryRequest, str]


# ---------------------------------------------------------------------------
# result builders (shared with repro.serving and the CLI)
# ---------------------------------------------------------------------------


def _candidates_from_response(response) -> Tuple[CandidateInfo, ...]:
    return tuple(
        CandidateInfo(
            rank=item.rank,
            answer=tuple(item.answer),
            utterance=item.utterance,
            sexpr=item.candidate.sexpr,
            score=item.candidate.score,
        )
        for item in response.explained
    )


def _parse_failure(question: str) -> ErrorInfo:
    return ErrorInfo(
        code=ErrorCode.PARSE_FAILURE,
        message=f"no executable candidate queries for {question!r}",
    )


def result_from_response(
    request: QueryRequest,
    response,
    shard: Optional[ShardInfo] = None,
    cache: Optional[Dict[str, Any]] = None,
    corpus_version: Optional[int] = None,
) -> QueryResult:
    """Build the envelope for a routed single-table answer.

    ``response`` is an :class:`~repro.interface.nl_interface.InterfaceResponse`;
    ``shard`` defaults to the response's own table identity.
    ``corpus_version`` is the catalog version the request was accepted
    against (``None`` when no catalog was involved).
    """
    candidates = _candidates_from_response(response)
    ok = bool(candidates)
    return QueryResult(
        question=response.question,
        ok=ok,
        answer=tuple(candidates[0].answer) if candidates else (),
        request_id=request.request_id,
        error=None if ok else _parse_failure(response.question),
        shard=shard if shard is not None else ShardInfo.from_table(response.table),
        candidates=candidates,
        routing=RoutingInfo(
            mode="table",
            pruned=False,
            fallback=False,
            shards_parsed=1,
            shards_pruned=0,
        ),
        timing=TimingInfo(
            parse_seconds=response.parse_seconds,
            explain_seconds=response.explain_seconds,
            total_seconds=response.parse_seconds + response.explain_seconds,
        ),
        cache=cache,
        corpus_version=corpus_version,
        raw=response,
    )


def _composed_info(answer: CatalogAnswer) -> Optional[ComposedInfo]:
    """Lift a catalog's :class:`ComposedAnswer` into the wire shape.

    The provenance identifies the joined shards by digest; their refs
    (rows/columns for the wire ``ShardInfo``) come from the set-routing
    proposals the composition was attempted over.  A digest the
    proposals cannot resolve (impossible through ``ask_any``, which only
    composes proposal pairs) degrades to a zero-sized ``ShardInfo``
    rather than dropping the provenance.
    """
    composed = answer.composed
    if composed is None:
        return None
    refs = {}
    if answer.set_routing is not None:
        for proposal in answer.set_routing.proposals:
            for ref in proposal.refs:
                refs.setdefault(ref.digest, ref)
    provenance = composed.provenance

    def shard_info(digest: str, name: str) -> ShardInfo:
        ref = refs.get(digest)
        if ref is not None:
            return ShardInfo.from_ref(ref)
        return ShardInfo(digest=digest, name=name, rows=0, columns=0)

    return ComposedInfo(
        answer=tuple(composed.answer),
        sexpr=composed.sexpr,
        utterance=composed.utterance,
        primary=shard_info(provenance.primary_digest, provenance.primary_name),
        secondary=shard_info(
            provenance.secondary_digest, provenance.secondary_name
        ),
        left_column=provenance.left_column,
        right_column=provenance.right_column,
        join_pairs=tuple(
            (int(pair[0]), int(pair[1])) for pair in provenance.join_pairs
        ),
        retrieval_score=composed.retrieval_score,
    )


def result_from_catalog_answer(
    request: QueryRequest,
    answer: CatalogAnswer,
    cache: Optional[Dict[str, Any]] = None,
    corpus_version: Optional[int] = None,
) -> QueryResult:
    """Build the envelope for a corpus-wide :meth:`TableCatalog.ask_any`."""
    decision = answer.routing
    retrieval = (
        {scored.ref.digest: scored.score for scored in decision.scored}
        if decision is not None
        else {}
    )
    ranked = tuple(
        RankedShard(
            shard=ShardInfo.from_ref(ref),
            answer=tuple(response.top.answer) if response.top else (),
            score=response.top.candidate.score if response.top else None,
            retrieval_score=retrieval.get(ref.digest, 0.0),
        )
        for ref, response in answer.ranked
    )
    best = answer.best
    candidates = _candidates_from_response(best[1]) if best is not None else ()
    ok = bool(candidates)
    parse_seconds = sum(response.parse_seconds for _, response in answer.ranked)
    explain_seconds = sum(response.explain_seconds for _, response in answer.ranked)
    return QueryResult(
        question=answer.question,
        ok=ok,
        answer=tuple(answer.answer),
        request_id=request.request_id,
        error=None if ok else _parse_failure(answer.question),
        shard=ShardInfo.from_ref(best[0]) if best is not None else None,
        candidates=candidates,
        ranked=ranked,
        routing=RoutingInfo(
            mode="any",
            pruned=answer.pruned,
            fallback=decision.fallback if decision is not None else False,
            shards_parsed=answer.shards_parsed,
            shards_pruned=answer.shards_pruned,
            scores=tuple(
                ShardScoreInfo(
                    digest=scored.ref.digest,
                    name=scored.ref.name,
                    score=scored.score,
                    matched=tuple(scored.matched),
                )
                for scored in decision.scored
            )
            if decision is not None
            else (),
        ),
        timing=TimingInfo(
            parse_seconds=parse_seconds,
            explain_seconds=explain_seconds,
            total_seconds=parse_seconds + explain_seconds,
        ),
        cache=cache,
        corpus_version=corpus_version,
        composed=_composed_info(answer),
        raw=answer,
    )


def error_result(request: QueryRequest, error: ApiError) -> QueryResult:
    """The envelope for a request that failed before (or instead of) parsing."""
    return QueryResult(
        question=request.question if isinstance(request.question, str) else "",
        ok=False,
        request_id=request.request_id,
        error=ErrorInfo.from_error(error),
    )


def result_from_served(
    question: str,
    answer,
    request: Optional[QueryRequest] = None,
    shard: Optional[ShardInfo] = None,
    corpus_version: Optional[int] = None,
) -> QueryResult:
    """Envelope any served answer (``InterfaceResponse`` or ``CatalogAnswer``).

    The adapter the serving layer and ``repro serve --self-test`` use to
    lift dispatcher outputs into the v2 envelope without re-parsing.
    ``shard`` should be the *resolved* catalog ref's identity when the
    answer was routed to one table — the registered name can be an alias
    of the table's own name, and the envelope must report the former.
    """
    request = request if request is not None else QueryRequest(question=question)
    if isinstance(answer, CatalogAnswer):
        return result_from_catalog_answer(
            request, answer, corpus_version=corpus_version
        )
    return result_from_response(
        request, answer, shard=shard, corpus_version=corpus_version
    )


def coerce_request(request: RequestLike, options: Dict[str, Any]) -> QueryRequest:
    """Normalize a bare question + keyword options into a :class:`QueryRequest`.

    The one coercion site shared by :class:`ReproEngine` and
    :class:`~repro.api.client.ReproClient` — construction failures
    (unknown options, conflicting inputs) are coded ``BAD_REQUEST``.
    """
    if isinstance(request, QueryRequest):
        if options:
            raise bad_request(
                "pass options inside the QueryRequest, not alongside it"
            )
        return request
    try:
        return QueryRequest(question=request, **options)
    except TypeError as error:
        raise bad_request(str(error))


# ---------------------------------------------------------------------------
# the façade
# ---------------------------------------------------------------------------


class ReproEngine:
    """One object that answers questions — however they arrive.

    Parameters
    ----------
    catalog:
        An existing :class:`~repro.tables.catalog.TableCatalog` to serve.
        Omitted, the engine builds one from the remaining arguments
        (which mirror the catalog's own constructor).
    tables:
        Tables to register immediately.
    interface / cache_dir / max_hot_shards / k / prune:
        Forwarded to :class:`TableCatalog` when ``catalog`` is omitted.
    workers / backend:
        Pool defaults for batched queries (per-request ``backend``
        overrides the default).  The engine owns one long-lived
        :class:`~repro.perf.pool.WorkerPool` per backend, created lazily
        and reused for every batched query until :meth:`close` — warm
        workers, incremental table shipping and shard pinning.
    call_timeout:
        Per-dispatch watchdog of the persistent process pool: a worker
        sitting on one batch message longer than this (seconds) is
        declared hung, killed and respawned, and its units retried.
        ``None`` (default) disables the watchdog; request deadlines
        still apply.
    """

    def __init__(
        self,
        catalog: Optional[TableCatalog] = None,
        *,
        tables: Optional[Sequence] = None,
        interface=None,
        cache_dir: Optional[str] = None,
        max_hot_shards: Optional[int] = None,
        k: int = 7,
        prune: bool = True,
        workers: int = 4,
        backend: str = "thread",
        call_timeout: Optional[float] = None,
    ) -> None:
        if catalog is None:
            catalog = TableCatalog(
                interface=interface,
                cache_dir=cache_dir,
                max_hot_shards=max_hot_shards,
                k=k,
                prune=prune,
            )
        self.catalog = catalog
        self.workers = workers
        self.backend = backend
        self.call_timeout = call_timeout
        self._pools: Dict[str, Any] = {}
        self._pools_lock = threading.Lock()
        # Retired snapshots must leave the per-worker registries too —
        # without this, every update leaks the superseded table into
        # each pool worker forever.
        self.catalog.on_retire(self._forward_retirement)
        if tables:
            self.catalog.register_all(list(tables))

    # -- registration passthrough ---------------------------------------------
    def register(self, table, name: Optional[str] = None):
        return self.catalog.register(table, name=name)

    def register_all(self, tables, names=None):
        return self.catalog.register_all(tables, names=names)

    def register_many(self, tables, names=None):
        """Bulk registration: batch posting extraction, one index merge.

        Passthrough to :meth:`TableCatalog.register_many` — semantically
        :meth:`register_all`, built for corpus-scale table counts.
        """
        return self.catalog.register_many(tables, names=names)

    def update(self, ref, new_table):
        """Publish ``new_table`` as the next version of a registered shard.

        Passthrough to :meth:`TableCatalog.update`; once the superseded
        snapshot's pinned queries drain, its retirement propagates to
        every live worker pool (tables, shipped markers, explanation
        entries).
        """
        return self.catalog.update(ref, new_table)

    def _forward_retirement(self, ref) -> None:
        with self._pools_lock:
            pools = list(self._pools.values())
        for pool in pools:
            pool.retire([ref.digest])

    def refs(self):
        return self.catalog.refs()

    def routing(self, question: str, max_candidates: Optional[int] = None):
        """The corpus-retrieval routing decision (no parsing).

        ``max_candidates`` caps candidates at the top N of the ranking
        (the router's heap path); ``None`` keeps every retrieval hit.
        """
        return self.catalog.routing(question, max_candidates=max_candidates)

    def routing_sets(self, question: str, max_candidates: Optional[int] = None):
        """The set router's decision: single-shard routing + set proposals.

        Passthrough to :meth:`TableCatalog.routing_sets` — pure
        inspection of which 2–3-shard sets composition would try.
        """
        return self.catalog.routing_sets(question, max_candidates=max_candidates)

    # -- worker pools ----------------------------------------------------------
    def pool(self, backend: Optional[str] = None):
        """The engine's long-lived worker pool for ``backend`` (lazy)."""
        backend = backend or self.backend
        with self._pools_lock:
            pool = self._pools.get(backend)
            if pool is None:
                from ..perf.pool import create_pool

                pool = create_pool(
                    backend,
                    self.catalog.interface.parser,
                    self.workers,
                    call_timeout=self.call_timeout,
                )
                self._pools[backend] = pool
            return pool

    def pool_stats(self) -> Dict[str, Any]:
        """Per-backend counters of the live worker pools (JSON-safe)."""
        with self._pools_lock:
            return {backend: pool.stats() for backend, pool in self._pools.items()}

    def close(self) -> None:
        """Tear down every worker pool (idempotent; engine stays usable —
        the next batched query lazily builds fresh pools)."""
        with self._pools_lock:
            pools = list(self._pools.values())
            self._pools = {}
        for pool in pools:
            pool.close()

    def __enter__(self) -> "ReproEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the query API ---------------------------------------------------------
    def _coerce(self, request: RequestLike, options: Dict[str, Any]) -> QueryRequest:
        return coerce_request(request, options)

    def query(self, request: RequestLike, **options) -> QueryResult:
        """Answer one request; never raises for request-level failures.

        ``request`` is a :class:`QueryRequest` or a bare question string
        (options — ``target``, ``mode``, ``k``, ``prune``, ``backend``,
        ``request_id`` — then come as keywords).  Failures come back as
        coded error envelopes; call ``.raise_for_error()`` to get
        exception behaviour.
        """
        try:
            request = self._coerce(request, options)
        except ApiError as error:
            coerced = request if isinstance(request, QueryRequest) else QueryRequest(
                question=request if isinstance(request, str) else ""
            )
            return error_result(coerced, error)
        try:
            request.validate()
            # Pin the corpus version at acceptance: results report the
            # version they were computed against even if an update lands
            # while this request executes.
            accepted_version = self.catalog.version
            if request.resolved_mode == "table":
                # Pin the resolved snapshot, as the serving dispatcher
                # does: an update landing before the parse supersedes the
                # shard but cannot retire it under this request.
                ref = self.catalog.pin(request.target)
                try:
                    response = self.catalog.ask(request.question, ref, k=request.k)
                finally:
                    self.catalog.unpin(ref)
                return result_from_response(
                    request, response, shard=ShardInfo.from_ref(ref),
                    cache=self.cache_stats(),
                    corpus_version=accepted_version,
                )
            backend = request.backend or self.backend
            answer = self.catalog.ask_any(
                request.question,
                k=request.k,
                workers=self.workers,
                backend=backend,
                prune=request.prune,
                pool=self.pool(backend),
                max_candidates=request.max_candidates,
            )
            return result_from_catalog_answer(
                request, answer, cache=self.cache_stats(),
                corpus_version=accepted_version,
            )
        except Exception as error:
            return error_result(request, classify_exception(error))

    def query_many(self, requests: Sequence[RequestLike], **options) -> List[QueryResult]:
        """Answer a batch, index-aligned, with shard-grouped batching.

        Explicit-table requests sharing ``(k, backend)`` ride one
        :meth:`TableCatalog.ask_many` call (the same composition the
        serving dispatcher uses); corpus-wide requests run the
        retrieve-then-parse pipeline individually.  Per-request failures
        become per-request error envelopes — one bad ref never fails its
        neighbours.
        """
        results: List[Optional[QueryResult]] = [None] * len(requests)
        accepted_version = self.catalog.version
        grouped: Dict[Tuple, List[Tuple[int, QueryRequest, object]]] = {}
        pinned: List[object] = []
        try:
            for position, raw_request in enumerate(requests):
                try:
                    request = self._coerce(raw_request, options)
                    request.validate()
                except Exception as error:
                    fallback = QueryRequest(
                        question=raw_request if isinstance(raw_request, str) else ""
                    )
                    coerced = (
                        raw_request if isinstance(raw_request, QueryRequest) else fallback
                    )
                    results[position] = error_result(coerced, classify_exception(error))
                    continue
                if request.resolved_mode == "any":
                    results[position] = self.query(request)
                    continue
                try:
                    # Pinned until every group has run (see query()).
                    ref = self.catalog.pin(request.target)
                except Exception as error:
                    results[position] = error_result(request, classify_exception(error))
                    continue
                pinned.append(ref)
                key = (request.k, request.backend or self.backend)
                grouped.setdefault(key, []).append((position, request, ref))
            for (k, backend), members in grouped.items():
                # deadline_ms → absolute monotonic deadlines, one budget
                # per request, started here (the in-process analogue of
                # the serving dispatcher's enqueue-time stamp).
                started = time.monotonic()
                deadlines = [
                    started + request.deadline_ms / 1000.0
                    if request.deadline_ms is not None
                    else None
                    for _, request, _ in members
                ]
                try:
                    responses = self.catalog.ask_many(
                        [(request.question, ref) for _, request, ref in members],
                        k=k,
                        workers=self.workers,
                        backend=backend,
                        pool=self.pool(backend),
                        deadlines=deadlines,
                    )
                except Exception as error:
                    coded = classify_exception(error)
                    for position, request, _ in members:
                        results[position] = error_result(request, coded)
                    continue
                for (position, request, ref), response in zip(members, responses):
                    if response.error is not None:
                        results[position] = error_result(
                            request, classify_exception(response.error)
                        )
                        continue
                    results[position] = result_from_response(
                        request, response, shard=ShardInfo.from_ref(ref),
                        cache=self.cache_stats(),
                        corpus_version=accepted_version,
                    )
        finally:
            for ref in pinned:
                self.catalog.unpin(ref)
        return [result for result in results if result is not None]

    async def aquery(self, request: RequestLike, **options) -> QueryResult:
        """Asynchronous :meth:`query` — runs off the event loop."""
        import asyncio
        import functools

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(self.query, request, **options)
        )

    # -- observability & serving ----------------------------------------------
    def cache_stats(self) -> Dict[str, Any]:
        """The shared parser/index/disk cache counters (JSON-safe)."""
        return self.catalog.interface.parser.cache_stats()

    def stats(self) -> Dict[str, Any]:
        return self.catalog.stats()

    def server(self, **kwargs):
        """An :class:`~repro.serving.AsyncServer` bound to this engine."""
        from ..serving.server import AsyncServer

        return AsyncServer(self, **kwargs)

    def __len__(self) -> int:
        return len(self.catalog)
