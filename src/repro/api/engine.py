""":class:`ReproEngine` — the one façade every query surface goes through.

The paper's system is a single interface: a user poses a question and
gets ranked candidates with NL utterances and provenance.  Before this
module the reproduction had grown three overlapping entry points
(:meth:`NLInterface.ask`, :meth:`TableCatalog.ask`/:meth:`ask_any`, the
:class:`~repro.serving.AsyncServer`) with three result shapes.  The
engine collapses them: it owns a :class:`~repro.tables.catalog.TableCatalog`
and answers every :class:`~repro.api.envelope.QueryRequest` with a
:class:`~repro.api.envelope.QueryResult` —

* ``answer`` — the one answer path: deadline checks, snapshot pinning,
  shard-grouped batches on the engine's worker pool and corpus-wide
  routing, with one raw outcome per request;
* ``query`` / ``query_many`` — synchronous envelopes over ``answer``
  (``query`` is ``query_many`` of one request);
* ``aquery`` — the asyncio face (one request off the running loop);
* ``server()`` — an :class:`~repro.serving.AsyncServer` bound to this
  engine, for micro-batched concurrent sessions and the TCP endpoint;
  its dispatcher calls ``answer`` with each batch.

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

import functools
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..tables.catalog import CatalogAnswer, CatalogError, TableCatalog, TableRef
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
from .errors import ApiError, ErrorCode, bad_request, classify_exception, timeout_error

#: What ``query`` accepts: a full request or a bare question string.
RequestLike = Union[QueryRequest, str]

#: One request's raw answer from :meth:`ReproEngine.answer`: a routed
#: ``(TableRef, InterfaceResponse)`` pair naming the pinned snapshot it
#: ran on, a corpus-wide :class:`CatalogAnswer`, or the exception that
#: replaced either.
Outcome = Union[Tuple[TableRef, Any], CatalogAnswer, Exception]


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
    interface / cache_dir / max_hot_shards / k:
        Forwarded to :class:`TableCatalog` when ``catalog`` is omitted.
    workers / backend:
        The worker pool every answer is parsed on, a server bound to
        this engine included.  The engine owns the one long-lived
        :class:`~repro.perf.pool.WorkerPool`, built lazily on
        ``backend`` and reused for every query until :meth:`close` —
        warm workers, incremental table shipping and shard pinning.
        ``workers`` sizes the process backend and a bound server's
        corpus-wide jobs executor (at most one thread per core on the
        thread backend, which parses on the calling thread: see
        :meth:`pool`).
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
            )
        self.catalog = catalog
        self.workers = workers
        self.backend = backend
        self.call_timeout = call_timeout
        self._pool = None
        self._pool_lock = threading.Lock()
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

    def update(self, ref, new_table):
        """Publish ``new_table`` as the next version of a registered shard.

        Passthrough to :meth:`TableCatalog.update`; once the superseded
        snapshot's pinned queries drain, its retirement propagates to
        every live worker pool (tables, shipped markers, explanation
        entries).
        """
        return self.catalog.update(ref, new_table)

    def _forward_retirement(self, ref) -> None:
        with self._pool_lock:
            pool = self._pool
        if pool is not None:
            pool.retire([ref.digest])

    def refs(self):
        return self.catalog.refs()

    def routing(self, question: str, max_candidates: Optional[int] = None):
        """The corpus-retrieval routing decision (no parsing).

        ``max_candidates`` keeps the first N of the ranking; ``None``
        keeps every retrieval hit.
        """
        return self.catalog.routing(question, max_candidates=max_candidates)

    def routing_sets(self, question: str, max_candidates: Optional[int] = None):
        """The router's set decision: single-shard routing + set proposals.

        Passthrough to :meth:`TableCatalog.routing_sets` — pure
        inspection of which 2–3-shard sets composition would try.
        """
        return self.catalog.routing_sets(question, max_candidates=max_candidates)

    # -- the worker pool -------------------------------------------------------
    def pool(self, backend: Optional[str] = None):
        """The engine's one worker pool, built on first use.

        A :func:`~repro.perf.pool.serving_pool` on the engine's
        ``backend``: ``workers`` processes on the process backend; on the
        thread backend one worker, which parses each unit on the thread
        that asked.  Naming another ``backend`` is a ``ValueError``.
        """
        if backend not in (None, self.backend):
            raise ValueError(
                f"this engine serves on the {self.backend!r} backend, "
                f"not {backend!r}"
            )
        with self._pool_lock:
            if self._pool is None:
                from ..perf.pool import serving_pool

                self._pool = serving_pool(
                    self.backend,
                    self.catalog.interface.parser,
                    self.workers,
                    call_timeout=self.call_timeout,
                )
            return self._pool

    def pool_stats(self) -> Dict[str, Any]:
        """``{backend: counters}`` of the live pool, ``{}`` before one is built."""
        with self._pool_lock:
            return {} if self._pool is None else {self.backend: self._pool.stats()}

    def close(self) -> None:
        """Tear down the worker pool (idempotent; the engine stays usable —
        the next query lazily builds a fresh one)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ReproEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the query API ---------------------------------------------------------
    def answer(
        self,
        requests: Sequence[QueryRequest],
        deadlines: Sequence[Optional[float]],
        executor=None,
        stats=None,
    ) -> List[Outcome]:
        """Answer validated requests, index-aligned: the one answer path.

        :meth:`query`, :meth:`query_many` and the serving dispatcher all
        answer through here.  ``deadlines`` holds each request's absolute
        ``time.monotonic()`` deadline (``None``: no deadline).  Per
        request comes back one raw :data:`Outcome`:

        * a request already past its deadline fails with a coded
          ``TIMEOUT`` and is never dispatched;
        * a routed request is **pinned** to the snapshot its target
          resolves to, so a concurrent :meth:`update` supersedes that
          snapshot but cannot retire it before the unpin in the
          ``finally`` below — the request completes against the exact
          version it resolved;
        * routed requests are grouped by ``k`` and, within a
          group, stably sorted by digest (**shard affinity**: same-shard
          questions run adjacent on the worker and caches that are
          already warm, answers unchanged), then answered by one
          :meth:`TableCatalog.ask_many` call on the engine's pool;
        * a corpus-wide request runs :meth:`TableCatalog.ask_any`, on
          ``executor`` when one is given — submitted before the routed
          groups run, so a slow corpus sweep overlaps them — else inline.

        A failure replaces only its own request's outcome.  Resolution
        takes the catalog lock, which is held across disk writes during
        eviction, so an event loop calls this from a worker thread.
        ``stats`` (the server's ``ServerStats``), when given, counts the
        pinned requests and the shard groups.
        """
        outcomes: List[Optional[Outcome]] = [None] * len(requests)
        # k -> [(position, request, pinned ref, deadline)]
        groups: Dict[Optional[int], List[Tuple]] = {}
        broadcasts: List[Tuple[int, Any]] = []
        pinned: List[TableRef] = []
        try:
            for position, (request, deadline) in enumerate(zip(requests, deadlines)):
                if deadline is not None and time.monotonic() >= deadline:
                    outcomes[position] = timeout_error(
                        f"deadline expired before dispatch of {request.question!r}"
                    )
                    continue
                if request.resolved_mode == "any":
                    call = functools.partial(
                        self.catalog.ask_any,
                        request.question,
                        k=request.k,
                        prune=request.prune,
                        pool=self.pool(),
                        max_candidates=request.max_candidates,
                    )
                    broadcasts.append(
                        (position, executor.submit(call) if executor else call)
                    )
                    continue
                try:
                    ref = self.catalog.pin(request.target)
                except CatalogError as error:
                    outcomes[position] = error
                    continue
                pinned.append(ref)
                groups.setdefault(request.k, []).append(
                    (position, request, ref, deadline)
                )
            if stats is not None:
                stats.pinned_requests += len(pinned)
            for k, group in groups.items():
                group.sort(key=lambda member: member[2].digest)
                if stats is not None:
                    stats.shard_groups += len({member[2].digest for member in group})
                try:
                    responses = self.catalog.ask_many(
                        [(request.question, ref) for _, request, ref, _ in group],
                        k=k,
                        pool=self.pool(),
                        deadlines=[deadline for _, _, _, deadline in group],
                    )
                except Exception as error:
                    for position, _, _, _ in group:
                        outcomes[position] = error
                    continue
                for (position, _, ref, _), response in zip(group, responses):
                    # A per-item pool failure (deadline expiry, a worker
                    # dead past every retry) fails only its own request.
                    outcomes[position] = (
                        response.error if response.error is not None else (ref, response)
                    )
            for position, job in broadcasts:
                try:
                    outcomes[position] = job.result() if executor else job()
                except Exception as error:
                    outcomes[position] = error
        finally:
            for ref in pinned:
                self.catalog.unpin(ref)
        return outcomes

    def query(self, request: RequestLike, **options) -> QueryResult:
        """Answer one request; never raises for request-level failures.

        ``request`` is a :class:`QueryRequest` or a bare question string
        (options — ``target``, ``mode``, ``k``, ``prune``, ``deadline_ms``,
        ``max_candidates``, ``request_id`` — then come as keywords).  It is
        :meth:`query_many` of one request: a routed question is parsed to
        its top ``k`` on the engine's pool.  Failures come back as coded
        error envelopes; call ``.raise_for_error()`` to get exception
        behaviour.
        """
        return self.query_many([request], **options)[0]

    def query_many(self, requests: Sequence[RequestLike], **options) -> List[QueryResult]:
        """Answer a batch through :meth:`answer`, one envelope per request.

        Results are index-aligned with ``requests`` and report the
        corpus version current when the call began; each request's
        ``deadline_ms`` budget starts then too.  Per-request failures
        become per-request error envelopes — one bad ref never fails its
        neighbours.
        """
        accepted_version = self.catalog.version
        results: List[Optional[QueryResult]] = [None] * len(requests)
        accepted: List[Tuple[int, QueryRequest]] = []
        for position, raw_request in enumerate(requests):
            request = None
            try:
                request = coerce_request(raw_request, options)
                request.validate()
            except Exception as error:
                if request is None:
                    request = (
                        raw_request
                        if isinstance(raw_request, QueryRequest)
                        else QueryRequest(
                            question=raw_request if isinstance(raw_request, str) else ""
                        )
                    )
                results[position] = error_result(request, classify_exception(error))
                continue
            accepted.append((position, request))
        started = time.monotonic()
        outcomes = self.answer(
            [request for _, request in accepted],
            [
                started + request.deadline_ms / 1000.0
                if request.deadline_ms is not None
                else None
                for _, request in accepted
            ],
        )
        for (position, request), outcome in zip(accepted, outcomes):
            results[position] = self._result(request, outcome, accepted_version)
        return results

    def _result(
        self, request: QueryRequest, outcome: Outcome, corpus_version: int
    ) -> QueryResult:
        """The envelope for one :meth:`answer` outcome."""
        if isinstance(outcome, Exception):
            return error_result(request, classify_exception(outcome))
        if isinstance(outcome, CatalogAnswer):
            return result_from_catalog_answer(
                request, outcome, cache=self.cache_stats(),
                corpus_version=corpus_version,
            )
        ref, response = outcome
        return result_from_response(
            request, response, shard=ShardInfo.from_ref(ref),
            cache=self.cache_stats(), corpus_version=corpus_version,
        )

    async def aquery(self, request: RequestLike, **options) -> QueryResult:
        """Asynchronous :meth:`query` — runs off the event loop."""
        import asyncio

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
