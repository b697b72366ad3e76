"""The asyncio serving layer over a :class:`~repro.api.engine.ReproEngine`.

The paper's deployment is an interactive web service: many users hold
concurrent sessions, each a stream of questions over (possibly
different) tables.  :class:`AsyncServer` is that layer for the
reproduction, built on three pieces that already exist:

* the :class:`~repro.tables.catalog.TableCatalog` routes each question
  to its shard through the content-addressed caches;
* a **micro-batching dispatcher** drains every request that arrived
  while the previous batch was executing and hands the whole batch to
  :meth:`~repro.api.engine.ReproEngine.answer` on a dispatcher thread
  via ``loop.run_in_executor`` — the same routine ``ReproEngine.query``
  answers through.  It pins each routed request's snapshot, groups the
  routed requests by shard (**shard affinity**) into one
  :meth:`~repro.tables.catalog.TableCatalog.ask_many` call per ``k``
  on the engine's worker pool, and runs corpus-wide
  requests on the server's jobs executor;
* answers stay **order-stable and bit-identical** to the sequential
  path: per-question results are deterministic and index-aligned through
  every layer, so interleaving sessions can reorder *scheduling* but
  never *answers* (locked in by ``tests/test_serving.py``).

The event loop never blocks on parsing or on the catalog lock: it only
awaits futures resolved by the dispatcher.

Every question enters through :meth:`AsyncServer.aquery`, in process
and from the TCP front end (:meth:`AsyncServer.serve`) alike.  The front
end speaks the JSON-lines protocol of :mod:`repro.api.wire`: one
request per line (``{"v": 2, "id": ..., "op": "query", ...}``; a line
without ``"v"`` is read as v2), answered with the full serialized
:class:`~repro.api.envelope.QueryResult` — candidates, routing
decision, timing — built by the same :mod:`repro.api.engine` builders
the in-process façade uses, so the wire answer is bit-identical to
:meth:`ReproEngine.query`.  Lines are framed manually with a bounded
buffer, so an oversized line gets a structured ``BAD_REQUEST`` response
instead of killing the connection.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

from .. import faults
from ..api import wire
from ..api.engine import ReproEngine, result_from_served
from ..api.envelope import QueryRequest
from ..api.errors import (
    ApiError,
    ErrorCode,
    ServerClosed,
    classify_exception,
    overloaded_error,
)

#: Chunk size for the manual line framing of the TCP front end.
_READ_CHUNK = 65536


@dataclass
class ServerStats:
    """Dispatcher counters (observability for the bench and the CLI).

    ``as_dict`` reports, with stable types (documented in the README's
    serving section): ``requests``/``batches``/``largest_batch``/
    ``errors``/``shard_groups`` as ints and ``mean_batch`` always as a
    float (``0.0`` before the first batch — historically it degraded to
    the int ``0``, which broke type-sensitive consumers).

    The failure counters tell the fault-tolerance story: ``timeouts``
    (requests that expired their ``deadline_ms``) and ``shed`` (requests
    rejected ``OVERLOADED`` by the bounded queue).  ``timeouts`` count
    separately from ``errors`` — a timeout is also an error.
    ``pinned_requests`` counts routed requests this server pinned to
    their resolved snapshot so a concurrent ``update`` could not retire
    it under them.

    Only counters the dispatcher itself owns live here; the ``stats``
    op's ``server`` section adds the pool's, the catalog's and the
    corpus index's counters, read from their owners when the payload is
    built (:meth:`AsyncServer.stats_payload`).
    """

    requests: int = 0
    batches: int = 0
    largest_batch: int = 0
    errors: int = 0
    shard_groups: int = 0
    timeouts: int = 0
    shed: int = 0
    pinned_requests: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "errors": self.errors,
            "shard_groups": self.shard_groups,
            "timeouts": self.timeouts,
            "shed": self.shed,
            "pinned_requests": self.pinned_requests,
            "mean_batch": (
                round(self.requests / self.batches, 2) if self.batches else 0.0
            ),
        }


class AsyncServer:
    """Serves concurrent sessions over a :class:`~repro.api.ReproEngine`.

    Parameters
    ----------
    engine:
        The :class:`~repro.api.ReproEngine` to serve (a bare catalog is a
        ``TypeError``: wrap it in ``ReproEngine(catalog, workers=N)``).
        All routing, eviction, cache and pool policy lives there; the
        server adds concurrency only, and every batch is answered on the
        engine's pool: on the thread backend in the dispatcher thread
        itself, on the process backend across the engine's ``workers``.
        The engine's ``workers`` also sizes the executor that runs
        corpus-wide requests, capped at the cores on the thread backend,
        where those requests parse on its threads.  The engine's owner
        closes it; stopping the server leaves its pool open.
    max_workers:
        Optional check only: a value other than the engine's
        ``workers`` is a ``ValueError``.
    max_batch:
        Upper bound on questions merged into one dispatcher batch.
    max_line_bytes:
        Upper bound on one TCP request line.  Longer lines are answered
        with a structured ``BAD_REQUEST`` (the connection survives).
    max_pending:
        Backpressure bound: the most requests the dispatcher queue will
        hold.  When it is full, new requests are **shed** immediately
        with a coded ``OVERLOADED`` error (counted in
        ``ServerStats.shed``) instead of growing the queue without
        bound.  ``0`` disables the bound.

    Use as an async context manager (``async with AsyncServer(...)``) or
    call :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        engine: ReproEngine,
        max_workers: Optional[int] = None,
        max_batch: int = 64,
        max_line_bytes: int = 64 * 1024,
        max_pending: int = 1024,
    ) -> None:
        if not isinstance(engine, ReproEngine):
            raise TypeError(
                f"AsyncServer serves a ReproEngine, not {type(engine).__name__}: "
                "wrap a catalog in ReproEngine(catalog, workers=N)"
            )
        if max_workers not in (None, engine.workers):
            raise ValueError(
                f"AsyncServer serves on its engine's {engine.workers} workers, "
                f"not {max_workers}: pass workers to the ReproEngine"
            )
        if max_batch < 1:
            raise ValueError(f"AsyncServer needs max_batch >= 1, got {max_batch}")
        if max_line_bytes < 1024:
            raise ValueError(
                f"AsyncServer needs max_line_bytes >= 1024, got {max_line_bytes}"
            )
        if max_pending < 0:
            raise ValueError(
                f"AsyncServer needs max_pending >= 0, got {max_pending}"
            )
        self.engine = engine
        self.catalog = engine.catalog
        self.max_batch = max_batch
        self.max_line_bytes = max_line_bytes
        self.max_pending = max_pending
        self.stats = ServerStats()
        # One dispatcher thread: batches run serially (on the process
        # backend, parallelism lives *inside* a batch; the thread backend
        # parses on this thread), so arrivals during a batch accumulate
        # into the next one.  The jobs executor carries corpus-wide
        # requests so they overlap the routed groups (and each other)
        # instead of running serially inline; on the thread backend,
        # where they parse on its threads, it has one per core at most.
        self._executor: Optional[ThreadPoolExecutor] = None
        self._jobs: Optional[ThreadPoolExecutor] = None
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        #: Futures of accepted-but-unanswered requests; what a graceful
        #: stop drains before tearing the dispatcher down.
        self._inflight: set = set()
        self._draining = False

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> "AsyncServer":
        """Start the dispatcher (idempotent; ``aquery`` calls it lazily)."""
        if self._dispatcher is None or self._dispatcher.done():
            self._queue = asyncio.Queue(
                maxsize=self.max_pending if self.max_pending else 0
            )
            self._draining = False
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
            jobs = self.engine.workers
            if self.engine.backend == "thread":
                # Corpus-wide requests parse on these threads themselves.
                from ..perf.pool import parse_threads

                jobs = parse_threads(jobs)
            self._jobs = ThreadPoolExecutor(
                max_workers=jobs, thread_name_prefix="repro-serve-job"
            )
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )
        return self

    async def stop(self, drain: bool = True, drain_timeout: float = 60.0) -> None:
        """Stop the server; by default **drain** accepted work first.

        Graceful shutdown: intake closes immediately (new :meth:`aquery`
        calls get a ``SERVER_CLOSED`` error envelope), every
        already-accepted request is allowed up to ``drain_timeout``
        seconds to finish, and only then is the dispatcher torn down.
        ``drain=False`` restores the old hard stop that fails queued
        requests.  Idempotent and safe to call concurrently — a second
        ``stop`` (even racing the first) returns cleanly.

        Concurrent :meth:`aquery` calls racing a stop get a clean
        ``SERVER_CLOSED`` (never an internal ``AttributeError`` — the
        queue handoff is identity-checked).  The engine's pool stays
        open: its owner closes the engine.
        """
        self._draining = True
        if drain and self._inflight:
            done, pending = await asyncio.wait(
                list(self._inflight), timeout=drain_timeout
            )
            for future in pending:  # drain budget exhausted: hard-fail
                if not future.done():
                    future.set_exception(ServerClosed("server stopped"))
            # asyncio.wait hands back completed futures without consuming
            # their exceptions; the real awaiters do.  Touch them here so
            # futures abandoned by cancelled sessions don't warn.
            for future in done:
                if future.cancelled():
                    continue
                future.exception()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._queue is not None:
            while True:
                try:
                    *_, future = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if not future.done():
                    future.set_exception(ServerClosed("server stopped"))
            self._queue = None
        # The dispatcher executor first (waits out any in-flight
        # engine.answer, which may still submit to the jobs executor),
        # then the jobs executor.
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._jobs is not None:
            self._jobs.shutdown(wait=True)
            self._jobs = None
        # Lazy restart stays possible (historic semantics): only an
        # in-progress drain turns new requests away.
        self._draining = False

    async def __aenter__(self) -> "AsyncServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the asyncio API -------------------------------------------------------
    async def _enqueue(
        self, request: QueryRequest, deadline: Optional[float]
    ) -> object:
        """Queue one request and await its answer (race-safe vs ``stop``).

        The queue reference is captured once after :meth:`start`;
        a concurrent :meth:`stop` — before the put, or landing between
        the put and the dispatcher picking the request up — surfaces as
        :class:`~repro.api.errors.ServerClosed`, never as an
        ``AttributeError`` on the nulled queue (the historical race).
        """
        if self._draining:
            # A graceful stop is underway: accepted work drains, new
            # work is turned away at the door.
            raise ServerClosed("server stopping")
        await self.start()
        queue = self._queue
        if queue is None:  # stop() ran between start() and here
            raise ServerClosed("server stopped")
        future = asyncio.get_running_loop().create_future()
        try:
            # Backpressure: never wait for queue room — a full queue
            # sheds the request immediately with a coded, retryable
            # OVERLOADED instead of hiding the overload in queue delay.
            queue.put_nowait((request, deadline, future))
        except asyncio.QueueFull:
            self.stats.shed += 1
            raise overloaded_error(
                f"server overloaded: {self.max_pending} requests already "
                "pending; retry with backoff"
            ) from None
        self._inflight.add(future)
        future.add_done_callback(self._inflight.discard)
        if self._queue is not queue and not future.done():
            # stop() swapped the queue out from under the put: the
            # request can never be served — fail it like the drained ones.
            future.set_exception(ServerClosed("server stopped"))
        return await future

    async def aquery(self, request: QueryRequest):
        """Answer one :class:`QueryRequest` through the dispatcher.

        The server's one entry point.  Safe to call from any number of
        concurrent tasks: the request is validated, queued,
        micro-batched with whatever else arrived and answered off the
        event loop by :meth:`ReproEngine.answer`.  The answer comes back
        as a :class:`~repro.api.envelope.QueryResult` built by the shared
        :mod:`repro.api.engine` builders — bit-identical (modulo timing)
        to :meth:`ReproEngine.query` on the same catalog.  Failures come
        back as coded error envelopes, never as exceptions: a full queue
        is ``OVERLOADED``, a stopping server ``SERVER_CLOSED``, an
        expired ``deadline_ms`` ``TIMEOUT``.
        """
        from ..api.engine import error_result
        from ..api.envelope import ShardInfo

        try:
            request.validate()
            # Acceptance pins the observation point: whatever the corpus
            # version is *now* is the version this answer is a read of,
            # even if updates land while the request sits in the queue.
            accepted_version = self.catalog.version
            # The budget starts ticking at acceptance: queue wait,
            # dispatch and worker time all draw from the same deadline.
            deadline = (
                time.monotonic() + request.deadline_ms / 1000.0
                if request.deadline_ms is not None
                else None
            )
            outcome = await self._enqueue(request, deadline)
        except Exception as error:
            return error_result(request, classify_exception(error))
        # A routed outcome carries the resolved ref, whose *registered*
        # identity (which may alias the table's own name) is exactly
        # what ReproEngine.query reports.
        if isinstance(outcome, tuple):
            ref, answer = outcome
            shard = ShardInfo.from_ref(ref)
        else:
            shard, answer = None, outcome
        return result_from_served(
            request.question,
            answer,
            request=request,
            shard=shard,
            corpus_version=accepted_version,
        )

    # -- dispatcher ------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.stats.requests += len(batch)
            self.stats.batches += 1
            self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
            answer = functools.partial(
                self.engine.answer,
                [request for request, _, _ in batch],
                [deadline for _, deadline, _ in batch],
                executor=self._jobs,
                stats=self.stats,
            )
            try:
                outcomes = await loop.run_in_executor(self._executor, answer)
            except asyncio.CancelledError:
                # stop() cancelled us mid-batch: fail the in-flight
                # futures so their sessions unblock, then shut down.
                for *_, future in batch:
                    if not future.done():
                        future.set_exception(ServerClosed("server stopped"))
                raise
            except Exception as error:  # pragma: no cover - defensive
                self.stats.errors += len(batch)
                for *_, future in batch:
                    if not future.done():
                        future.set_exception(
                            ServerClosed(f"batch execution failed: {error!r}")
                        )
                continue
            for (*_, future), outcome in zip(batch, outcomes):
                if future.done():  # the session was cancelled while parsing
                    continue
                if isinstance(outcome, Exception):
                    self.stats.errors += 1
                    if classify_exception(outcome).code is ErrorCode.TIMEOUT:
                        self.stats.timeouts += 1
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)

    # -- TCP front end ---------------------------------------------------------
    async def serve(self, host: str = "127.0.0.1", port: int = 8765):
        """Open the JSON-lines TCP endpoint; returns the asyncio server.

        One request per line; see :mod:`repro.api.wire`.  ``{"op":
        "query", ...}`` (the default op) answers with the serialized
        ``QueryResult``, ``{"op": "list"}`` enumerates the catalog,
        ``{"op": "stats"}`` reports catalog + dispatcher counters.
        """
        await self.start()
        return await asyncio.start_server(self._handle_client, host, port)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def send(payload: Dict[str, object]) -> None:
            if faults.should_fire("wire.drop_connection"):
                # Injected fault: kill the connection with a hard RST
                # instead of the response — the client must surface a
                # coded SERVER_CLOSED, never a raw traceback.
                writer.transport.abort()
                raise ConnectionResetError("injected wire.drop_connection")
            writer.write(
                json.dumps(payload, ensure_ascii=False).encode("utf-8") + b"\n"
            )
            await writer.drain()

        # Lines are framed manually (reader.read, never reader.readline):
        # StreamReader.readline raises LimitOverrunError/ValueError on a
        # line longer than the stream limit and leaves the connection
        # unusable — an oversized request would kill the session with no
        # response.  With our own buffer the oversized line is answered
        # with a structured BAD_REQUEST and *discarded up to its
        # newline*, and the connection keeps serving.
        buffer = bytearray()
        dropping = False
        try:
            while True:
                newline = buffer.find(b"\n")
                if newline >= 0:
                    line = bytes(buffer[:newline])
                    del buffer[: newline + 1]
                    if dropping:
                        # The tail of an already-answered oversized line.
                        dropping = False
                        continue
                    if len(line) > self.max_line_bytes:
                        await send(self._oversized_payload())
                        continue
                    await send(await self._handle_line(line))
                    continue
                if dropping:
                    buffer.clear()
                elif len(buffer) > self.max_line_bytes:
                    await send(self._oversized_payload())
                    dropping = True
                    buffer.clear()
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    if buffer and not dropping:
                        # Trailing unterminated line at EOF (legacy
                        # readline behaviour): answer it before closing.
                        await send(await self._handle_line(bytes(buffer)))
                    break
                buffer += chunk
        except ConnectionResetError:
            pass  # the peer is gone (or an injected drop): just clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    def _oversized_payload(self) -> Dict[str, object]:
        return wire.v2_error_response(
            ApiError(
                ErrorCode.BAD_REQUEST,
                f"bad request: line exceeds {self.max_line_bytes} bytes",
            )
        )

    async def _handle_line(self, line: bytes) -> Dict[str, object]:
        """Answer one wire line with a v2 response envelope."""
        try:
            request = wire.decode_line(line)
        except ApiError as error:
            return wire.v2_error_response(error)
        request_id = request.get("id")
        try:
            wire.check_version(request)
        except ApiError as error:
            return wire.v2_error_response(error, request_id)
        op = request.get("op", "query")
        if op not in wire.V2_OPS:
            return wire.v2_error_response(
                ApiError(ErrorCode.UNKNOWN_OP, f"unknown op {op!r}"), request_id
            )
        if op == "hello":
            # ReproClient sends hello to check it reached a v2 server.
            return wire.v2_ok_response(
                request_id, versions=list(wire.PROTOCOL_VERSIONS)
            )
        if op == "ping":
            return wire.v2_ok_response(request_id, pong=True)
        if op == "list":
            return wire.v2_ok_response(request_id, tables=self._table_listing())
        if op == "stats":
            return wire.v2_ok_response(request_id, **self.stats_payload())
        try:
            query = wire.query_request_from_wire(request)
            query.validate()
        except Exception as error:
            return wire.v2_error_response(classify_exception(error), request_id)
        result = await self.aquery(query)
        return wire.v2_result_response(result, request_id)

    # -- shared wire helpers ---------------------------------------------------
    def _table_listing(self) -> List[Dict[str, object]]:
        return wire.table_listing(self.catalog)

    def stats_payload(self) -> Dict[str, object]:
        """The ``stats`` op's body: catalog counters + dispatcher counters.

        The ``server`` section adds, to the dispatcher's own counters,
        the ones the engine's pool (``respawns``/``downgrades``), the catalog
        (``updates``/``retired``) and the corpus index (its O(1) scale
        counters) own — read from them here, so every value is current
        whenever the payload is built.  Reading the catalog's counters
        catches the corpus index up first, so the ``retrieval_*`` fields
        always count every live shard.
        """
        payload = wire.stats_payload(self.catalog, self.stats.as_dict())
        pool = next(iter(self.engine.pool_stats().values()), {})
        catalog = payload["catalog"]
        retrieval = catalog["retrieval"]
        payload["server"].update(
            worker_respawns=int(pool.get("respawns", 0)),
            pool_downgrades=int(pool.get("downgrades", 0)),
            corpus_updates=catalog["updates"],
            shards_retired=catalog["retired"],
            retrieval_shards=int(retrieval["shards"]),
            retrieval_terms=int(retrieval["postings_terms"]),
            retrieval_postings_bytes=int(retrieval["postings_bytes"]),
        )
        return payload
