"""Tests for the asyncio serving layer.

The acceptance bar: >= 8 concurrent sessions through ``aquery`` with
order-stable outputs, bit-identical to the sequential path (also under
hot-set eviction), plus the v2 TCP front end.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import ErrorCode, QueryRequest, ReproEngine, ShardInfo, result_from_response
from repro.interface import NLInterface
from repro.tables import TableCatalog
from repro.serving import AsyncServer


@pytest.fixture
def corpus(olympics_table, medals_table, roster_table):
    questions = {
        "olympics": "which country hosted in 2004",
        "medals": "how many gold did Fiji win",
        "roster": "which club has the most players",
    }
    return [olympics_table, medals_table, roster_table], questions


@pytest.fixture
def catalog(corpus):
    tables, _ = corpus
    catalog = TableCatalog()
    catalog.register_all(tables)
    return catalog


@pytest.fixture
def engines():
    """``engines(catalog, workers)``: a thread engine to serve ``catalog``.

    A server leaves its engine's pool open, so every engine built here
    is closed when its test ends.
    """
    built = []

    def build(catalog, workers):
        engine = ReproEngine(catalog, workers=workers)
        built.append(engine)
        return engine

    yield build
    for engine in built:
        engine.close()


def _signature(response):
    return [
        (item.rank, item.answer, item.utterance, item.candidate.sexpr, item.candidate.score)
        for item in response.explained
    ]


def _ask(server, question, target=None, **fields):
    """One request through the server's only entry point."""
    return server.aquery(QueryRequest(question=question, target=target, **fields))


async def _session(server, items):
    """One user session: each question awaits the previous answer."""
    return [await _ask(server, question, target) for question, target in items]


class TestAsyncServer:
    def test_concurrent_sessions_are_order_stable_and_bit_identical(
        self, corpus, catalog, engines
    ):
        """Acceptance: >= 8 concurrent sessions, outputs identical to the
        sequential NLInterface path, per-session order preserved."""
        tables, questions = corpus
        workload = [(questions[table.name], table.name) for table in tables] * 2

        reference_interface = NLInterface()
        reference = [
            _signature(reference_interface.ask(question, tables[i % 3]))
            for i, (question, _) in enumerate(workload)
        ]

        async def drive():
            async with engines(catalog, 4).server() as server:
                sessions = [_session(server, workload) for _ in range(8)]
                return await asyncio.gather(*sessions), server.stats.as_dict()

        per_session, stats = asyncio.run(drive())
        assert len(per_session) == 8
        for results in per_session:
            assert [_signature(result.raw) for result in results] == reference
        assert stats["requests"] == 8 * len(workload)
        assert stats["errors"] == 0
        # Shard-affinity batching composed every batch (a group per
        # distinct shard, never more groups than requests) — and, per the
        # assertions above, changed no output.
        assert stats["batches"] <= stats["shard_groups"] <= stats["requests"]

    def test_hot_set_eviction_keeps_answers_identical(self, corpus, tmp_path, engines):
        """Serving under memory pressure: with at most 2 of 3 shards hot,
        concurrent sessions evict and rehydrate shards, and every answer
        still equals the full parse of an unbounded catalog."""
        tables, questions = corpus
        workload = [(questions[table.name], table.name) for table in tables] * 2
        reference = TableCatalog()
        reference.register_all(tables)
        expected = [
            result_from_response(
                QueryRequest(question=question, target=name),
                reference.ask(question, name),
                shard=ShardInfo.from_ref(reference.resolve(name)),
            ).canonical_dict()
            for question, name in workload
        ]
        catalog = TableCatalog(cache_dir=str(tmp_path), max_hot_shards=2)
        catalog.register_all(tables)

        async def drive():
            async with engines(catalog, 4).server() as server:
                return await asyncio.gather(
                    *(_session(server, workload) for _ in range(4))
                )

        for results in asyncio.run(drive()):
            assert [result.canonical_dict() for result in results] == expected
        assert catalog.stats()["evictions"] >= 1

    def test_batches_are_composed_with_shard_affinity(self, corpus, catalog, engines):
        """Within one dispatcher batch, requests reach ask_many grouped by
        resolved shard (contiguous digest runs), in arrival order within
        each run — and answers still come back request-aligned."""
        tables, questions = corpus
        observed: list = []
        inner_ask_many = catalog.ask_many

        def recording_ask_many(items, **kwargs):
            observed.append([ref.digest for _, ref in items])
            return inner_ask_many(items, **kwargs)

        catalog.ask_many = recording_ask_many
        # Interleave shards so arrival order is maximally un-grouped.
        interleaved = [
            (questions[table.name], table.name)
            for _ in range(3)
            for table in tables
        ]

        async def drive():
            async with engines(catalog, 4).server() as server:
                return await asyncio.gather(
                    *(_ask(server, question, name) for question, name in interleaved)
                )

        results = asyncio.run(drive())
        catalog.ask_many = inner_ask_many
        for (question, name), result in zip(interleaved, results):
            assert _signature(result.raw) == _signature(catalog.ask(question, name))
        for batch_digests in observed:
            runs = [
                digest
                for i, digest in enumerate(batch_digests)
                if i == 0 or digest != batch_digests[i - 1]
            ]
            assert len(runs) == len(set(runs)), (
                f"batch not grouped by shard: {batch_digests}"
            )

    def test_micro_batching_merges_concurrent_arrivals(self, corpus, catalog, engines):
        _, questions = corpus

        async def drive():
            async with engines(catalog, 4).server() as server:
                await asyncio.gather(
                    *(_ask(server, questions["olympics"], "olympics") for _ in range(12))
                )
                return server.stats.as_dict()

        stats = asyncio.run(drive())
        assert stats["requests"] == 12
        # At least some arrivals were merged (the first batch may be 1).
        assert stats["batches"] < 12

    def test_gathered_queries_are_index_aligned(self, corpus, catalog, engines):
        tables, questions = corpus
        items = [(questions[table.name], table.name) for table in tables]

        async def drive():
            async with engines(catalog, 4).server() as server:
                return await asyncio.gather(
                    *(_ask(server, question, name) for question, name in items)
                )

        results = asyncio.run(drive())
        for (question, name), result in zip(items, results):
            assert _signature(result.raw) == _signature(catalog.ask(question, name))

    def test_mixed_k_requests_keep_their_own_k(self, corpus, catalog, engines):
        _, questions = corpus

        async def drive():
            async with engines(catalog, 4).server() as server:
                return await asyncio.gather(
                    _ask(server, questions["olympics"], "olympics", k=2),
                    _ask(server, questions["olympics"], "olympics", k=5),
                )

        small, large = asyncio.run(drive())
        assert len(small.candidates) == 2
        assert len(large.candidates) == 5

    def test_corpus_wide_routing(self, corpus, catalog, engines):
        tables, questions = corpus

        async def drive():
            async with engines(catalog, 4).server() as server:
                return await _ask(server, questions["olympics"])  # no target

        result = asyncio.run(drive())
        assert result.routing.mode == "any"
        assert result.shard.digest == tables[0].fingerprint.digest
        assert result.answer == ("Greece",)

    def test_unknown_ref_fails_only_its_own_request(self, corpus, catalog, engines):
        _, questions = corpus

        async def drive():
            async with engines(catalog, 4).server() as server:
                return await asyncio.gather(
                    _ask(server, questions["olympics"], "olympics"),
                    _ask(server, questions["olympics"], "atlantis"),
                    _ask(server, questions["medals"], "medals"),
                )

        good, bad, also_good = asyncio.run(drive())
        assert good.answer == ("Greece",)
        assert bad.error_code is ErrorCode.UNKNOWN_TABLE
        assert also_good.top is not None

    def test_server_serves_on_its_engines_pool(self, corpus, catalog):
        """A server over an engine parses on the engine's own pool: over
        ``ReproEngine(workers=1, backend="process")`` that is one worker
        process, with no pool setting named again — and naming a
        different one is an error, not a setting silently ignored."""
        _, questions = corpus
        engine = ReproEngine(catalog, workers=1, backend="process")
        with pytest.raises(ValueError):
            engine.server(max_workers=engine.workers + 1)
        assert engine.server(max_workers=engine.workers).engine is engine

        async def drive():
            async with engine.server() as server:
                return await _ask(server, questions["olympics"], "olympics")

        try:
            result = asyncio.run(drive())
            pools = engine.pool_stats()
        finally:
            engine.close()
        assert result.answer == ("Greece",)
        assert list(pools) == ["process"]
        assert pools["process"]["workers"] == 1
        assert pools["process"]["units"] == 1

    def test_thread_backend_parses_on_at_most_one_jobs_thread_per_core(
        self, corpus, catalog, engines
    ):
        """On the thread backend routed groups parse on the dispatcher
        and corpus-wide requests on the jobs executor, which has no more
        threads than cores whatever ``workers`` says; no pool thread
        starts."""
        import threading
        import time

        from repro.perf.pool import parse_threads

        _, questions = corpus
        parser = catalog.interface.parser
        real_parse = parser.parse
        parsed_on = set()

        def slow_parse(*args, **kwargs):
            parsed_on.add(threading.current_thread().name)
            time.sleep(0.02)
            return real_parse(*args, **kwargs)

        parser.parse = slow_parse
        corpus_wide = [
            "which country hosted in 2004", "which city hosted in 2008",
            "how many gold did Fiji win", "which club has the most players",
            "what is the highest year", "which nation won the most silver",
        ]

        async def drive():
            async with engines(catalog, 8).server(max_batch=8) as server:
                return await asyncio.gather(
                    _ask(server, questions["olympics"], "olympics"),
                    *(_ask(server, question) for question in corpus_wide),
                )

        results = asyncio.run(drive())
        assert all(result.ok for result in results)
        jobs = {name for name in parsed_on if name.startswith("repro-serve-job")}
        assert jobs and len(jobs) <= parse_threads(8)
        assert all(name.startswith("repro-serve") for name in parsed_on)

    def test_hard_stop_fails_queued_requests(self, corpus, catalog, engines):
        _, questions = corpus

        async def drive():
            server = engines(catalog, 4).server()
            await server.start()
            # Enqueue without giving the dispatcher a chance to finish,
            # then hard-stop: the pending request must fail, not hang.
            task = asyncio.get_running_loop().create_task(
                _ask(server, questions["olympics"], "olympics")
            )
            await asyncio.sleep(0)
            await server.stop(drain=False)
            result = await asyncio.wait_for(task, timeout=10)
            assert result.error_code is ErrorCode.SERVER_CLOSED

        asyncio.run(drive())

    def test_graceful_stop_drains_accepted_requests(self, corpus, catalog, engines):
        """The default stop() finishes accepted work before closing —
        an enqueued request gets its real answer, while a request
        arriving *during* the drain is turned away with SERVER_CLOSED."""
        _, questions = corpus

        async def drive():
            server = engines(catalog, 4).server()
            await server.start()
            task = asyncio.get_running_loop().create_task(
                _ask(server, questions["olympics"], "olympics")
            )
            await asyncio.sleep(0)
            await server.stop()
            result = await asyncio.wait_for(task, timeout=10)
            assert result.answer == ("Greece",)
            # While a drain is in progress, new work is turned away.
            server._draining = True
            turned_away = await _ask(server, questions["olympics"], "olympics")
            assert turned_away.error_code is ErrorCode.SERVER_CLOSED
            server._draining = False
            # After the drain finishes, lazy restart works again.
            again = await _ask(server, questions["olympics"], "olympics")
            assert again.answer == ("Greece",)
            await server.stop()

        asyncio.run(drive())


class TestServerTakesAnEngine:
    """A server serves an engine and leaves its pool to the engine."""

    def test_a_bare_catalog_is_a_type_error(self, catalog):
        with pytest.raises(TypeError, match="ReproEngine"):
            AsyncServer(catalog)

    def test_a_stopped_server_leaves_the_engines_pool_warm(
        self, corpus, catalog, engines
    ):
        """A second server over the same engine answers from the pool the
        first one warmed: stopping a server does not close it."""
        _, questions = corpus
        engine = engines(catalog, 2)

        async def drive():
            async with engine.server() as server:
                return await _ask(server, questions["olympics"], "olympics")

        first = asyncio.run(drive())
        pool = engine.pool()
        hits = pool._ranked.stats()["hits"]
        second = asyncio.run(drive())
        assert engine.pool() is pool
        assert pool._ranked.stats()["hits"] == hits + 1
        assert second.canonical_dict() == first.canonical_dict()


class TestTcpEndpoint:
    def test_json_lines_roundtrip(self, corpus, catalog, engines):
        tables, questions = corpus

        async def drive():
            async with engines(catalog, 4).server() as server:
                try:
                    tcp = await server.serve(host="127.0.0.1", port=0)
                except OSError as error:  # pragma: no cover - sandboxed CI
                    pytest.skip(f"cannot bind a loopback socket: {error}")
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)

                async def call(request) -> dict:
                    data = request if isinstance(request, bytes) else (
                        json.dumps(request).encode("utf-8")
                    )
                    writer.write(data + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                assert (await call({"op": "ping"}))["pong"] is True

                listing = await call({"op": "list"})
                assert {entry["name"] for entry in listing["tables"]} == {
                    table.name for table in tables
                }

                # No hello, no "v": bare lines are answered as v2.
                routed = await call(
                    {"question": questions["olympics"], "target": "olympics"}
                )
                assert routed["v"] == 2 and routed["ok"] is True
                assert routed["result"]["answer"] == ["Greece"]
                assert routed["result"]["routing"]["mode"] == "table"

                # The retired v1 "table" key still names the target.
                aliased = await call(
                    {"question": questions["olympics"], "table": "olympics"}
                )
                assert aliased["result"]["answer"] == ["Greece"]

                anywhere = await call({"question": questions["olympics"]})
                assert anywhere["result"]["routing"]["mode"] == "any"
                assert anywhere["result"]["answer"] == ["Greece"]

                stats = await call({"op": "stats"})
                assert stats["catalog"]["shards"] == 3
                assert stats["server"]["requests"] >= 3

                unknown = await call({"question": "x", "target": "atlantis"})
                assert unknown["ok"] is False
                assert unknown["error"]["code"] == "UNKNOWN_TABLE"

                garbage = await call(b"not json")
                assert garbage["v"] == 2 and garbage["ok"] is False
                assert garbage["error"]["code"] == "BAD_REQUEST"

                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())


class TestServingRaceRegressions:
    """The stop()/aquery() races and thread-placement contracts."""

    def test_ask_racing_stop_is_server_closed_never_attribute_error(
        self, corpus, catalog, engines
    ):
        """Regression: a stop() landing while requests were in flight
        used to surface as ``AttributeError: 'NoneType' object has no
        attribute 'put'`` on the nulled queue.  Every racing request must
        now end in a real answer or a clean SERVER_CLOSED."""
        _, questions = corpus

        async def drive():
            server = engines(catalog, 2).server()
            await server.start()
            tasks = [
                asyncio.get_running_loop().create_task(
                    _ask(server, questions["olympics"], "olympics")
                )
                for _ in range(8)
            ]
            await asyncio.sleep(0)
            await server.stop()
            outcomes = await asyncio.gather(*tasks)
            # A straggler request may have lazily restarted the dispatcher;
            # tear it down again so nothing outlives the loop.
            await server.stop()
            return outcomes

        for outcome in asyncio.run(drive()):
            assert outcome.error_code is ErrorCode.SERVER_CLOSED or (
                outcome.top is not None
            )

    def test_stop_nulling_queue_between_start_and_capture(self, corpus, catalog, engines):
        """The exact historical interleaving, pinned deterministically:
        stop() nulls the queue after aquery()'s lazy start() returns but
        before the queue reference is captured."""
        _, questions = corpus

        async def drive():
            server = engines(catalog, 8).server()
            await server.start()
            real_start = server.start

            async def start_then_lose_queue():
                await real_start()
                server._queue = None  # what the concurrent stop() does

            server.start = start_then_lose_queue
            result = await _ask(server, questions["olympics"], "olympics")
            assert result.error_code is ErrorCode.SERVER_CLOSED
            server.start = real_start
            await server.stop()

        asyncio.run(drive())

    def test_stop_swapping_queue_after_the_put(self, corpus, catalog, engines):
        """The narrower window: stop() drains and nulls the queue right
        after the put but before the dispatcher picks the request up."""
        _, questions = corpus

        async def drive():
            server = engines(catalog, 8).server()
            await server.start()
            # Let the dispatcher park on the original queue, then hand
            # _enqueue a side queue nothing consumes, whose put itself
            # loses the queue — the identity check must fail the future
            # instead of letting it hang.
            await asyncio.sleep(0)
            real_queue = server._queue
            real_start = server.start
            parked = asyncio.Queue()
            real_put = parked.put_nowait

            def put_then_lose_queue(item):
                real_put(item)
                server._queue = None

            parked.put_nowait = put_then_lose_queue
            server._queue = parked

            async def noop_start():
                return server

            server.start = noop_start
            result = await asyncio.wait_for(
                _ask(server, questions["olympics"], "olympics"), timeout=10
            )
            assert result.error_code is ErrorCode.SERVER_CLOSED
            server.start = real_start
            server._queue = real_queue
            await server.stop()

        asyncio.run(drive())

    def test_resolve_runs_on_dispatcher_thread_not_event_loop(
        self, corpus, catalog, engines
    ):
        """Regression: aquery used to call catalog.resolve on the event
        loop; the catalog lock (held across disk writes during eviction)
        could stall every session.  Resolution (``catalog.pin``, which
        resolves the target) must happen on the dispatcher thread."""
        import threading

        _, questions = corpus
        seen_threads = []
        real_pin = catalog.pin

        def recording_pin(ref):
            seen_threads.append(threading.current_thread().name)
            return real_pin(ref)

        catalog.pin = recording_pin

        async def drive():
            async with engines(catalog, 2).server() as server:
                return await _ask(server, questions["olympics"], "olympics")

        try:
            result = asyncio.run(drive())
        finally:
            catalog.pin = real_pin
        assert result.ok
        assert seen_threads
        for name in seen_threads:
            assert name.startswith("repro-serve")
            assert name != threading.main_thread().name

    def test_broadcasts_run_on_jobs_executor_interleaved_with_routed(
        self, corpus, catalog, engines
    ):
        """Regression: corpus-wide ask_any used to run inline on the
        dispatcher thread, strictly before the routed groups.  In a mixed
        batch it must run on the jobs executor, and both halves must stay
        bit-identical to the direct catalog calls."""
        import threading

        _, questions = corpus
        seen_threads = []
        real_ask_any = catalog.ask_any

        def recording_ask_any(question, **kwargs):
            seen_threads.append(threading.current_thread().name)
            return real_ask_any(question, **kwargs)

        catalog.ask_any = recording_ask_any

        async def drive():
            async with engines(catalog, 2).server(max_batch=8) as server:
                routed_task = asyncio.get_running_loop().create_task(
                    _ask(server, questions["olympics"], "olympics")
                )
                broadcast_task = asyncio.get_running_loop().create_task(
                    _ask(server, questions["medals"])
                )
                return await asyncio.gather(routed_task, broadcast_task)

        try:
            routed, broadcast = asyncio.run(drive())
        finally:
            catalog.ask_any = real_ask_any
        assert seen_threads
        for name in seen_threads:
            assert name.startswith("repro-serve-job")
        assert routed.answer == ("Greece",)
        reference = real_ask_any(questions["medals"])
        assert broadcast.answer == reference.answer
        assert broadcast.shard.digest == reference.best_ref.digest


class TestBackpressure:
    def test_full_queue_sheds_with_coded_overloaded(self, corpus, catalog, engines):
        """With ``max_pending=1`` and the dispatcher pinned mid-batch,
        the first waiting request queues and the next is shed
        immediately with a retryable coded OVERLOADED (never queue
        delay, never a raw exception)."""
        import threading

        from repro.api.errors import RETRYABLE_CODES

        _, questions = corpus

        async def drive():
            server = engines(catalog, 2).server(max_pending=1)
            await server.start()
            gate = threading.Event()
            real_answer = server.engine.answer

            def gated_answer(*args, **kwargs):
                gate.wait(timeout=30)
                return real_answer(*args, **kwargs)

            server.engine.answer = gated_answer
            loop = asyncio.get_running_loop()
            # First request: picked up by the dispatcher, stuck at the gate.
            busy = loop.create_task(_ask(server, questions["olympics"], "olympics"))
            await asyncio.sleep(0.05)
            # Second request: fills the (size-1) queue.
            queued = loop.create_task(_ask(server, questions["medals"], "medals"))
            await asyncio.sleep(0.05)
            # Third request: the queue is full — shed, coded, immediate.
            shed = await _ask(server, questions["roster"], "roster")
            assert shed.error_code is ErrorCode.OVERLOADED
            assert shed.error_code in RETRYABLE_CODES
            gate.set()
            first, second = await asyncio.gather(busy, queued)
            stats = server.stats.as_dict()
            await server.stop()
            return first, second, stats

        first, second, stats = asyncio.run(drive())
        # The accepted requests were served normally after the stall.
        assert first.top is not None and second.top is not None
        assert stats["shed"] == 1
        assert stats["errors"] == 0  # shed happens before acceptance

    def test_double_stop_is_clean(self, corpus, catalog, engines):
        """stop() is idempotent: calling it twice (or on a server that
        never started) returns cleanly, no tracebacks, no hangs."""
        _, questions = corpus

        async def drive():
            server = engines(catalog, 2).server()
            await server.stop()  # never started: still clean
            result = await _ask(server, questions["olympics"], "olympics")
            await server.stop()
            await server.stop()
            return result

        result = asyncio.run(drive())
        assert result.answer == ("Greece",)


class TestServerStats:
    def test_mean_batch_is_always_a_float(self, catalog, engines):
        """Regression: mean_batch degraded to the int 0 before the first
        batch but was a rounded float afterwards — the type is stable now."""
        server = engines(catalog, 8).server()
        assert isinstance(server.stats.as_dict()["mean_batch"], float)
        assert server.stats.as_dict()["mean_batch"] == 0.0
        server.stats.requests = 7
        server.stats.batches = 2
        assert isinstance(server.stats.as_dict()["mean_batch"], float)
        assert server.stats.as_dict()["mean_batch"] == 3.5


async def _tcp_call(reader, writer, request) -> dict:
    data = request if isinstance(request, bytes) else (
        json.dumps(request).encode("utf-8")
    )
    writer.write(data + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


async def _open_server(server):
    try:
        tcp = await server.serve(host="127.0.0.1", port=0)
    except OSError as error:  # pragma: no cover - sandboxed CI
        pytest.skip(f"cannot bind a loopback socket: {error}")
    port = tcp.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    return tcp, reader, writer


class TestWireProtocolV2:
    def test_hello_negotiates_and_query_matches_in_process_engine(
        self, corpus, catalog, engines
    ):
        """Acceptance: the v2 TCP path returns answers bit-identical to
        in-process ReproEngine.query — including ask_any routing
        metadata — modulo the run-dependent fields canonical_dict strips."""
        from repro.api import QueryResult

        tables, questions = corpus
        engine = ReproEngine(catalog)

        async def drive():
            async with engines(catalog, 4).server() as server:
                tcp, reader, writer = await _open_server(server)
                hello = await _tcp_call(reader, writer, {"v": 2, "op": "hello"})
                assert hello["ok"] is True and hello["versions"] == [2]

                # Routed to one table.
                routed = await _tcp_call(
                    reader, writer,
                    {"v": 2, "id": 1, "op": "query",
                     "question": questions["olympics"], "target": "olympics"},
                )
                assert routed["v"] == 2 and routed["id"] == 1 and routed["ok"]
                wire_result = QueryResult.from_dict(routed["result"])
                local = engine.query(questions["olympics"], target="olympics")
                assert wire_result.canonical_dict() == local.canonical_dict()
                assert wire_result.answer == ("Greece",)

                # Corpus-wide: the routing decision crosses the wire.
                anywhere = await _tcp_call(
                    reader, writer,
                    {"v": 2, "id": 2, "op": "query",
                     "question": questions["olympics"]},
                )
                wire_any = QueryResult.from_dict(anywhere["result"])
                local_any = engine.query(questions["olympics"])
                assert wire_any.canonical_dict() == local_any.canonical_dict()
                assert wire_any.routing.mode == "any"
                assert wire_any.routing.pruned is True
                assert wire_any.routing.scores  # per-shard retrieval scores
                assert wire_any.shard.name == "olympics"

                # Lines may omit "v" and still speak v2.
                bare = await _tcp_call(
                    reader, writer, {"question": questions["medals"],
                                     "target": "medals"},
                )
                assert bare["v"] == 2 and bare["ok"] is True

                # v2 auxiliary ops.
                pong = await _tcp_call(reader, writer, {"v": 2, "op": "ping"})
                assert pong == {"v": 2, "id": None, "ok": True, "pong": True}
                listing = await _tcp_call(reader, writer, {"v": 2, "op": "list"})
                assert {entry["name"] for entry in listing["tables"]} == {
                    table.name for table in tables
                }
                stats = await _tcp_call(reader, writer, {"v": 2, "op": "stats"})
                assert stats["ok"] and "server" in stats and "catalog" in stats

                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())

    def test_oversized_line_gets_bad_request_and_connection_survives(
        self, corpus, catalog, engines
    ):
        """Regression: a >64 KiB line used to kill the connection with no
        response (StreamReader.readline raised past the handler).  Now it
        is answered with a structured BAD_REQUEST and the connection keeps
        serving."""
        _, questions = corpus

        async def drive():
            async with engines(catalog, 4).server() as server:
                tcp, reader, writer = await _open_server(server)

                huge = json.dumps(
                    {"question": "x" * (80 * 1024), "target": "olympics"}
                ).encode("utf-8")
                assert len(huge) > 64 * 1024
                answer = await _tcp_call(reader, writer, huge)
                assert answer["v"] == 2 and answer["ok"] is False
                assert answer["error"]["code"] == "BAD_REQUEST"
                # ... and the next request on the same connection works.
                ok = await _tcp_call(
                    reader, writer,
                    {"question": questions["olympics"], "target": "olympics"},
                )
                assert ok["ok"] is True
                assert ok["result"]["answer"] == ["Greece"]

                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())


#: The wire-protocol error paths, by expected code.  Each case gives the
#: request body (bytes are sent raw); it is sent bare and again with
#: {"v": 2} added (malformed lines that cannot carry "v" are sent twice).
_ERROR_CASES = [
    ("malformed-utf8", b"\xff\xfe{", "BAD_REQUEST"),
    ("not-json", b"{nope", "BAD_REQUEST"),
    ("non-object", b'"just a string"', "BAD_REQUEST"),
    ("unknown-op", {"op": "zap"}, "UNKNOWN_OP"),
    ("missing-question", {"table": "olympics"}, "BAD_REQUEST"),
    ("blank-question", {"question": "   "}, "BAD_REQUEST"),
    ("bad-k-type", {"question": "x", "k": "five"}, "BAD_REQUEST"),
    ("bad-k-bool", {"question": "x", "k": True}, "BAD_REQUEST"),
    ("bad-prune-type", {"question": "x", "prune": "yes"}, "BAD_REQUEST"),
    ("retired-backend", {"question": "x", "backend": "thread"}, "BAD_REQUEST"),
    ("unknown-table", {"question": "x", "table": "atlantis"}, "UNKNOWN_TABLE"),
]


class TestWireErrorPaths:
    """Satellite: every malformed line answers with a *coded* v2 error,
    with or without "v" — codes asserted, never messages."""

    @pytest.mark.parametrize(
        "name,body,code", _ERROR_CASES, ids=[case[0] for case in _ERROR_CASES]
    )
    def test_v2_error_codes(self, catalog, name, body, code, engines):
        async def drive():
            async with engines(catalog, 2).server() as server:
                tcp, reader, writer = await _open_server(server)
                versioned = body if isinstance(body, bytes) else {"v": 2, **body}
                for request in (body, versioned):
                    response = await _tcp_call(reader, writer, request)
                    assert response["v"] == 2
                    assert response["ok"] is False
                    assert response["error"]["code"] == code
                # The connection survived the errors.
                pong = await _tcp_call(reader, writer, {"op": "ping"})
                assert pong["pong"] is True
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())

    def test_unsupported_version_is_coded(self, catalog, engines):
        """v2 is the only version: the retired v1 and an unknown v3 are
        both refused with a coded error."""
        async def drive():
            async with engines(catalog, 2).server() as server:
                tcp, reader, writer = await _open_server(server)
                for version in (1, 3):
                    response = await _tcp_call(
                        reader, writer,
                        {"v": version, "op": "query", "question": "x"},
                    )
                    assert response["ok"] is False
                    assert response["error"]["code"] == "UNSUPPORTED_VERSION"
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())
