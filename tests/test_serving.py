"""Tests for the asyncio serving layer (ISSUE 3).

The acceptance bar: >= 8 concurrent sessions with order-stable outputs,
bit-identical to the sequential path, plus the TCP front end and the
serving bench integrity sweep.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import warnings

from repro.api import ReproEngine
from repro.api.wire import v1_answer_payload
from repro.interface import NLInterface
from repro.tables import CatalogError, TableCatalog
from repro.serving import AsyncServer, ServerClosed, run_serving_bench


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


def _signature(response):
    return [
        (item.rank, item.answer, item.utterance, item.candidate.sexpr, item.candidate.score)
        for item in response.explained
    ]


class TestAsyncServer:
    def test_concurrent_sessions_are_order_stable_and_bit_identical(
        self, corpus, catalog
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
            async with AsyncServer(catalog, max_workers=4) as server:
                sessions = [server.run_session(workload) for _ in range(8)]
                return await asyncio.gather(*sessions), server.stats.as_dict()

        per_session, stats = asyncio.run(drive())
        assert len(per_session) == 8
        for answers in per_session:
            assert [_signature(response) for response in answers] == reference
        assert stats["requests"] == 8 * len(workload)
        assert stats["errors"] == 0
        # Shard-affinity batching composed every batch (a group per
        # distinct shard, never more groups than requests) — and, per the
        # assertions above, changed no output.
        assert stats["batches"] <= stats["shard_groups"] <= stats["requests"]

    def test_batches_are_composed_with_shard_affinity(self, corpus, catalog):
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
            async with AsyncServer(catalog, max_workers=4) as server:
                return await server.ask_gathered(interleaved)

        answers = asyncio.run(drive())
        catalog.ask_many = inner_ask_many
        for (question, name), response in zip(interleaved, answers):
            assert _signature(response) == _signature(catalog.ask(question, name))
        for batch_digests in observed:
            runs = [
                digest
                for i, digest in enumerate(batch_digests)
                if i == 0 or digest != batch_digests[i - 1]
            ]
            assert len(runs) == len(set(runs)), (
                f"batch not grouped by shard: {batch_digests}"
            )

    def test_micro_batching_merges_concurrent_arrivals(self, corpus, catalog):
        _, questions = corpus

        async def drive():
            async with AsyncServer(catalog, max_workers=4) as server:
                await asyncio.gather(
                    *(
                        server.ask(questions["olympics"], "olympics")
                        for _ in range(12)
                    )
                )
                return server.stats.as_dict()

        stats = asyncio.run(drive())
        assert stats["requests"] == 12
        # At least some arrivals were merged (the first batch may be 1).
        assert stats["batches"] < 12

    def test_ask_gathered_is_index_aligned(self, corpus, catalog):
        tables, questions = corpus
        items = [(questions[table.name], table.name) for table in tables]

        async def drive():
            async with AsyncServer(catalog, max_workers=4) as server:
                return await server.ask_gathered(items)

        answers = asyncio.run(drive())
        for (question, name), response in zip(items, answers):
            assert _signature(response) == _signature(catalog.ask(question, name))

    def test_mixed_k_requests_keep_their_own_k(self, corpus, catalog):
        _, questions = corpus

        async def drive():
            async with AsyncServer(catalog, max_workers=4) as server:
                return await asyncio.gather(
                    server.ask(questions["olympics"], "olympics", k=2),
                    server.ask(questions["olympics"], "olympics", k=5),
                )

        small, large = asyncio.run(drive())
        assert len(small.explained) == 2
        assert len(large.explained) == 5

    def test_corpus_wide_routing(self, corpus, catalog):
        tables, questions = corpus

        async def drive():
            async with AsyncServer(catalog, max_workers=4) as server:
                return await server.ask(questions["olympics"])  # no table

        answer = asyncio.run(drive())
        assert answer.best_ref.digest == tables[0].fingerprint.digest
        assert answer.answer == ("Greece",)

    def test_unknown_ref_fails_only_its_own_request(self, corpus, catalog):
        _, questions = corpus

        async def drive():
            async with AsyncServer(catalog, max_workers=4) as server:
                return await asyncio.gather(
                    server.ask(questions["olympics"], "olympics"),
                    server.ask(questions["olympics"], "atlantis"),
                    server.ask(questions["medals"], "medals"),
                    return_exceptions=True,
                )

        good, bad, also_good = asyncio.run(drive())
        assert good.top.answer == ("Greece",)
        assert isinstance(bad, CatalogError)
        assert also_good.top is not None

    def test_hard_stop_fails_queued_requests(self, corpus, catalog):
        _, questions = corpus

        async def drive():
            server = AsyncServer(catalog, max_workers=4)
            await server.start()
            # Enqueue without giving the dispatcher a chance to finish,
            # then hard-stop: the pending future must fail, not hang.
            task = asyncio.get_running_loop().create_task(
                server.ask(questions["olympics"], "olympics")
            )
            await asyncio.sleep(0)
            await server.stop(drain=False)
            with pytest.raises(ServerClosed):
                await asyncio.wait_for(task, timeout=10)

        asyncio.run(drive())

    def test_graceful_stop_drains_accepted_requests(self, corpus, catalog):
        """The default stop() finishes accepted work before closing —
        an enqueued request gets its real answer, while a request
        arriving *during* the drain is turned away with ServerClosed."""
        _, questions = corpus

        async def drive():
            server = AsyncServer(catalog, max_workers=4)
            await server.start()
            task = asyncio.get_running_loop().create_task(
                server.ask(questions["olympics"], "olympics")
            )
            await asyncio.sleep(0)
            await server.stop()
            answer = await asyncio.wait_for(task, timeout=10)
            assert answer.top.answer == ("Greece",)
            # While a drain is in progress, new work is turned away.
            server._draining = True
            with pytest.raises(ServerClosed):
                await server.ask(questions["olympics"], "olympics")
            server._draining = False
            # After the drain finishes, lazy restart works again.
            again = await server.ask(questions["olympics"], "olympics")
            assert again.top.answer == ("Greece",)
            await server.stop()

        asyncio.run(drive())


class TestAnswerPayload:
    def test_single_table_payload(self, corpus, catalog):
        _, questions = corpus
        payload = v1_answer_payload(catalog.ask(questions["olympics"], "olympics"))
        assert payload["ok"] is True
        assert payload["routed"] == "table"
        assert payload["answer"] == ["Greece"]
        assert payload["candidates"] >= 1
        json.dumps(payload)  # wire-serialisable

    def test_corpus_wide_payload(self, corpus, catalog):
        _, questions = corpus
        payload = v1_answer_payload(catalog.ask_any(questions["olympics"]))
        assert payload["ok"] is True
        assert payload["routed"] == "any"
        assert payload["answer"] == ["Greece"]
        # The retrieve-then-parse pipeline: only parsed shards are ranked,
        # and the payload reports the routing decision.
        assert payload["pruned"] is True
        assert payload["fallback"] is False
        assert len(payload["ranked"]) == payload["shards_parsed"]
        assert payload["shards_parsed"] + payload["shards_pruned"] == 3
        json.dumps(payload)

    def test_corpus_wide_payload_broadcast(self, corpus, catalog):
        _, questions = corpus
        payload = v1_answer_payload(
            catalog.ask_any(questions["olympics"], prune=False)
        )
        assert payload["pruned"] is False
        assert len(payload["ranked"]) == 3
        assert payload["shards_pruned"] == 0
        json.dumps(payload)


class TestTcpEndpoint:
    def test_json_lines_roundtrip(self, corpus, catalog):
        tables, questions = corpus

        async def drive():
            async with AsyncServer(catalog, max_workers=4) as server:
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

                routed = await call(
                    {"question": questions["olympics"], "table": "olympics"}
                )
                assert routed["answer"] == ["Greece"]

                anywhere = await call({"question": questions["olympics"]})
                assert anywhere["routed"] == "any"
                assert anywhere["answer"] == ["Greece"]

                stats = await call({"op": "stats"})
                assert stats["catalog"]["shards"] == 3
                assert stats["server"]["requests"] >= 2

                unknown = await call({"question": "x", "table": "atlantis"})
                assert unknown["ok"] is False

                garbage = await call(b"not json")
                assert garbage["ok"] is False

                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())


class TestServingRaceRegressions:
    """The stop()/ask() races and thread-placement contracts."""

    def test_ask_racing_stop_is_server_closed_never_attribute_error(
        self, corpus, catalog
    ):
        """Regression: a stop() landing while asks were in flight used to
        surface as ``AttributeError: 'NoneType' object has no attribute
        'put'`` on the nulled queue.  Every racing ask must now end in a
        real answer or a clean ServerClosed."""
        _, questions = corpus

        async def drive():
            server = AsyncServer(catalog, max_workers=2)
            await server.start()

            async def one_ask():
                try:
                    return await server.ask(questions["olympics"], "olympics")
                except ServerClosed as error:
                    return error

            tasks = [
                asyncio.get_running_loop().create_task(one_ask())
                for _ in range(8)
            ]
            await asyncio.sleep(0)
            await server.stop()
            outcomes = await asyncio.gather(*tasks)
            # A straggler ask may have lazily restarted the dispatcher;
            # tear it down again so nothing outlives the loop.
            await server.stop()
            return outcomes

        for outcome in asyncio.run(drive()):
            assert isinstance(outcome, ServerClosed) or outcome.top is not None

    def test_stop_nulling_queue_between_start_and_capture(self, corpus, catalog):
        """The exact historical interleaving, pinned deterministically:
        stop() nulls the queue after ask()'s lazy start() returns but
        before the queue reference is captured."""
        _, questions = corpus

        async def drive():
            server = AsyncServer(catalog)
            await server.start()
            real_start = server.start

            async def start_then_lose_queue():
                await real_start()
                server._queue = None  # what the concurrent stop() does

            server.start = start_then_lose_queue
            with pytest.raises(ServerClosed):
                await server.ask(questions["olympics"], "olympics")
            server.start = real_start
            await server.stop()

        asyncio.run(drive())

    def test_stop_swapping_queue_after_the_put(self, corpus, catalog):
        """The narrower window: stop() drains and nulls the queue right
        after the put but before the dispatcher picks the request up."""
        _, questions = corpus

        async def drive():
            server = AsyncServer(catalog)
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
            with pytest.raises(ServerClosed):
                await asyncio.wait_for(
                    server.ask(questions["olympics"], "olympics"), timeout=10
                )
            server.start = real_start
            server._queue = real_queue
            await server.stop()

        asyncio.run(drive())

    def test_resolve_runs_on_dispatcher_thread_not_event_loop(
        self, corpus, catalog
    ):
        """Regression: aquery used to call catalog.resolve on the event
        loop; the catalog lock (held across disk writes during eviction)
        could stall every session.  Resolution must happen on the
        dispatcher thread."""
        import threading

        from repro.api.envelope import QueryRequest

        _, questions = corpus
        seen_threads = []
        real_resolve = catalog.resolve

        def recording_resolve(ref):
            seen_threads.append(threading.current_thread().name)
            return real_resolve(ref)

        catalog.resolve = recording_resolve

        async def drive():
            async with AsyncServer(catalog, max_workers=2) as server:
                return await server.aquery(
                    QueryRequest(
                        question=questions["olympics"], target="olympics"
                    )
                )

        try:
            result = asyncio.run(drive())
        finally:
            catalog.resolve = real_resolve
        assert result.ok
        assert seen_threads
        for name in seen_threads:
            assert name.startswith("repro-serve")
            assert name != threading.main_thread().name

    def test_broadcasts_run_on_jobs_executor_interleaved_with_routed(
        self, corpus, catalog
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
            async with AsyncServer(catalog, max_workers=2, max_batch=8) as server:
                routed_task = asyncio.get_running_loop().create_task(
                    server.ask(questions["olympics"], "olympics")
                )
                broadcast_task = asyncio.get_running_loop().create_task(
                    server.ask(questions["medals"])
                )
                return await asyncio.gather(routed_task, broadcast_task)

        try:
            routed, broadcast = asyncio.run(drive())
        finally:
            catalog.ask_any = real_ask_any
        assert seen_threads
        for name in seen_threads:
            assert name.startswith("repro-serve-job")
        assert routed.top.answer == ("Greece",)
        reference = real_ask_any(questions["medals"])
        assert broadcast.answer == reference.answer
        assert broadcast.best_ref.digest == reference.best_ref.digest


class TestBackpressure:
    def test_full_queue_sheds_with_coded_overloaded(self, corpus, catalog):
        """With ``max_pending=1`` and the dispatcher pinned mid-batch,
        the first waiting request queues and the next is shed
        immediately with a retryable coded OVERLOADED (never queue
        delay, never a raw exception)."""
        import threading

        from repro.api.errors import RETRYABLE_CODES, ApiError, ErrorCode

        _, questions = corpus

        async def drive():
            server = AsyncServer(catalog, max_workers=2, max_pending=1)
            await server.start()
            gate = threading.Event()
            real_answer_batch = server._answer_batch

            def gated_answer_batch(requests):
                gate.wait(timeout=30)
                return real_answer_batch(requests)

            server._answer_batch = gated_answer_batch
            loop = asyncio.get_running_loop()
            # First ask: picked up by the dispatcher, stuck at the gate.
            busy = loop.create_task(server.ask(questions["olympics"], "olympics"))
            await asyncio.sleep(0.05)
            # Second ask: fills the (size-1) queue.
            queued = loop.create_task(server.ask(questions["medals"], "medals"))
            await asyncio.sleep(0.05)
            # Third ask: the queue is full — shed, coded, immediate.
            with pytest.raises(ApiError) as excinfo:
                await server.ask(questions["roster"], "roster")
            assert excinfo.value.code is ErrorCode.OVERLOADED
            assert excinfo.value.code in RETRYABLE_CODES
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

    def test_double_stop_is_clean(self, corpus, catalog):
        """stop() is idempotent: calling it twice (or on a server that
        never started) returns cleanly, no tracebacks, no hangs."""
        _, questions = corpus

        async def drive():
            server = AsyncServer(catalog, max_workers=2)
            await server.stop()  # never started: still clean
            answer = await server.ask(questions["olympics"], "olympics")
            await server.stop()
            await server.stop()
            return answer

        answer = asyncio.run(drive())
        assert answer.top.answer == ("Greece",)


class TestServerStats:
    def test_mean_batch_is_always_a_float(self, catalog):
        """Regression: mean_batch degraded to the int 0 before the first
        batch but was a rounded float afterwards — the type is stable now."""
        server = AsyncServer(catalog)
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
        self, corpus, catalog
    ):
        """Acceptance: the v2 TCP path returns answers bit-identical to
        in-process ReproEngine.query — including ask_any routing
        metadata — modulo the run-dependent fields canonical_dict strips."""
        from repro.api import QueryResult

        tables, questions = corpus
        engine = ReproEngine(catalog)

        async def drive():
            async with AsyncServer(catalog, max_workers=4) as server:
                tcp, reader, writer = await _open_server(server)
                hello = await _tcp_call(reader, writer, {"v": 2, "op": "hello"})
                assert hello["ok"] is True and 2 in hello["versions"]

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

                # After hello, lines may omit "v" and still speak v2.
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

    def test_v1_lines_keep_byte_compatible_shapes(self, corpus, catalog):
        """A connection that never says "v" is a v1 client: every response
        keeps the exact legacy key set (locked against the v1 schema)."""
        from repro.api import schema as wire_schema

        _, questions = corpus
        v1_schema = wire_schema.load_schema("serve_response.v1.json")

        async def drive():
            async with AsyncServer(catalog, max_workers=4) as server:
                tcp, reader, writer = await _open_server(server)

                routed = await _tcp_call(
                    reader, writer,
                    {"question": questions["olympics"], "table": "olympics"},
                )
                assert set(routed) == {
                    "ok", "routed", "table", "answer", "utterance",
                    "candidates", "parse_seconds",
                }
                wire_schema.validate_payload(routed, v1_schema)
                assert routed["answer"] == ["Greece"]

                anywhere = await _tcp_call(
                    reader, writer, {"question": questions["olympics"]}
                )
                assert set(anywhere) == {
                    "ok", "routed", "table", "answer", "ranked", "pruned",
                    "shards_parsed", "shards_pruned", "fallback",
                }
                wire_schema.validate_payload(anywhere, v1_schema)

                unknown = await _tcp_call(
                    reader, writer, {"question": "x", "table": "atlantis"}
                )
                assert set(unknown) == {"ok", "error"}
                wire_schema.validate_payload(unknown, v1_schema)

                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())

    def test_oversized_line_gets_bad_request_and_connection_survives(
        self, corpus, catalog
    ):
        """Regression: a >64 KiB line used to kill the connection with no
        response (StreamReader.readline raised past the handler).  Now it
        is answered with a structured BAD_REQUEST and the connection keeps
        serving — in both protocol versions."""
        _, questions = corpus

        async def drive():
            async with AsyncServer(catalog, max_workers=4) as server:
                tcp, reader, writer = await _open_server(server)

                # v1 connection: oversized line → legacy error shape.
                huge = json.dumps(
                    {"question": "x" * (80 * 1024), "table": "olympics"}
                ).encode("utf-8")
                assert len(huge) > 64 * 1024
                answer = await _tcp_call(reader, writer, huge)
                assert answer["ok"] is False and "error" in answer
                # ... and the next request on the same connection works.
                ok = await _tcp_call(
                    reader, writer,
                    {"question": questions["olympics"], "table": "olympics"},
                )
                assert ok["ok"] is True and ok["answer"] == ["Greece"]

                # v2-negotiated connection: structured code, same survival.
                await _tcp_call(reader, writer, {"v": 2, "op": "hello"})
                answer = await _tcp_call(reader, writer, huge)
                assert answer["ok"] is False
                assert answer["error"]["code"] == "BAD_REQUEST"
                ok = await _tcp_call(
                    reader, writer,
                    {"question": questions["olympics"], "target": "olympics"},
                )
                assert ok["ok"] is True

                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())


#: The wire-protocol error paths, by expected code.  Each case gives the
#: request body (bytes are sent raw); the v2 variant adds {"v": 2}
#: (malformed lines that cannot carry "v" are sent on a hello-negotiated
#: connection instead).
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
    ("unknown-table", {"question": "x", "table": "atlantis"}, "UNKNOWN_TABLE"),
]


class TestWireErrorPaths:
    """Satellite: every malformed line answers with a *coded* error on v2
    and the frozen two-key shape on v1 — codes asserted, never messages."""

    @pytest.mark.parametrize(
        "name,body,code", _ERROR_CASES, ids=[case[0] for case in _ERROR_CASES]
    )
    def test_v1_error_shape(self, catalog, name, body, code):
        async def drive():
            async with AsyncServer(catalog, max_workers=2) as server:
                tcp, reader, writer = await _open_server(server)
                response = await _tcp_call(reader, writer, body)
                assert response["ok"] is False
                assert set(response) == {"ok", "error"}
                assert isinstance(response["error"], str)
                # The connection survived the error.
                pong = await _tcp_call(reader, writer, {"op": "ping"})
                assert pong["pong"] is True
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())

    @pytest.mark.parametrize(
        "name,body,code", _ERROR_CASES, ids=[case[0] for case in _ERROR_CASES]
    )
    def test_v2_error_codes(self, catalog, name, body, code):
        async def drive():
            async with AsyncServer(catalog, max_workers=2) as server:
                tcp, reader, writer = await _open_server(server)
                # Negotiate v2 so even unparsable lines answer in v2 shape.
                await _tcp_call(reader, writer, {"v": 2, "op": "hello"})
                request = body if isinstance(body, bytes) else {"v": 2, **body}
                response = await _tcp_call(reader, writer, request)
                assert response["v"] == 2
                assert response["ok"] is False
                assert response["error"]["code"] == code
                pong = await _tcp_call(reader, writer, {"v": 2, "op": "ping"})
                assert pong["pong"] is True
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())

    def test_unsupported_version_is_coded(self, catalog):
        async def drive():
            async with AsyncServer(catalog, max_workers=2) as server:
                tcp, reader, writer = await _open_server(server)
                response = await _tcp_call(
                    reader, writer, {"v": 3, "op": "query", "question": "x"}
                )
                assert response["ok"] is False
                assert response["error"]["code"] == "UNSUPPORTED_VERSION"
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(drive())


@pytest.mark.bench_smoke
class TestServingBenchSmoke:
    def test_serving_bench_stays_bit_identical(self, corpus, tmp_path):
        """The serving harness sweep: sequential vs async vs hot-set
        eviction, every mode bit-identical to the reference."""
        tables, questions = corpus
        pairs = [(questions[table.name], table) for table in tables]
        report = run_serving_bench(
            pairs,
            sessions=4,
            workers=4,
            repeats=2,
            disk_cache_dir=str(tmp_path),
            max_hot_shards=2,
        )
        assert set(report.modes) == {"sequential", "async", "async_hotset"}
        assert all(timing.identical for timing in report.modes.values())
        hotset = report.modes["async_hotset"]
        assert hotset.catalog_stats["evictions"] >= 1
        # The route mode ran and upheld the fallback contract; on this
        # disjoint-content corpus pruning parsed strictly fewer shards.
        assert report.route is not None
        assert report.route.top_answers_match
        assert report.route.strictly_fewer
        payload = report.to_payload()
        assert payload["schema"] == "repro-bench-serve-v3"
        assert payload["route"]["top_answers_match"] is True
        assert payload["route"]["strictly_fewer"] is True
        assert set(payload["timings"]["route"]) == {
            "broadcast_seconds", "pruned_seconds", "speedup"
        }
        # v3: every mode records request-latency percentiles, and each
        # mode timed as many questions as it answered.
        for name, timing in report.modes.items():
            mode_timings = payload["timings"]["modes"][name]
            assert set(mode_timings["latency"]) == {"p50_ms", "p95_ms", "p99_ms"}
            assert mode_timings["latency"]["p50_ms"] > 0
            assert (
                mode_timings["latency"]["p50_ms"]
                <= mode_timings["latency"]["p95_ms"]
                <= mode_timings["latency"]["p99_ms"]
            )
            assert len(timing.per_question_seconds) == timing.questions
        json.dumps(payload)
        # The committed-artifact gate: the payload satisfies the v3
        # wire schema the CI fixture check enforces.
        from repro.api.schema import load_schema, validate_payload

        validate_payload(payload, load_schema("bench_serve.v3.json"))
