"""Tests for the unified query API (ISSUE 5).

The acceptance bar: one typed, versioned envelope across library, CLI
and wire — lossless codecs (``from_dict(to_dict(x)) == x`` for any
served question), a coded error taxonomy replacing stringly errors, and
the client path (in-process and TCP) bit-identical to the engine.
"""

from __future__ import annotations

import asyncio
import gc
import json
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ApiError,
    ErrorCode,
    ErrorInfo,
    QueryRequest,
    QueryResult,
    ReproClient,
    ReproEngine,
    ShardInfo,
    classify_exception,
    result_from_response,
    result_from_served,
)
from repro.interface import InterfaceSession, NLInterface
from repro.serving import ServerClosed
from repro.tables import (
    AmbiguousTableError,
    CatalogError,
    Table,
    TableCatalog,
    UnknownTableError,
)


@pytest.fixture
def corpus(olympics_table, medals_table, roster_table):
    questions = {
        "olympics": "which country hosted in 2004",
        "medals": "how many gold did Fiji win",
        "roster": "which club has the most players",
    }
    return [olympics_table, medals_table, roster_table], questions


@pytest.fixture
def engine(corpus):
    tables, _ = corpus
    return ReproEngine(tables=tables)


def _signature(response):
    return [
        (item.rank, item.answer, item.utterance, item.candidate.sexpr,
         item.candidate.score)
        for item in response.explained
    ]


def _full_parse_result(catalog, request):
    """The slow reference's envelope: a full parse through TableCatalog.ask."""
    ref = catalog.resolve(request.target)
    response = catalog.ask(request.question, ref, k=request.k)
    return result_from_response(request, response, shard=ShardInfo.from_ref(ref))


class TestQueryRequest:
    def test_defaults_and_auto_mode(self):
        request = QueryRequest(question="q")
        assert request.resolved_mode == "any"
        assert QueryRequest(question="q", target="t").resolved_mode == "table"

    def test_round_trips_through_dict(self):
        request = QueryRequest(
            question="q", target="olympics", mode="table", k=3, prune=False,
            request_id="r-1",
        )
        assert QueryRequest.from_dict(request.to_dict()) == request

    def test_table_alias_is_accepted(self):
        request = QueryRequest.from_dict({"question": "q", "table": "olympics"})
        assert request.target == "olympics"

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ApiError) as caught:
            QueryRequest.from_dict({"question": "q", "zap": 1})
        assert caught.value.code is ErrorCode.BAD_REQUEST

    def test_retired_backend_field_is_unknown(self, engine):
        """``backend`` chose between two executions with bit-identical
        answers; a request that still sends it is a coded BAD_REQUEST."""
        with pytest.raises(ApiError) as caught:
            QueryRequest.from_dict({"question": "q", "backend": "quantum"})
        assert caught.value.code is ErrorCode.BAD_REQUEST
        [result] = engine.query_many(["which country hosted in 2004"], backend="thread")
        assert result.error_code is ErrorCode.BAD_REQUEST

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"question": ""},
            {"question": "   "},
            {"question": None},
            {"question": "q", "k": "five"},
            {"question": "q", "k": True},
            {"question": "q", "k": 0},
            {"question": "q", "prune": "yes"},
            {"question": "q", "mode": "sideways"},
            {"question": "q", "mode": "table"},  # table mode needs a target
            {"question": "q", "mode": "any", "target": "t"},
        ],
    )
    def test_validate_rejects_malformed_requests(self, kwargs):
        with pytest.raises(ApiError) as caught:
            QueryRequest(**kwargs).validate()
        assert caught.value.code is ErrorCode.BAD_REQUEST


class TestErrorTaxonomy:
    def test_catalog_errors_map_to_codes(self, engine):
        with pytest.raises(UnknownTableError) as unknown:
            engine.catalog.resolve("atlantis")
        assert classify_exception(unknown.value).code is ErrorCode.UNKNOWN_TABLE

        digests = [ref.digest for ref in engine.refs()]
        prefix = None
        for length in range(8, 64):
            prefixes = {digest[:length] for digest in digests}
            if len(prefixes) < len(digests):
                collided = [
                    digest for digest in digests
                    if sum(d.startswith(digest[:length]) for d in digests) > 1
                ]
                prefix = collided[0][:length]
                break
        if prefix is not None:
            with pytest.raises(AmbiguousTableError) as ambiguous:
                engine.catalog.resolve(prefix)
            assert (
                classify_exception(ambiguous.value).code
                is ErrorCode.AMBIGUOUS_TABLE
            )

    def test_generic_exceptions_become_internal(self):
        assert classify_exception(RuntimeError("boom")).code is ErrorCode.INTERNAL
        assert (
            classify_exception(ServerClosed("stopped")).code
            is ErrorCode.SERVER_CLOSED
        )
        # A bare ValueError escaping deep execution on a well-formed
        # request is a server bug, not a caller mistake — and non-catalog
        # messages keep the legacy "TypeName: message" v1 wire form.
        assert classify_exception(ValueError("x")).code is ErrorCode.INTERNAL
        assert classify_exception(ValueError("x")).message == "ValueError: x"
        assert (
            classify_exception(ServerClosed("stopped")).message
            == "ServerClosed: stopped"
        )

    def test_api_error_round_trips(self):
        error = ApiError(ErrorCode.UNKNOWN_TABLE, "no such table")
        restored = ApiError.from_dict(error.to_dict())
        assert restored.code is error.code and restored.message == error.message


class TestReproEngine:
    def test_query_matches_catalog_ask(self, corpus, engine):
        tables, questions = corpus
        result = engine.query(questions["olympics"], target="olympics")
        assert result.ok and result.answer == ("Greece",)
        assert result.shard.name == "olympics"
        assert result.routing.mode == "table"
        reference = engine.catalog.ask(questions["olympics"], "olympics")
        assert _signature(result.raw) == _signature(reference)
        assert [
            (c.rank, tuple(c.answer), c.utterance, c.sexpr, c.score)
            for c in result.candidates
        ] == _signature(reference)

    def test_query_parses_its_top_k_on_the_engine_pool(self, corpus, engine):
        """``query`` is ``query_many`` of one request: a routed question
        is parsed to its top k on the engine's pool, so it stores no
        unranked candidate list, a repeat is a ranked-memo hit, and the
        answer equals the full parse of ``TableCatalog.ask``."""
        _, questions = corpus
        request = QueryRequest(question=questions["olympics"], target="olympics", k=3)
        result = engine.query(request)
        pool = engine.pool()
        assert pool.stats()["units"] == 1
        assert engine.cache_stats()["candidates"]["size"] == 0
        hits = pool._ranked.stats()["hits"]
        again = engine.query(request)
        assert pool._ranked.stats()["hits"] == hits + 1
        assert again.canonical_dict() == result.canonical_dict()
        reference = _full_parse_result(engine.catalog, request)
        assert result.canonical_dict() == reference.canonical_dict()
        assert _signature(result.raw) == _signature(reference.raw)

    def test_query_honours_deadline_ms(self, corpus, engine):
        """A routed request's ``deadline_ms`` budget reaches the pool:
        spent before its parse, the answer is a coded TIMEOUT."""
        _, questions = corpus
        real_pin = engine.catalog.pin

        def slow_pin(ref):
            time.sleep(0.01)
            return real_pin(ref)

        engine.catalog.pin = slow_pin
        result = engine.query(questions["olympics"], target="olympics", deadline_ms=1)
        assert result.error_code is ErrorCode.TIMEOUT

    def test_a_batch_checks_each_deadline_when_its_unit_starts(self, corpus, engine):
        """The thread backend parses a batch's units one after another on
        the calling thread, so a unit whose deadline passes while an
        earlier unit parses is a coded TIMEOUT and is never parsed."""
        _, questions = corpus
        parser = engine.catalog.interface.parser
        real_parse = parser.parse
        parsed = []

        def slow_parse(question, table, **kwargs):
            parsed.append((question, threading.current_thread()))
            if question == questions["olympics"]:
                time.sleep(0.3)
            return real_parse(question, table, **kwargs)

        parser.parse = slow_parse
        first, second = engine.query_many([
            QueryRequest(question=questions["olympics"], target="olympics"),
            QueryRequest(
                question="which city hosted in 2008", target="olympics", deadline_ms=150
            ),
        ])
        assert first.ok
        assert second.error_code is ErrorCode.TIMEOUT
        assert "before parsing" in second.error.message
        assert parsed == [(questions["olympics"], threading.current_thread())]

    def test_the_engine_owns_one_pool(self, corpus, engine):
        """The engine builds one pool, on its own backend, when a query
        first needs it: naming another backend is an error, and
        ``pool_stats`` never reports more than that one pool."""
        _, questions = corpus
        with pytest.raises(ValueError):
            engine.pool("process")
        assert engine.pool_stats() == {}
        engine.query(questions["olympics"], target="olympics")
        engine.query(questions["medals"])  # corpus-wide: the same pool
        pool = engine.pool()
        assert engine.pool("thread") is pool
        with pytest.raises(ValueError):
            engine.pool("process")
        stats = engine.pool_stats()
        assert list(stats) == ["thread"]
        assert stats["thread"]["units"] >= 2
        engine.close()
        assert engine.pool_stats() == {}
        assert engine.pool() is not pool

    def test_closed_engines_leave_the_catalog(self, corpus):
        """An engine joins the catalog's retirements when it builds its
        pool and leaves them on close: the catalog keeps no closed engine
        alive, and calls none."""
        tables, questions = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        engines = []
        for _ in range(3):
            with ReproEngine(catalog, workers=2) as engine:
                engine.query(questions["olympics"], target="olympics")
                assert catalog._retire_listeners == [engine._forward_retirement]
                engines.append(weakref.ref(engine))
            assert catalog._retire_listeners == []
        del engine
        gc.collect()
        assert catalog._retire_listeners == []
        assert [alive() for alive in engines] == [None, None, None]

    def test_a_reused_engine_forwards_retirements_to_its_new_pool(self, corpus, engine):
        _, questions = corpus
        engine.query(questions["olympics"], target="olympics")
        engine.close()
        assert engine.catalog._retire_listeners == []
        pool = engine.pool()
        assert engine.catalog._retire_listeners == [engine._forward_retirement]
        retired = []
        retire = pool.retire
        pool.retire = lambda digests: (retired.extend(digests), retire(digests))
        old = engine.catalog.resolve("olympics")
        rows = [[1896, "Greece", "Athina"], [2004, "Greece", "Athens"]]
        engine.update("olympics", Table(["Year", "Country", "City"], rows, name="olympics"))
        assert retired == [old.digest]
        engine.close()
        assert engine.catalog._retire_listeners == []

    def test_answer_fails_an_expired_request_before_dispatch(self, corpus, engine):
        _, questions = corpus
        request = QueryRequest(question=questions["olympics"], target="olympics")
        [outcome] = engine.answer([request], [time.monotonic() - 1.0])
        assert classify_exception(outcome).code is ErrorCode.TIMEOUT
        assert engine.pool_stats() == {}
        assert engine.catalog.stats()["pins"] == 0

    def test_corpus_wide_query_carries_routing(self, corpus, engine):
        _, questions = corpus
        result = engine.query(questions["olympics"])
        assert result.ok and result.routing.mode == "any"
        assert result.routing.pruned is True
        assert result.routing.shards_parsed == len(result.ranked)
        assert result.routing.scores  # every shard scored
        assert result.shard.name == "olympics"

    def test_unknown_table_is_an_error_envelope(self, engine):
        result = engine.query("q", target="atlantis")
        assert not result.ok
        assert result.error_code is ErrorCode.UNKNOWN_TABLE
        with pytest.raises(ApiError):
            result.raise_for_error()

    def test_bad_request_is_an_error_envelope(self, engine):
        assert engine.query("").error_code is ErrorCode.BAD_REQUEST
        assert (
            engine.query("q", k="five").error_code is ErrorCode.BAD_REQUEST
        )

    def test_parse_failure_keeps_routing_metadata(self):
        """An empty candidate list envelopes as PARSE_FAILURE but keeps
        the shard/routing context (the request *was* routed and parsed)."""
        from types import SimpleNamespace

        response = SimpleNamespace(
            question="q", table=None, explained=[],
            parse_seconds=0.01, explain_seconds=0.0,
        )
        shard = ShardInfo(digest="d" * 64, name="t", rows=1, columns=1)
        result = result_from_response(
            QueryRequest(question="q", target="t"), response, shard=shard
        )
        assert not result.ok
        assert result.error_code is ErrorCode.PARSE_FAILURE
        assert result.shard == shard and result.routing.mode == "table"
        assert QueryResult.from_dict(result.to_dict()) == result

    def test_query_many_is_index_aligned_and_batched(self, corpus, engine):
        tables, questions = corpus
        requests = [
            QueryRequest(question=questions[table.name], target=table.name)
            for table in tables
        ] * 2
        requests.insert(2, QueryRequest(question="q", target="atlantis"))
        requests.insert(4, QueryRequest(question=questions["olympics"]))
        results = engine.query_many(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            if request.target == "atlantis":
                assert result.error_code is ErrorCode.UNKNOWN_TABLE
            elif request.target is None:
                assert result.routing.mode == "any"
            else:
                single = _full_parse_result(engine.catalog, request)
                assert result.canonical_dict() == single.canonical_dict()

    def test_aquery_matches_query(self, corpus, engine):
        _, questions = corpus

        async def drive():
            return await engine.aquery(questions["olympics"], target="olympics")

        result = asyncio.run(drive())
        reference = engine.query(questions["olympics"], target="olympics")
        assert result.canonical_dict() == reference.canonical_dict()

    def test_options_alongside_a_request_object_are_rejected(self, engine):
        request = QueryRequest(question="q")
        result = engine.query(request, k=3)
        assert result.error_code is ErrorCode.BAD_REQUEST


class TestRoundTripProperty:
    def test_every_served_question_round_trips(self, corpus, engine):
        """Acceptance: for any served question,
        QueryResult.from_dict(result.to_dict()) == result — through an
        actual JSON string, both modes, errors included."""
        tables, questions = corpus
        results = []
        for table in tables:
            results.append(
                engine.query(questions[table.name], target=table.name)
            )
            results.append(engine.query(questions[table.name]))  # corpus-wide
            results.append(
                engine.query(questions[table.name], prune=False, k=3)
            )
        results.append(engine.query("q", target="atlantis"))
        results.append(engine.query(""))
        for result in results:
            wire = json.loads(json.dumps(result.to_dict()))
            assert QueryResult.from_dict(wire) == result
            # canonical_dict is to_dict minus the run-dependent fields.
            assert set(result.to_dict()) - set(result.canonical_dict()) == {
                "timing", "cache", "request_id", "corpus_version"
            }

    @settings(max_examples=25, deadline=None)
    @given(
        question=st.text(min_size=1, max_size=40).filter(str.strip),
        ok=st.booleans(),
        answer=st.lists(st.text(max_size=10), max_size=4),
        score=st.floats(allow_nan=False, allow_infinity=False),
        request_id=st.none() | st.text(max_size=8),
        code=st.sampled_from(list(ErrorCode)),
    )
    def test_codec_is_lossless_on_generated_envelopes(
        self, question, ok, answer, score, request_id, code
    ):
        """Property: the codec is exact for arbitrary field values
        (floats survive the JSON round trip bit-for-bit)."""
        from repro.api import CandidateInfo, RoutingInfo, TimingInfo

        result = QueryResult(
            question=question,
            ok=ok,
            answer=tuple(answer),
            request_id=request_id,
            error=None if ok else ErrorInfo(code=code, message="m"),
            shard=ShardInfo(digest="d" * 64, name="t", rows=3, columns=2),
            candidates=(
                CandidateInfo(
                    rank=0, answer=tuple(answer), utterance="u",
                    sexpr="(all-records)", score=score,
                ),
            ),
            routing=RoutingInfo(
                mode="table", pruned=False, fallback=False,
                shards_parsed=1, shards_pruned=0,
            ),
            timing=TimingInfo(
                parse_seconds=abs(score) if score == score else 0.0,
                explain_seconds=0.0,
                total_seconds=abs(score),
            ),
            cache={"candidates": {"hits": 1, "misses": 2}},
        )
        wire = json.loads(json.dumps(result.to_dict()))
        assert QueryResult.from_dict(wire) == result


class _ServerThread:
    """Hosts an AsyncServer's TCP endpoint in a background event loop."""

    def __init__(self, catalog: TableCatalog) -> None:
        self.catalog = catalog
        self.port = None
        self.error = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as error:  # pragma: no cover - surfaced via skip
            self.error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        with ReproEngine(self.catalog, workers=2) as engine:
            async with engine.server() as server:
                tcp = await server.serve(host="127.0.0.1", port=0)
                self.port = tcp.sockets[0].getsockname()[1]
                self._ready.set()
                await self._stop.wait()
                tcp.close()
                await tcp.wait_closed()

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self.port is None:
            pytest.skip(f"cannot host a loopback TCP server: {self.error}")
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


class TestReproClient:
    def test_in_process_client_matches_engine(self, corpus, engine):
        _, questions = corpus
        with ReproClient.in_process(engine) as client:
            assert client.ping() is True
            assert {entry["name"] for entry in client.tables()} == {
                "olympics", "medals", "roster"
            }
            result = client.query(questions["olympics"], target="olympics")
            reference = engine.query(questions["olympics"], target="olympics")
            assert result.canonical_dict() == reference.canonical_dict()

    def test_tcp_client_is_bit_identical_to_engine(self, corpus, engine):
        """Acceptance: the exact client path over a real socket returns
        the same canonical envelope as the in-process engine — both
        modes, errors included."""
        _, questions = corpus
        with _ServerThread(engine.catalog) as hosted:
            with ReproClient.connect("127.0.0.1", hosted.port) as client:
                assert client.ping() is True
                assert len(client.tables()) == 3

                for target in ("olympics", None):
                    wire_result = client.query(
                        questions["olympics"], target=target
                    )
                    local = engine.query(questions["olympics"], target=target)
                    assert (
                        wire_result.canonical_dict() == local.canonical_dict()
                    )

                unknown = client.query("q", target="atlantis")
                assert unknown.error_code is ErrorCode.UNKNOWN_TABLE
                local_unknown = engine.query("q", target="atlantis")
                assert (
                    unknown.canonical_dict() == local_unknown.canonical_dict()
                )

                many = client.query_many(
                    [
                        QueryRequest(
                            question=questions["medals"], target="medals"
                        ),
                        QueryRequest(question=questions["roster"]),
                    ]
                )
                locals_ = engine.query_many(
                    [
                        QueryRequest(
                            question=questions["medals"], target="medals"
                        ),
                        QueryRequest(question=questions["roster"]),
                    ]
                )
                for wire_result, local in zip(many, locals_):
                    assert (
                        wire_result.canonical_dict() == local.canonical_dict()
                    )

    def test_alias_registered_shard_keeps_its_registered_name_on_the_wire(
        self, olympics_table
    ):
        """Regression: the served v2 envelope must carry the *registered*
        shard identity (which may alias the table's own name), exactly as
        ReproEngine.query reports it."""
        engine = ReproEngine()
        engine.register(olympics_table, name="games-2004")
        question = "which country hosted in 2004"
        local = engine.query(question, target="games-2004")
        assert local.shard.name == "games-2004"
        with _ServerThread(engine.catalog) as hosted:
            with ReproClient.connect("127.0.0.1", hosted.port) as client:
                wire_result = client.query(question, target="games-2004")
                assert wire_result.shard.name == "games-2004"
                assert wire_result.canonical_dict() == local.canonical_dict()

    def test_transports_return_identical_auxiliary_shapes(self, corpus, engine):
        """tables()/stats() parse the same whichever transport backs the
        client (server counters are None in-process — no dispatcher)."""
        with ReproClient.in_process(engine) as local:
            local_tables = local.tables()
            local_stats = local.stats()
        with _ServerThread(engine.catalog) as hosted:
            with ReproClient.connect("127.0.0.1", hosted.port) as remote:
                remote_tables = remote.tables()
                remote_stats = remote.stats()
        assert [set(entry) for entry in local_tables] == [
            set(entry) for entry in remote_tables
        ]
        assert {entry["name"] for entry in local_tables} == {
            entry["name"] for entry in remote_tables
        }
        assert set(local_stats) == set(remote_stats) == {"catalog", "server"}
        assert local_stats["server"] is None
        assert set(local_stats["catalog"]) == set(remote_stats["catalog"])

    def test_tcp_client_aquery(self, corpus, engine):
        _, questions = corpus
        with _ServerThread(engine.catalog) as hosted:
            with ReproClient.connect("127.0.0.1", hosted.port) as client:

                async def drive():
                    return await client.aquery(
                        questions["olympics"], target="olympics"
                    )

                result = asyncio.run(drive())
                assert result.answer == ("Greece",)


class TestTransportFaults:
    """Client-vs-dead-server: every transport fault is a coded ApiError
    — never a raw socket exception, never a hang."""

    def test_connect_to_closed_port_is_coded_server_closed(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with pytest.raises(ApiError) as excinfo:
            ReproClient.connect("127.0.0.1", port, timeout=5.0)
        assert excinfo.value.code is ErrorCode.SERVER_CLOSED

    def test_unresponsive_server_is_coded_timeout(self):
        import socket

        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)  # accepts, never answers the hello
        port = silent.getsockname()[1]
        try:
            with pytest.raises(ApiError) as excinfo:
                ReproClient.connect("127.0.0.1", port, timeout=0.3)
            assert excinfo.value.code is ErrorCode.TIMEOUT
        finally:
            silent.close()

    def test_server_dying_mid_session_is_coded_server_closed(self, corpus, engine):
        """The server goes away between two queries: the next query (and
        the reconnect attempts the retry loop makes) fail with coded
        SERVER_CLOSED, not ConnectionResetError/BrokenPipeError."""
        _, questions = corpus
        with _ServerThread(engine.catalog) as hosted:
            client = ReproClient.connect(
                "127.0.0.1", hosted.port, timeout=5.0, retries=1,
                backoff_base=0.01,
            )
            assert client.query(
                questions["olympics"], target="olympics"
            ).ok is True
        # hosted has now fully stopped; the port no longer listens.
        with pytest.raises(ApiError) as excinfo:
            client.query(questions["olympics"], target="olympics")
        assert excinfo.value.code is ErrorCode.SERVER_CLOSED
        client.close()


class TestSessionRewiring:
    def test_session_over_an_engine_routes_through_query(self, corpus, engine):
        tables, questions = corpus
        session = InterfaceSession(engine=engine, k=5)
        turn = session.ask(questions["olympics"], "olympics")
        assert turn.answer == ("Greece",)
        assert len(turn.response.explained) <= 5
        # The catalog saw the session's traffic (recency bookkeeping).
        assert engine.catalog.stats()["asks"] >= 1
        # Unknown refs still raise the catalog's typed error.
        with pytest.raises(CatalogError):
            session.ask("q", "atlantis")

    def test_session_answers_match_plain_interface(self, corpus, engine):
        tables, questions = corpus
        session = InterfaceSession(engine=engine, k=7)
        turn = session.ask(questions["medals"], "medals")
        reference = NLInterface(k=7).ask(questions["medals"], tables[1])
        assert _signature(turn.response) == _signature(reference)


class TestResultFromServed:
    def test_adapts_both_answer_shapes(self, corpus, engine):
        _, questions = corpus
        response = engine.catalog.ask(questions["olympics"], "olympics")
        single = result_from_served(questions["olympics"], response)
        assert single.routing.mode == "table" and single.ok
        ranking = engine.catalog.ask_any(questions["olympics"])
        wide = result_from_served(questions["olympics"], ranking)
        assert wide.routing.mode == "any" and wide.ranked
        # Identical to the engine path, canonically.
        assert (
            wide.canonical_dict()
            == engine.query(questions["olympics"]).canonical_dict()
        )
