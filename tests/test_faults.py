"""Deterministic chaos tests (:mod:`repro.faults` + the failpoint hooks).

The fault-tolerance acceptance bar of ISSUE 7:

* failpoints fire deterministically by (name, hit-count) — the same
  spec over the same workload produces the same faults, every run;
* a worker killed mid-batch (real fork, real ``os._exit``) is detected,
  respawned (tables re-shipped) and its units retried — the batch stays
  **bit-identical** to an unfaulted run;
* respawn failing ``max_respawn_failures`` times in a row degrades the
  pool to the thread backend — same answers, loudly visible in stats;
* a hanging worker plus a tiny ``deadline_ms`` yields a coded
  ``TIMEOUT`` within budget while batch-mates still succeed;
* a corrupted disk-cache read degrades to a miss, never an error;
* a dropped TCP connection surfaces as a coded error the client's
  retry loop rides through.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import faults
from repro.api import QueryRequest, ReproClient, ReproEngine
from repro.api.errors import ApiError, ErrorCode
from repro.perf import BatchItem, ProcessWorkerPool
from repro.perf.diskcache import DiskCache
from repro.tables import TableCatalog

from test_perf_batch import (
    build_items,
    make_parser,
    normalize,
    sequential_signatures,
    signature,
)
from test_api import _ServerThread


@pytest.fixture(autouse=True)
def clean_failpoints():
    """Every test starts and ends with nothing armed."""
    faults.reset()
    yield
    faults.reset()


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


def result_signatures(results):
    return [signature(parse) for parse, _ in results]


class TestFailpointRegistry:
    def test_parse_spec_forms(self):
        armed = faults.parse_spec(
            "worker.crash_before_batch;"
            "wire.drop_connection:2,4;"
            "worker.hang:*:0.25"
        )
        assert armed["worker.crash_before_batch"] == (frozenset({1}), None)
        assert armed["wire.drop_connection"] == (frozenset({2, 4}), None)
        assert armed["worker.hang"] == (None, 0.25)

    @pytest.mark.parametrize(
        "spec", ["a:b:c:d", ":1", "name:zero", "name:0", "name:*:soon"]
    )
    def test_parse_spec_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            faults.parse_spec(spec)

    def test_fires_deterministically_by_hit_count(self):
        faults.arm("demo.point", hits=(2, 3))
        fired = [faults.should_fire("demo.point") for _ in range(5)]
        assert fired == [False, True, True, False, False]
        # Re-arming starts a fresh deterministic window.
        faults.arm("demo.point", hits=(1,))
        assert faults.should_fire("demo.point") is True
        assert faults.should_fire("demo.point") is False

    def test_unarmed_points_never_fire(self):
        assert faults.should_fire("never.armed") is False
        assert faults.is_armed("never.armed") is False

    def test_armed_context_restores_previous_state(self):
        with faults.armed("demo.point", hits=(1,)):
            assert faults.is_armed("demo.point")
        assert not faults.is_armed("demo.point")

    def test_arm_from_env(self):
        faults.arm_from_env({faults.ENV_VAR: "demo.env:2"})
        assert faults.is_armed("demo.env")
        assert faults.should_fire("demo.env") is False
        assert faults.should_fire("demo.env") is True

    def test_param_and_stats(self):
        faults.arm("worker.hang", hits=None, param=0.5)
        assert faults.param("worker.hang", 30.0) == 0.5
        assert faults.param("worker.other", 30.0) == 30.0
        faults.should_fire("worker.hang")
        assert faults.stats()["worker.hang"] == {"hits": 1, "fired": 1}


class TestWorkerCrashChaos:
    def test_killed_worker_respawns_and_batch_stays_bit_identical(self):
        """Acceptance: 32 questions, first worker dispatch killed hard
        (``os._exit`` in a real fork) — the answers are bit-identical to
        an unfaulted run and the respawn is visible in stats."""
        items = (build_items() * 6)[:32]
        reference = sequential_signatures(items)
        with ProcessWorkerPool(make_parser()) as pool:
            with faults.armed("worker.crash_before_batch", hits=(1,)):
                results = pool.parse_all(normalize(items))
            assert result_signatures(results) == reference
            stats = pool.stats()
            assert stats["respawns"] >= 1
            assert stats["retries"] >= 1
            assert stats["downgrades"] == 0 and not pool.downgraded
            # The pool stays healthy: the next (unfaulted) batch reuses
            # the survivors and the respawned worker.
            again = pool.parse_all(normalize(items))
            assert result_signatures(again) == reference

    def test_crash_mid_run_preserves_partial_results(self):
        """Units a worker answered before dying are kept; only the
        unanswered remainder is retried."""
        items = build_items()
        reference = sequential_signatures(items)
        with ProcessWorkerPool(make_parser()) as pool:
            pool.parse_all(normalize(items))  # warm: tables shipped
            with faults.armed("worker.crash_before_batch", hits=(1,)):
                results = pool.parse_all(normalize(items))
            assert result_signatures(results) == reference
            # Tables were re-shipped to the replacement worker.
            assert pool.stats()["respawns"] >= 1


class TestRespawnFailureDowngrade:
    def test_three_respawn_failures_degrade_to_thread_backend(self):
        """Acceptance: respawn failing ``max_respawn_failures`` times in
        a row flips the pool to the thread fallback — identical answers,
        ``downgraded`` visible in stats."""
        items = build_items()
        reference = sequential_signatures(items)
        with ProcessWorkerPool(make_parser()) as pool:
            assert pool.max_respawn_failures == 3
            with faults.armed("worker.crash_before_batch", hits=(1,)):
                with faults.armed("pool.respawn_fail", hits=(1, 2, 3)):
                    results = pool.parse_all(normalize(items))
            assert result_signatures(results) == reference
            stats = pool.stats()
            assert pool.downgraded is True
            assert stats["downgraded"] is True
            assert stats["downgrades"] == 1
            assert stats["respawn_failures"] == 3
            assert "fallback" in stats
            # Later batches ride the fallback transparently.
            again = pool.parse_all(normalize(items))
            assert result_signatures(again) == reference
            assert stats["downgrades"] == 1
            # The fallback has one worker, so it parses on the calling
            # thread, as an engine's thread pool does.
            assert stats["fallback"]["workers"] == 1
            parsed_on = set()
            real_parse = pool.parser.parse

            def recording_parse(*args, **kwargs):
                parsed_on.add(threading.current_thread())
                return real_parse(*args, **kwargs)

            pool.parser.parse = recording_parse
            pool.parse_all([BatchItem(question, table, k=2) for question, table in items])
            assert parsed_on == {threading.current_thread()}

    def test_transient_respawn_failure_recovers_without_downgrade(self):
        """A respawn that fails once then succeeds keeps the process
        backend (the failure streak resets on success)."""
        items = build_items()
        reference = sequential_signatures(items)
        with ProcessWorkerPool(make_parser()) as pool:
            with faults.armed("worker.crash_before_batch", hits=(1,)):
                with faults.armed("pool.respawn_fail", hits=(1,)):
                    results = pool.parse_all(normalize(items))
            assert result_signatures(results) == reference
            stats = pool.stats()
            assert not pool.downgraded
            assert stats["respawn_failures"] == 1
            assert stats["respawns"] >= 1


class TestDeadlineWithHangingWorker:
    def test_timeout_is_coded_and_batchmates_succeed(self, corpus, catalog):
        """Acceptance: a hanging worker plus a tiny ``deadline_ms``
        yields a coded TIMEOUT well before the hang would end, while a
        concurrent request in the same batch still gets its answer."""
        _, questions = corpus

        engine = ReproEngine(catalog, workers=1, backend="process")

        async def drive():
            async with engine.server() as server:
                # The hang (8s) dwarfs both the deadline (400ms) and the
                # test budget: passing proves the worker was killed, not
                # waited out.
                faults.arm("worker.hang", hits=(1,), param=8.0)
                started = time.monotonic()
                timed, mate = await asyncio.gather(
                    server.aquery(
                        QueryRequest(
                            question=questions["olympics"],
                            target="olympics",
                            deadline_ms=400,
                        )
                    ),
                    server.aquery(
                        QueryRequest(
                            question="what is the highest year", target="olympics"
                        )
                    ),
                )
                elapsed = time.monotonic() - started
                return timed, mate, elapsed, server.stats_payload()["server"]

        try:
            timed, mate, elapsed, stats = asyncio.run(drive())
        finally:
            engine.close()
        assert timed.ok is False
        assert timed.error_code is ErrorCode.TIMEOUT
        assert mate.top is not None  # the batch-mate was retried and answered
        assert elapsed < 6.0
        assert stats["timeouts"] >= 1
        assert stats["worker_respawns"] >= 1


class TestDeadlineOnTheWire:
    def test_deadline_ms_travels_the_v2_wire(self, corpus, catalog):
        """``deadline_ms`` is an additive v2 request field: the server
        accepts it and (with budget to spare) answers normally."""
        _, questions = corpus
        with _ServerThread(catalog) as hosted:
            with ReproClient.connect("127.0.0.1", hosted.port) as client:
                result = client.query(
                    questions["olympics"], target="olympics", deadline_ms=60_000
                )
                assert result.ok is True
                assert result.answer == ("Greece",)


class TestDiskCacheCorruptRead:
    def test_corrupt_read_degrades_to_a_miss_and_drops_the_entry(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("candidates", ("key",), {"payload": 1})
        assert cache.get("candidates", ("key",)) == {"payload": 1}
        with faults.armed("diskcache.corrupt_read", hits=(1,)):
            assert cache.get("candidates", ("key",)) is None
        stats = cache.stats()
        assert stats["errors"] == 1
        assert stats["misses"] == 1
        # The poisoned entry was unlinked: the next read is a clean miss
        # (rebuildable), not a repeat error.
        assert cache.get("candidates", ("key",)) is None
        assert cache.stats() == {"hits": 1, "misses": 2, "writes": 1, "errors": 1}


class TestWireDropConnection:
    def test_client_rides_through_a_dropped_connection(self, corpus, catalog):
        _, questions = corpus
        with _ServerThread(catalog) as hosted:
            with ReproClient.connect(
                "127.0.0.1", hosted.port, timeout=30.0
            ) as client:
                faults.arm("wire.drop_connection", hits=(1,))
                result = client.query(questions["olympics"], target="olympics")
                assert result.ok is True
                assert result.answer == ("Greece",)
                assert faults.stats()["wire.drop_connection"]["fired"] == 1

    def test_drop_without_retries_is_coded_server_closed(self, corpus, catalog):
        _, questions = corpus
        with _ServerThread(catalog) as hosted:
            with ReproClient.connect(
                "127.0.0.1", hosted.port, timeout=30.0, retries=0
            ) as client:
                faults.arm("wire.drop_connection", hits=(1,))
                with pytest.raises(ApiError) as excinfo:
                    client.query(questions["olympics"], target="olympics")
                assert excinfo.value.code is ErrorCode.SERVER_CLOSED
