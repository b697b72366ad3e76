"""The persistent worker pools (:mod:`repro.perf.pool`).

The serving hot path's contract, flavour by flavour:

* both pools are **persistent** — created once, reused across batches —
  and **bit-identical** to a sequential loop over the same parser;
* the process flavour keeps its worker processes (stable PIDs) and their
  fingerprint-addressed table registries alive between batches, ships
  each table to a worker at most once (incremental registry updates),
  pins shards to workers with a stable hash, and spills
  deterministically;
* the thread flavour's ranked-parse memo survives catalog shard eviction
  and invalidates on weight change;
* a batch from ``NLInterface.ask_many`` parses to the interface's top-k
  only, so the thread memo keeps and a process reply carries no more
  candidates than are served, and the parser stores no unranked list;
* each process worker memoizes its replies as the thread flavour does.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import pickle
import sys
import threading
import time

import pytest

from repro.api import ReproEngine
from repro.dataset import DatasetConfig, build_dataset
from repro.interface import NLInterface
from repro.parser.grammar import CandidateGrammar
from repro.perf import (
    BatchItem,
    DeadlineExceeded,
    ProcessWorkerPool,
    ThreadWorkerPool,
    serving_pool,
)
from repro.tables import TableCatalog

from test_perf_batch import (
    build_items,
    build_tables,
    make_parser,
    normalize,
    sequential_signatures,
    signature,
)


#: A pool of each flavour, as the parametrized tests below build them.
POOLS = {"thread": ThreadWorkerPool, "process": ProcessWorkerPool}


class TestCreatePool:
    """Building a pool: :func:`serving_pool`, an engine's one constructor."""

    def test_factory_builds_both_flavours(self):
        thread = serving_pool("thread", make_parser(), 4)
        assert isinstance(thread, ThreadWorkerPool) and thread.max_workers == 1
        with serving_pool("process", make_parser(), 2) as process:
            assert isinstance(process, ProcessWorkerPool)
            assert process.max_workers == 2

    def test_factory_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            serving_pool("fiber", make_parser())

    def test_closed_pool_rejects_batches(self):
        pool = ThreadWorkerPool(make_parser())
        pool.close()
        with pytest.raises(RuntimeError):
            pool.parse_all(normalize(build_items()[:1]))


class TestThreadPoolPersistence:
    def test_bit_identical_across_repeated_batches(self):
        items = build_items()
        reference = sequential_signatures(items)
        with ThreadWorkerPool(make_parser()) as pool:
            for _ in range(3):
                results = pool.parse_all(normalize(items))
                assert [signature(parse) for parse, _ in results] == reference
            assert pool.batches == 3
            assert pool.units == 3 * len(items)

    def test_ranked_memo_survives_parser_eviction(self):
        """Eviction drops the parser's caches; the ranked memo answers."""
        items = build_items()
        reference = sequential_signatures(items)
        pool = ThreadWorkerPool(make_parser())
        pool.parse_all(normalize(items))
        assert pool.stats()["ranked"] > 0
        olympics, medals = build_tables()
        for table in (olympics, medals):
            pool.parser.evict_table(table)
        assert len(pool.parser.generator._candidate_cache) == 0
        results = pool.parse_all(normalize(items))
        assert [signature(parse) for parse, _ in results] == reference
        # The repeat came from the pool's ranked memo, not the parser:
        # nothing was regenerated into the parser's candidate cache.
        assert len(pool.parser.generator._candidate_cache) == 0

    def test_ranked_memo_invalidates_on_weight_change(self):
        items = build_items()[:2]
        pool = ThreadWorkerPool(make_parser())
        pool.parse_all(normalize(items))
        assert pool.stats()["ranked"] == len(items)
        # New weights: the memo flushes and fresh parses rank with them,
        # exactly matching a from-scratch parser with the same weights.
        pool.parser.model.weights["op:Aggregate"] = 5.0
        results = pool.parse_all(normalize(items))
        fresh = make_parser()
        fresh.model.weights["op:Aggregate"] = 5.0
        expected = [signature(fresh.parse(q, t)) for q, t in items]
        assert [signature(parse) for parse, _ in results] == expected


class TestProcessPoolPersistence:
    def test_bit_identical_and_pids_stable_across_batches(self):
        items = build_items()
        reference = sequential_signatures(items)
        with ProcessWorkerPool(make_parser()) as pool:
            first = pool.parse_all(normalize(items))
            pids = pool.pids()
            assert pids and all(pid is not None for pid in pids)
            second = pool.parse_all(normalize(items))
            assert pool.pids() == pids, "workers were not reused across batches"
            for results in (first, second):
                assert [signature(parse) for parse, _ in results] == reference

    def test_tables_ship_incrementally(self):
        items = build_items()
        with ProcessWorkerPool(make_parser()) as pool:
            pool.parse_all(normalize(items))
            first_shipped = pool.tables_shipped
            assert first_shipped >= len({t.fingerprint.digest for _, t in items})
            # The repeat batch ships nothing: every worker already holds
            # its pinned (and spilled) tables.
            pool.parse_all(normalize(items))
            assert pool.last_shipped == []
            assert pool.tables_shipped == first_shipped

    def test_mid_run_registered_table_ships_alone(self):
        """A table registered between batches crosses the pipe once —
        the rest of the corpus is never re-pickled.  Strict pinning
        (``spill=False``) keeps each table on its one pinned worker, so
        the count does not depend on how many cores the host has."""
        olympics, medals = build_tables()
        olympics_digest = olympics.fingerprint.digest
        medals_digest = medals.fingerprint.digest
        first = [
            (q, t)
            for q, t in build_items()
            if t.fingerprint.digest == olympics_digest
        ]
        assert first
        with ProcessWorkerPool(make_parser(), spill=False) as pool:
            pool.parse_all(normalize(first))
            assert pool.last_shipped == [olympics_digest]
            mixed = build_items()
            results = pool.parse_all(normalize(mixed))
            assert pool.last_shipped == [medals_digest]
            assert [signature(parse) for parse, _ in results] == (
                sequential_signatures(mixed)
            )

    def test_weights_resync_only_when_changed(self):
        items = build_items()[:2]
        with ProcessWorkerPool(make_parser()) as pool:
            pool.parse_all(normalize(items))
            pool.parser.model.weights["op:Aggregate"] = 5.0
            results = pool.parse_all(normalize(items))
            fresh = make_parser()
            fresh.model.weights["op:Aggregate"] = 5.0
            expected = [signature(fresh.parse(q, t)) for q, t in items]
            assert [signature(parse) for parse, _ in results] == expected

    def test_concurrent_batches_serialise_safely(self):
        items = build_items()
        reference = sequential_signatures(items)
        outcomes: dict = {}
        with ProcessWorkerPool(make_parser()) as pool:
            def run(tag):
                outcomes[tag] = pool.parse_all(normalize(items))
            threads = [
                threading.Thread(target=run, args=(tag,)) for tag in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for tag in ("a", "b"):
            assert [signature(parse) for parse, _ in outcomes[tag]] == reference


def served(responses):
    """What ``ask_many`` served, explanation by explanation."""
    return [
        [
            (item.candidate.sexpr, item.candidate.score,
             item.candidate.probability, item.answer)
            for item in response.explained
        ]
        for response in responses
    ]


def full_parse_top(items, k):
    """The top ``k`` of a full sequential parse of every item."""
    parser = make_parser()
    return [
        [
            (c.sexpr, c.score, c.probability, c.answer)
            for c in parser.parse(question, table).candidates[:k]
        ]
        for question, table in items
    ]


class TestServedTopK:
    """``ask_many`` hands its ``k`` to the pool, which keeps only that."""

    def test_thread_memo_holds_the_served_top_k(self):
        items = build_items()
        expected = full_parse_top(items, 3)
        parser = make_parser()
        with ThreadWorkerPool(parser) as pool:
            interface = NLInterface(parser, k=3)
            responses = interface.ask_many(items, pool=pool)
            assert served(responses) == expected
            assert all(len(response.parse) <= 3 for response in responses)
            digests = {table.fingerprint.digest for _, table in items}
            entries = [
                parse
                for digest in digests
                for parse in pool._ranked.items_for(digest).values()
            ]
            assert len(entries) == len(items)
            assert all(len(parse.candidates) <= 3 for parse in entries)
            # A repeat batch is answered from the memo, with the same values.
            hits = pool._ranked.stats()["hits"]
            assert served(interface.ask_many(items, pool=pool)) == expected
            assert pool._ranked.stats()["hits"] - hits == len(items)

    def test_process_reply_carries_the_served_top_k(self):
        items = build_items()
        parser = make_parser()
        with ThreadWorkerPool(make_parser()) as thread_pool:
            reference = served(
                NLInterface(thread_pool.parser, k=3).ask_many(items, pool=thread_pool)
            )
        with ProcessWorkerPool(parser) as pool:
            responses = NLInterface(parser, k=3).ask_many(items, pool=pool)
            # Every parse came back over a worker pipe, not inline.
            assert pool.inline_parses == 0
        assert all(len(response.parse.candidates) <= 3 for response in responses)
        assert served(responses) == reference == full_parse_top(items, 3)

    @pytest.mark.parametrize("per_call", [False, True])
    def test_served_questions_leave_no_unranked_list(self, per_call):
        """The memo's top k is the only copy a served question leaves:
        the parser's candidate cache stays empty, through a long-lived
        pool and through the per-call pool ``pool=None`` builds."""
        items = build_items()
        parser = make_parser()
        interface = NLInterface(parser, k=3)
        if per_call:
            responses = interface.ask_many(items, pool=None)
        else:
            with ThreadWorkerPool(parser) as pool:
                responses = interface.ask_many(items, pool=pool)
        assert served(responses) == full_parse_top(items, 3)
        for _, table in items:
            assert not parser.generator._candidate_cache.items_for(table.fingerprint.digest)


def pool_threads():
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-pool")
    }


def recording_parser(threads):
    """A parser that records the thread each parse runs on."""
    parser = make_parser()
    real_parse = parser.parse

    def parse(*args, **kwargs):
        threads.add(threading.current_thread())
        return real_parse(*args, **kwargs)

    parser.parse = parse
    return parser


class TestPoollessCalls:
    """A call given no pool parses on the calling thread, through the
    one-worker pool an engine's thread backend serves on, and answers as
    that engine does."""

    def test_ask_many_parses_inline_like_an_engine_pool(self):
        items = build_items()
        threads: set = set()
        before = pool_threads()
        inline = served(NLInterface(recording_parser(threads), k=3).ask_many(items))
        assert threads == {threading.current_thread()}
        assert pool_threads() == before
        interface = NLInterface(make_parser(), k=3)
        with ReproEngine(interface=interface, workers=4) as engine:
            assert served(interface.ask_many(items, pool=engine.pool())) == inline

    def test_ask_any_parses_inline_like_an_engine_pool(self):
        """A broadcast, so the call parses a unit per shard."""
        tables = build_tables()
        question = "which country hosted in 2004"
        threads: set = set()
        before = pool_threads()
        catalog = TableCatalog(interface=NLInterface(recording_parser(threads), k=3))
        catalog.register_all(list(tables))
        inline = catalog.ask_any(question, prune=False)
        assert len(inline.ranked) == len(tables)
        assert threads == {threading.current_thread()}
        assert pool_threads() == before
        with ReproEngine(
            interface=NLInterface(make_parser(), k=3), tables=tables, workers=4
        ) as engine:
            pooled = engine.catalog.ask_any(question, prune=False, pool=engine.pool())
        assert [ref.digest for ref, _ in pooled.ranked] == [
            ref.digest for ref, _ in inline.ranked
        ]
        assert [served([response]) for _, response in pooled.ranked] == [
            served([response]) for _, response in inline.ranked
        ]


class TestProcessReplyBoundary:
    """What crosses a worker pipe: the served top k and nothing else."""

    @staticmethod
    def cut(parse):
        return [
            (c.sexpr, c.score, c.probability, c.result) for c in parse.candidates
        ]

    def test_replies_carry_the_thread_top_k_without_features(self):
        dataset = build_dataset(DatasetConfig(num_tables=4, questions_per_table=3, seed=0))
        items = list({
            (example.table.fingerprint, example.question): BatchItem(
                example.question, example.table, k=7
            )
            for example in dataset.examples
        }.values())
        with ThreadWorkerPool(make_parser()) as pool:
            reference = [parse for parse, _ in pool.parse_all(items)]
        with ProcessWorkerPool(make_parser(), 2) as pool:
            replies = pool.parse_all(items)
            assert pool.inline_parses == 0
        full = make_parser()
        for item, (reply, _), expected in zip(items, replies, reference):
            assert reply.table is item.table
            assert reply.candidates
            assert self.cut(reply) == self.cut(expected)
            assert reply.analysis is None
            assert all(candidate.features is None for candidate in reply.candidates)
            # Against the same top k with its vectors and analysis, as the
            # pipe carried it before the cut dropped them.
            whole = full.parse(item.question, item.table)
            kept = dataclasses.replace(
                whole, table=None, candidates=whole.candidates[: len(reply)]
            )
            assert self.cut(kept) == self.cut(reply)
            sent = len(pickle.dumps(dataclasses.replace(reply, table=None)))
            assert sent <= 0.6 * len(pickle.dumps(kept)), (item.question, sent)


@pytest.fixture
def collector_enabled():
    """Run with the cyclic collector on, and leave it as it was found."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_enabled:
            gc.disable()


class TestReplyLoadsPauseTheCollector:
    """The driver loads every process reply with the cyclic collector
    paused, and leaves it as it found it, whatever the loads do."""

    @pytest.fixture
    def pause(self):
        from repro.perf.pool import _CollectorPause

        return _CollectorPause()

    def test_a_load_pauses_and_resumes_an_enabled_collector(
        self, pause, collector_enabled
    ):
        with pause:
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, pause, collector_enabled):
        gc.disable()
        with pause:
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_a_load_that_raises_resumes_the_collector(self, pause, collector_enabled):
        with pytest.raises(pickle.UnpicklingError):
            with pause:
                pickle.loads(b"not a pickle")
        assert gc.isenabled()

    def test_overlapping_loads_resume_once_the_last_one_leaves(
        self, pause, collector_enabled
    ):
        """Thread A starts loading, B starts, A finishes while B still
        loads: the collector stays paused until B finishes, and resumes."""
        entered, release = threading.Event(), threading.Event()
        seen = []

        def second_loader():
            with pause:
                entered.set()
                release.wait(5)
                seen.append(gc.isenabled())

        with pause:
            loader = threading.Thread(target=second_loader)
            loader.start()
            assert entered.wait(5)
        assert not gc.isenabled()
        release.set()
        loader.join(5)
        assert not loader.is_alive()
        assert seen == [False]
        assert gc.isenabled()

    def test_many_threads_never_leave_it_paused(self, pause, collector_enabled):
        enabled_inside = []

        def loads():
            for _ in range(300):
                with pause:
                    enabled_inside.append(gc.isenabled())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=loads) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(enabled_inside) == 8 * 300 and not any(enabled_inside)
        assert gc.isenabled()

    def test_process_replies_load_paused(self, monkeypatch, collector_enabled):
        dataset = build_dataset(DatasetConfig(num_tables=2, questions_per_table=2, seed=0))
        items = [BatchItem(e.question, e.table, k=3) for e in dataset.examples]
        loads = []
        real_loads = pickle.loads

        def recording(blob, *args, **kwargs):
            loaded = real_loads(blob, *args, **kwargs)
            if isinstance(loaded, tuple) and loaded and loaded[0] == "unit":
                loads.append(gc.isenabled())
            return loaded

        with ProcessWorkerPool(make_parser(), 2) as pool:
            monkeypatch.setattr(pickle, "loads", recording)
            replies = pool.parse_all(items)
            monkeypatch.undo()
            assert pool.inline_parses == 0
        assert all(not isinstance(parse, Exception) for parse, _ in replies)
        assert loads and not any(loads)
        assert gc.isenabled()


def thread_served(items, weights=None):
    """What ``ask_many(k=3)`` serves through a fresh thread pool."""
    parser = make_parser()
    parser.model.weights.update(weights or {})
    with ThreadWorkerPool(parser) as pool:
        return served(NLInterface(parser, k=3).ask_many(items, pool=pool))


@pytest.fixture
def worker_generations(monkeypatch):
    """Counts ``CandidateGrammar.generate`` calls, forked workers included.

    ``None`` when workers do not fork: a spawned worker imports the
    grammar afresh, without the counting patch.
    """
    if multiprocessing.get_start_method() != "fork":
        return None
    counter = multiprocessing.Value("i", 0)
    original = CandidateGrammar.generate

    def generate(self, analysis):
        with counter.get_lock():
            counter.value += 1
        return original(self, analysis)

    monkeypatch.setattr(CandidateGrammar, "generate", generate)
    return counter


class TestProcessWorkerMemo:
    """Each process worker memoizes the top k it serves, as the thread
    pool does: repeats come from the memo, a weight change flushes it
    and ``retire`` drops the digest from it."""

    @staticmethod
    def generated(counter):
        return counter.value if counter is not None else 0

    @staticmethod
    def counted(counter, pool):
        """Whether generation counts can be compared: workers fork (so
        they count), and none was respawned with an empty memo (as an
        injected ``worker.crash_before_batch`` does)."""
        return counter is not None and pool.respawns == 0

    def test_repeat_batch_is_answered_from_the_worker_memo(self, worker_generations):
        items = build_items()
        reference = thread_served(items)
        parser = make_parser()
        interface = NLInterface(parser, k=3)
        with ProcessWorkerPool(parser, spill=False) as pool:
            first = served(interface.ask_many(items, pool=pool))
            cold = self.generated(worker_generations)
            repeat = served(interface.ask_many(items, pool=pool))
            assert pool.inline_parses == 0
            if self.counted(worker_generations, pool):
                # Nothing was regenerated: the workers stored no unranked
                # list, so only their memos could answer.
                assert worker_generations.value == cold
        assert first == repeat == reference

    def test_weight_change_flushes_the_worker_memo(self, worker_generations):
        items = build_items()
        reference = thread_served(items, {"op:Aggregate": 5.0})
        parser = make_parser()
        interface = NLInterface(parser, k=3)
        with ProcessWorkerPool(parser, spill=False) as pool:
            interface.ask_many(items, pool=pool)
            before = self.generated(worker_generations)
            parser.model.weights["op:Aggregate"] = 5.0
            after = served(interface.ask_many(items, pool=pool))
            assert pool.inline_parses == 0
            if self.counted(worker_generations, pool):
                # The documented trade-off: new weights regenerate.
                assert worker_generations.value - before == len(items)
        assert after == reference

    def test_retire_drops_the_digest_from_the_worker_memo(self, worker_generations):
        items = build_items()
        reference = thread_served(items)
        olympics, _ = build_tables()
        digest = olympics.fingerprint.digest
        parser = make_parser()
        interface = NLInterface(parser, k=3)
        with ProcessWorkerPool(parser, spill=False) as pool:
            interface.ask_many(items, pool=pool)
            pool.retire([digest])
            before = self.generated(worker_generations)
            # The same content comes back: it is shipped again and only
            # its questions are regenerated.
            again = served(interface.ask_many(items, pool=pool))
            assert pool.last_shipped == [digest]
            assert pool.inline_parses == 0
            if self.counted(worker_generations, pool):
                retired = sum(
                    1 for _, table in items if table.fingerprint.digest == digest
                )
                assert worker_generations.value - before == retired
        assert again == reference


class TestDeadlines:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_expired_items_come_back_as_deadline_exceeded_values(self, backend):
        """An already-expired deadline yields a ``DeadlineExceeded``
        *value* (never a raised exception) while the rest of the batch
        parses normally and stays bit-identical."""
        items = build_items()
        reference = sequential_signatures(items)
        expired = time.monotonic() - 1.0
        with POOLS[backend](make_parser()) as pool:
            batch = [
                BatchItem(
                    question=question,
                    table=table,
                    deadline=expired if index == 0 else None,
                )
                for index, (question, table) in enumerate(items)
            ]
            results = pool.parse_all(batch)
            first, _ = results[0]
            assert isinstance(first, DeadlineExceeded)
            for (result, _), expected in list(zip(results, reference))[1:]:
                assert signature(result) == expected
            assert pool.stats()["timeouts"] >= 1


class TestPoolClose:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_close_is_idempotent(self, backend):
        pool = POOLS[backend](make_parser())
        pool.parse_all(normalize(build_items()[:1]))
        pool.close()
        pool.close()  # must not raise, hang, or double-release
        with pytest.raises(RuntimeError):
            pool.parse_all(normalize(build_items()[:1]))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_concurrent_close_is_safe(self, backend):
        pool = POOLS[backend](make_parser())
        pool.parse_all(normalize(build_items()[:1]))
        errors: list = []

        def shutdown():
            try:
                pool.close()
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        threads = [threading.Thread(target=shutdown) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert pool._closed

    def test_close_reaps_worker_processes(self):
        pool = ProcessWorkerPool(make_parser())
        pool.parse_all(normalize(build_items()[:1]))
        processes = [worker.process for worker in pool._workers]
        assert all(process.is_alive() for process in processes)
        pool.close()
        for process in processes:
            assert not process.is_alive()


class TestShardAffinity:
    def test_pin_is_stable_and_in_range(self):
        pool = ProcessWorkerPool(make_parser(), max_workers=4)
        olympics, medals = build_tables()
        for table in (olympics, medals):
            digest = table.fingerprint.digest
            assert pool.pin(digest) == pool.pin(digest)
            assert 0 <= pool.pin(digest) < pool.workers

    def test_assignment_without_spill_is_pure_pinning(self):
        pool = ProcessWorkerPool(make_parser(), max_workers=4, spill=False)
        olympics, medals = build_tables()
        groups = {
            olympics.fingerprint.digest: [
                (olympics.fingerprint.digest, "q1", None),
                (olympics.fingerprint.digest, "q2", None),
            ],
            medals.fingerprint.digest: [(medals.fingerprint.digest, "q3", None)],
        }
        assignment = pool._assign(dict(groups))
        for digest, units in groups.items():
            worker = pool.pin(digest)
            assert assignment[worker][digest] == units

    def test_spill_is_deterministic(self):
        olympics, _ = build_tables()
        digest = olympics.fingerprint.digest
        units = [(digest, f"q{i}", None) for i in range(6)]
        assignments = [
            ProcessWorkerPool(make_parser(), max_workers=4)._assign(
                {digest: list(units)}
            )
            for _ in range(3)
        ]
        assert assignments[0] == assignments[1] == assignments[2]
        # The valve actually spilled: more than one worker holds units,
        # and nothing was lost or duplicated.
        spread = assignments[0]
        flat = [
            unit
            for worker_groups in spread.values()
            for group_units in worker_groups.values()
            for unit in group_units
        ]
        assert sorted(flat) == sorted(units)
        if ProcessWorkerPool(make_parser(), max_workers=4).workers > 1:
            assert len(spread) > 1
