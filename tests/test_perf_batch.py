"""Concurrency tests for batch parsing on the thread and process pools
and the interface batch entry points.

The contract under test: batching is a pure throughput optimisation —
for any pool size and either backend the results are order-stable
(``results[i]`` answers ``items[i]``) and bit-identical (same candidate
s-expressions, scores, probabilities and answers) to a plain sequential
loop.
"""

from __future__ import annotations

import threading

import pytest

from repro.interface import NLInterface
from repro.parser import SemanticParser
from repro.perf import (
    BatchItem,
    ProcessWorkerPool,
    ThreadWorkerPool,
    run_parse_bench,
)
from repro.tables import Table


def build_tables():
    olympics = Table(
        columns=["Year", "Country", "City"],
        rows=[
            [1896, "Greece", "Athens"],
            [1900, "France", "Paris"],
            [2004, "Greece", "Athens"],
            [2008, "China", "Beijing"],
        ],
        name="olympics",
    )
    medals = Table(
        columns=["Nation", "Gold", "Total"],
        rows=[
            ["Fiji", 33, 130],
            ["Samoa", 22, 73],
            ["Tonga", 4, 20],
        ],
        name="medals",
    )
    return olympics, medals


def build_items():
    olympics, medals = build_tables()
    return [
        ("which country hosted in 2004", olympics),
        ("how many rows have country greece", olympics),
        ("what is the highest year", olympics),
        ("which nation has the most gold", medals),
        ("what is the total of fiji", medals),
        ("how many nations have total above 50", medals),
    ]


#: Deterministic non-zero weights so ranking is exercised, not just generation.
WEIGHTS = {
    "op:Aggregate": 0.7,
    "op:ColumnValues": -0.3,
    "op:SuperlativeRecords": 0.5,
    "answer:singleton": 0.2,
}


def make_parser() -> SemanticParser:
    parser = SemanticParser()
    parser.model.weights = dict(WEIGHTS)
    return parser


def signature(parse):
    """Everything observable about one parse, for bit-identity comparison."""
    return [
        (c.sexpr, c.score, c.probability, c.answer) for c in parse.candidates
    ]


def normalize(items):
    return [BatchItem(question=question, table=table) for question, table in items]


def sequential_signatures(items, parser=None):
    parser = parser or make_parser()
    return [signature(parser.parse(question, table)) for question, table in items]


def assert_index_aligned(results, items):
    assert len(results) == len(items)
    for (parse, seconds), (question, table) in zip(results, items):
        assert parse.question == question
        assert parse.table is table
        assert seconds >= 0.0


class TestBatchParserConcurrency:
    """The thread pool: inline with one worker, threaded above that."""

    def test_results_match_sequential_loop_for_all_pool_sizes(self):
        items = build_items()
        reference = sequential_signatures(items)
        for workers in (1, 2, 8):
            with ThreadWorkerPool(make_parser(), workers) as pool:
                results = pool.parse_all(normalize(items))
            assert pool.max_workers == workers
            assert_index_aligned(results, items)
            assert [signature(parse) for parse, _ in results] == reference, (
                f"pool size {workers} diverged from the sequential loop"
            )

    def test_repeated_questions_share_caches_across_workers(self):
        items = build_items() * 3
        parser = make_parser()
        with ThreadWorkerPool(parser, 8) as pool:
            results = pool.parse_all(normalize(items))
            ranked = pool._ranked.stats()
        # Repeats are answered by the pool's ranked-parse memo, which
        # holds each distinct (table, question) once.
        assert ranked["hits"] > 0
        assert ranked["size"] == len({(t.fingerprint, q) for q, t in items})
        assert parser.cache_stats()["execution"]["hits"] > 0
        # Index-alignment under heavy duplication.
        assert [parse.question for parse, _ in results] == [
            question for question, _ in items
        ]

    def test_batch_items_carry_their_own_k(self):
        olympics, _ = build_tables()
        item = BatchItem(question="what is the highest year", table=olympics, k=1)
        with ThreadWorkerPool(make_parser(), 2) as pool:
            (parse, _), = pool.parse_all([item])
        assert len(parse.candidates) == 1

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ThreadWorkerPool(make_parser(), 0)


class TestProcessBackend:
    """The process pool is a drop-in for the thread pool: order-stable,
    bit-identical results, deduplicated work units."""

    def test_results_match_sequential_loop(self):
        items = build_items()
        reference = sequential_signatures(items)
        with ProcessWorkerPool(make_parser(), 4) as pool:
            assert pool.backend == "process"
            results = pool.parse_all(normalize(items))
        assert_index_aligned(results, items)
        assert [signature(parse) for parse, _ in results] == reference, (
            "process backend diverged from the sequential loop"
        )

    def test_duplicate_items_share_one_work_unit(self):
        items = build_items()[:2] * 3
        with ProcessWorkerPool(make_parser(), 2) as pool:
            results = pool.parse_all(normalize(items))
        assert [parse.question for parse, _ in results] == [
            question for question, _ in items
        ]
        # Duplicates fan out from one parsed unit: identical signatures.
        for offset in (2, 4):
            for i in range(2):
                assert signature(results[i][0]) == signature(results[i + offset][0])

    def test_batch_items_carry_their_own_k(self):
        olympics, _ = build_tables()
        items = [
            BatchItem(question="what is the highest year", table=olympics, k=1),
            BatchItem(question="what is the highest year", table=olympics, k=3),
        ]
        with ProcessWorkerPool(make_parser(), 2) as pool:
            results = pool.parse_all(items)
        assert len(results[0][0].candidates) == 1
        assert len(results[1][0].candidates) == 3

    def test_concurrent_batches_do_not_cross_fork_parsers(self):
        """Two process pools with different weights fork from two threads
        at once.  Each forked worker receives its own pool's parser as a
        process argument, never through shared module state, so each
        batch must match its own parser's sequential loop.  A worker that
        inherited the other pool's parser (or none) would rank with the
        wrong weights and diverge."""
        base_items = build_items()
        reference = sequential_signatures(base_items)
        # The second pool runs a *differently weighted* parser.
        shifted_weights = dict(WEIGHTS)
        shifted_weights["op:Aggregate"] = 5.0

        def shifted_parser():
            parser = make_parser()
            parser.model.weights = dict(shifted_weights)
            return parser

        shifted_reference = sequential_signatures(base_items, shifted_parser())

        outcomes: dict = {}
        barrier = threading.Barrier(2)

        def run(tag, parser):
            barrier.wait()
            with ProcessWorkerPool(parser, max_workers=2) as pool:
                outcomes[tag] = pool.parse_all(normalize(base_items))

        threads = [
            threading.Thread(target=run, args=("base", make_parser())),
            threading.Thread(target=run, args=("shifted", shifted_parser())),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert [signature(parse) for parse, _ in outcomes["base"]] == reference
        assert [signature(parse) for parse, _ in outcomes["shifted"]] == (
            shifted_reference
        )


class TestInterfaceBatch:
    def test_ask_many_matches_sequential_ask(self):
        items = build_items()
        sequential = NLInterface(parser=make_parser(), k=3)
        expected = [sequential.ask(question, table) for question, table in items]
        batched = NLInterface(parser=make_parser(), k=3)
        responses = batched.ask_many(items)
        assert len(responses) == len(items)
        for response, reference in zip(responses, expected):
            assert response.question == reference.question
            assert response.utterances() == reference.utterances()
            assert [item.answer for item in response.explained] == [
                item.answer for item in reference.explained
            ]

    def test_ask_many_single_worker(self):
        """Given no pool, ``ask_many`` parses on the calling thread."""
        items = build_items()[:2]
        parsed_on = []
        parser = make_parser()
        real_parse = parser.parse

        def recording_parse(*args, **kwargs):
            parsed_on.append(threading.current_thread())
            return real_parse(*args, **kwargs)

        parser.parse = recording_parse
        responses = NLInterface(parser=parser, k=2).ask_many(items)
        assert [r.question for r in responses] == [question for question, _ in items]
        assert parsed_on == [threading.current_thread()] * len(items)


class TestParseBenchHarness:
    def test_report_has_all_modes_and_consistent_counts(self):
        pairs = build_items()[:3]
        report = run_parse_bench(pairs, repeats=2, workers=2)
        assert set(report.modes) == {
            "sequential", "memoized", "indexed", "batched", "process"
        }
        assert report.questions == 6
        for timing in report.modes.values():
            assert timing.questions == 6
            assert timing.total_seconds > 0
        payload = report.to_payload()
        assert payload["schema"] == "repro-bench-parse-v3"
        assert set(payload["timings"]["speedups"]) == {
            "memoized", "indexed", "batched", "process"
        }
        for timing in report.modes.values():
            assert "indexes" in timing.cache_stats
            assert "disk" in timing.cache_stats

    def test_backend_selection_limits_pooled_modes(self):
        pairs = build_items()[:2]
        report = run_parse_bench(pairs, repeats=1, workers=2, backends=("thread",))
        assert set(report.modes) == {"sequential", "memoized", "indexed", "batched"}

    def test_modes_agree_on_candidate_counts(self):
        pairs = build_items()[:3]
        report = run_parse_bench(pairs, repeats=1, workers=2)
        counts = {timing.candidates for timing in report.modes.values()}
        assert len(counts) == 1, f"modes generated different candidates: {counts}"

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_parse_bench(build_items()[:1], repeats=0)
