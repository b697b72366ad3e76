"""Explanations are a pure function of (table content, query, seed).

Every path that explains a candidate — ``NLInterface.ask`` (repeated,
and after eviction), ``ask_many`` with and without a long-lived pool,
``explain_candidates`` and one generator shared by threads — must give
exactly what a fresh ``explain(query, table)`` gives, sampled highlight
rows included.  On a table over 50 rows those rows are all the user
sees of the highlight (Section 5.3).
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

from repro.core import ExplanationGenerator, explain, explain_candidates
from repro.core.highlights import Highlighter
from repro.dcs import builder as q
from repro.interface import NLInterface
from repro.perf import ThreadWorkerPool, serving_pool

LARGE_QUESTIONS = [
    "what is the highest growth rate of madagascar",
    "how many rows have country kenya",
    "which year had the lowest growth rate",
]


def signature(explanation):
    return (
        explanation.utterance,
        explanation.highlighted.levels,
        explanation.highlighted.header_markers,
        explanation.sample.row_indices,
        explanation.answer,
        explanation.sexpr,
    )


def responses_of_every_path(items, k=7):
    """Every interface response the explaining paths give for ``items``."""
    interface = NLInterface(k=k)
    responses = []
    for question, table in items:
        responses.append(interface.ask(question, table))
        responses.append(interface.ask(question, table))
    for _question, table in items:
        interface.evict_table(table)
    responses.extend(interface.ask(question, table) for question, table in items)
    responses.extend(interface.ask_many(items))
    with ThreadWorkerPool(interface.parser, 2) as pool:
        for _ in range(2):
            responses.extend(interface.ask_many(items, pool=pool))
    return responses


def assert_every_path_explains_like_explain(items):
    checked = 0
    for response in responses_of_every_path(items):
        assert response.error is None
        queries = [item.candidate.query for item in response.explained]
        expected = [signature(explain(query, response.table)) for query in queries]
        assert [signature(item.explanation) for item in response.explained] == expected
        batch = explain_candidates(queries, response.table)
        assert [signature(explanation) for explanation in batch] == expected
        checked += len(queries)
    assert checked


def test_large_table_paths_agree(large_table):
    assert large_table.num_rows > 50
    assert_every_path_explains_like_explain(
        [(question, large_table) for question in LARGE_QUESTIONS]
    )


def test_dataset_corpus_paths_agree(tiny_dataset):
    items = [(example.question, example.table) for example in tiny_dataset.examples[:10]]
    assert len({table.fingerprint for _question, table in items}) > 1
    assert_every_path_explains_like_explain(items)


def test_explain_highlights_once_per_query(monkeypatch, large_table, medals_table):
    calls = []
    original = Highlighter.highlight

    def counting(self, query, output=True):
        calls.append(query)
        return original(self, query, output)

    monkeypatch.setattr(Highlighter, "highlight", counting)
    cases = [
        (q.max_(q.column_values("Growth Rate", q.column_records("Country", "Madagascar"))), large_table),
        (q.value_difference("Total", "Nation", "Fiji", "Tonga"), medals_table),
    ]
    for query, table in cases:
        calls.clear()
        explanation = explain(query, table)
        assert calls == []
        explanation.highlighted
        explanation.sample
        explanation.as_text()
        assert calls == [query]
        assert explanation.sample.highlighted.provenance is explanation.highlighted.provenance


def test_threads_sharing_a_generator_match_sequential(large_table):
    parse = NLInterface(k=7).parser.parse(LARGE_QUESTIONS[0], large_table)
    queries = [candidate.query for candidate in parse.top_k(7)]
    expected = [signature(explain(query, large_table)) for query in queries]
    generator = ExplanationGenerator(large_table)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as executor:
            futures = [executor.submit(generator.explain, query) for query in queries * 4]
            got = [signature(future.result(timeout=120)) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 4


def first_reads(explanation, barrier):
    barrier.wait(timeout=60)
    highlighted = explanation.highlighted
    return highlighted.levels, highlighted.header_markers, explanation.sample.row_indices


def test_threads_first_reading_a_memoized_explanation_match_explain(large_table):
    """Eight threads race on the first reads of one memoized explanation's
    highlight and sample; every thread sees what a fresh ``explain`` gives."""
    interface = NLInterface(k=3)
    with serving_pool("thread", interface.parser) as pool:
        interface.ask_many([(LARGE_QUESTIONS[0], large_table)], pool=pool)
        memoized = list(pool.explanations.items_for(large_table.fingerprint.digest).values())
    assert memoized
    threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for explanation in memoized:
            assert "highlighted" not in vars(explanation)
            barrier = Barrier(threads)
            with ThreadPoolExecutor(max_workers=threads) as executor:
                futures = [
                    executor.submit(first_reads, explanation, barrier) for _ in range(threads)
                ]
                got = [future.result(timeout=120) for future in futures]
            fresh = explain(explanation.query, large_table)
            expected = first_reads(fresh, Barrier(1))
            assert got == [expected] * threads
    finally:
        sys.setswitchinterval(interval)
