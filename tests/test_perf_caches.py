"""Tests for the content-addressed caches: fingerprints, LRU bounds and the
``id(table)`` aliasing regression.

The seed keyed the parser's per-table lexicon/grammar caches by
``id(table)``.  CPython recycles object ids after garbage collection, so a
long-running deployment could serve the lexicon of a *dead* table to a
brand-new one — and the caches grew without bound.  These tests lock in
the fingerprint-keyed replacement.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import DatasetConfig, build_dataset
from repro.dcs import Executor, MemoizedExecutor, from_sexpr
from repro.parser import Lexicon, ParserConfig, SemanticParser
from repro.parser import candidates as candidates_module
from repro.parser.grammar import CandidateGrammar
from repro.perf import BatchItem, create_pool
from repro.perf.pool import _refresh_inherited_locks
from repro.tables import LRUCache, Table, TableFingerprint, fingerprint_table


def small_table(cell: str = "x", header: str = "Letter", name: str = "t") -> Table:
    return Table(
        columns=[header, "Score"],
        rows=[[cell, 1], ["y", 2], ["z", 3]],
        name=name,
    )


# ---------------------------------------------------------------------------
# fingerprint contract
# ---------------------------------------------------------------------------


class TestTableFingerprint:
    def test_deterministic_across_rebuilds(self):
        assert small_table().fingerprint == small_table().fingerprint

    def test_exposed_and_cached_on_table(self):
        table = small_table()
        first = table.fingerprint
        assert first is table.fingerprint  # lazy, computed once
        assert isinstance(first, TableFingerprint)
        assert first == fingerprint_table(table)
        assert first.num_rows == 3 and first.num_columns == 2

    def test_name_is_excluded(self):
        assert small_table(name="a").fingerprint == small_table(name="b").fingerprint

    def test_changes_when_a_cell_changes(self):
        assert small_table(cell="x").fingerprint != small_table(cell="X!").fingerprint

    def test_changes_when_a_header_changes(self):
        assert (
            small_table(header="Letter").fingerprint
            != small_table(header="Char").fingerprint
        )

    def test_changes_when_a_column_type_changes(self):
        # Same raw content, different cell *type*: bare years parsed as
        # numbers vs dates must not share caches.
        rows = [[1896, 1], [1900, 2]]
        as_numbers = Table(columns=["Year", "Rank"], rows=rows)
        as_dates = Table(columns=["Year", "Rank"], rows=rows, date_columns=["Year"])
        assert as_numbers.fingerprint != as_dates.fingerprint

    def test_changes_when_row_order_changes(self):
        forward = Table(columns=["A"], rows=[["x"], ["y"]])
        backward = Table(columns=["A"], rows=[["y"], ["x"]])
        assert forward.fingerprint != backward.fingerprint

    def test_embedded_delimiters_cannot_alias(self):
        # The serialisation is length-prefixed: a separator character
        # inside a header or cell must not shift token boundaries.
        left = Table(columns=["A\x1f", "B"], rows=[["x", "y"]])
        right = Table(columns=["A", "\x1fB"], rows=[["x", "y"]])
        assert left.fingerprint != right.fingerprint
        joined = Table(columns=["A"], rows=[["x\x1fy"]])
        split = Table(columns=["A"], rows=[["x"]])
        assert joined.fingerprint != split.fingerprint

    def test_string_repr_is_short_digest(self):
        fingerprint = small_table().fingerprint
        assert str(fingerprint) == fingerprint.digest[:12]


# ---------------------------------------------------------------------------
# the LRU primitive
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_evicts_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_get_or_create_builds_once(self):
        cache = LRUCache(maxsize=4)
        builds = []
        for _ in range(3):
            value = cache.get_or_create("key", lambda: builds.append(1) or "built")
        assert value == "built"
        assert len(builds) == 1
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_stats_and_clear(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.get("missing")
        assert cache.stats()["misses"] == 1
        cache.clear()
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# the per-table index: differential against a scanning reference
# ---------------------------------------------------------------------------

FINGERPRINTS = [TableFingerprint(digest * 64, 2, 2) for digest in "ab"]
DIGESTS = [fingerprint.digest for fingerprint in FINGERPRINTS] + ["c" * 64]

#: All three key shapes: a bare fingerprint, tuples led by one, and keys
#: the index must ignore (including a tuple that merely *contains* one).
KEYS = [
    *FINGERPRINTS,
    *[(fingerprint, "q") for fingerprint in FINGERPRINTS],
    *[(fingerprint, "q", 3) for fingerprint in FINGERPRINTS],
    "plain",
    ("plain", FINGERPRINTS[0]),
    (),
]


def _owned_by(key, digest):
    """The reference's notion of ownership, decided per key by a scan."""
    return any(
        fingerprint.digest == digest
        and (key == fingerprint or (isinstance(key, tuple) and key[:1] == (fingerprint,)))
        for fingerprint in FINGERPRINTS
    )


class ScanningLRU:
    """The reference: a plain OrderedDict whose per-table ops scan every key."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.data = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def _trim(self):
        while len(self.data) > self.maxsize:
            self.data.popitem(last=False)
            self.evictions += 1

    def get(self, key, default=None):
        if key not in self.data:
            self.misses += 1
            return default
        self.data.move_to_end(key)
        self.hits += 1
        return self.data[key]

    def put(self, key, value):
        self.data[key] = value
        self.data.move_to_end(key)
        self._trim()

    def get_or_create(self, key, factory):
        if key in self.data:
            return self.get(key)
        self.misses += 1
        self.data[key] = value = factory()
        self._trim()
        return value

    def pop(self, key, default=None):
        return self.data.pop(key, default)

    def items_for(self, digest):
        return {key: value for key, value in self.data.items() if _owned_by(key, digest)}

    def discard(self, digest):
        owned = self.items_for(digest)
        for key in owned:
            del self.data[key]
        return len(owned)

    def clear(self):
        self.data.clear()

    def counters(self):
        return {
            "size": len(self.data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 9)),
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
        st.tuples(st.just("get_or_create"), st.sampled_from(KEYS), st.integers(0, 9)),
        st.tuples(st.just("pop"), st.sampled_from(KEYS)),
        st.tuples(st.just("discard"), st.sampled_from(DIGESTS)),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


class TestLRUCacheTableIndex:
    @given(maxsize=st.integers(1, 5), ops=cache_ops)
    @settings(max_examples=300, deadline=None)
    def test_index_matches_a_full_scan(self, maxsize, ops):
        cache, reference = LRUCache(maxsize=maxsize), ScanningLRU(maxsize)
        for op in ops:
            name, args = op[0], op[1:]
            if name in ("put", "get_or_create"):
                key, value = args
                args = (key, value) if name == "put" else (key, lambda: value)
            assert getattr(cache, name)(*args) == getattr(reference, name)(*args), op
            # Same entries in the same LRU order, same counters.
            assert list(cache._data.items()) == list(reference.data.items())
            assert cache.stats() == reference.counters()
            for digest in DIGESTS:
                assert cache.items_for(digest) == reference.items_for(digest)
            # No digest outlives its last entry.
            assert set(cache._by_table) == {
                digest for digest in DIGESTS if reference.items_for(digest)
            }


# ---------------------------------------------------------------------------
# the id(table) aliasing regression
# ---------------------------------------------------------------------------


class TestIdReuseRegression:
    def test_recycled_table_id_does_not_alias_caches(self):
        """Build, drop and rebuild tables until CPython reuses an object id;
        the parser must answer from the *new* table's content.

        The seed's ``id(table)``-keyed caches dodged this aliasing only by
        leaking: the cached lexicon kept every table alive forever.  A
        *bounded* cache evicts, evicted tables get freed, and their ids
        get recycled — so the cache key must be content-addressed.  Here
        we churn the (small) cache to force the eviction, then recycle
        the id.
        """
        parser = SemanticParser(
            config=ParserConfig(table_cache_size=2, candidate_cache_size=2)
        )
        stale = Table(columns=["Name", "Score"], rows=[["old", 1]], name="stale")
        parser.parse("what is the score of old", stale)
        # Evict the stale table's lexicon/grammar while it is still alive,
        # so that dropping it below actually frees it (and its id).
        for index in range(3):
            churn = Table(columns=["Name", "Score"], rows=[[f"churn-{index}", index]])
            parser._lexicon(churn)
            parser._grammar(churn)
        del churn
        stale_id = id(stale)
        del stale

        fresh = None
        keep = []  # hold probes alive so the allocator digs through the free pool
        for _ in range(5000):
            candidate = Table(
                columns=["Name", "Score"], rows=[["new", 9]], name="fresh"
            )
            if id(candidate) == stale_id:
                fresh = candidate
                break
            keep.append(candidate)
        if fresh is None:
            pytest.skip("interpreter did not recycle the object id")

        # The lexicon served for `fresh` must index "new", not "old".
        lexicon = parser._lexicon(fresh)
        analysis = lexicon.analyze("what is the score of new")
        assert any(match.text == "new" for match in analysis.entities)
        assert not lexicon.analyze("what is the score of old").entities

        parse = parser.parse("what is the score of new", fresh)
        assert parse.candidates, "the recycled-id table produced no candidates"
        assert any("9" in candidate.answer for candidate in parse.candidates)

    def test_table_caches_are_bounded(self):
        parser = SemanticParser(config=ParserConfig(table_cache_size=4))
        for index in range(10):
            table = Table(columns=["A"], rows=[[f"value-{index}"]], name=f"t{index}")
            parser._lexicon(table)
            parser._grammar(table)
        assert len(parser._lexicons) <= 4
        assert len(parser._grammars) <= 4
        assert parser._lexicons.evictions > 0


# ---------------------------------------------------------------------------
# cold vs warm behaviour
# ---------------------------------------------------------------------------


class TestColdWarmParseCache:
    QUESTION = "what is the score of y"

    def test_second_parse_skips_generation_side_effects(self, monkeypatch):
        analyze_calls, generate_calls = [], []
        original_analyze = Lexicon.analyze
        original_generate = CandidateGrammar.generate
        monkeypatch.setattr(
            Lexicon,
            "analyze",
            lambda self, question: analyze_calls.append(question)
            or original_analyze(self, question),
        )
        monkeypatch.setattr(
            CandidateGrammar,
            "generate",
            lambda self, analysis: generate_calls.append(1)
            or original_generate(self, analysis),
        )

        parser = SemanticParser()
        table = small_table()
        cold = parser.parse(self.QUESTION, table)
        assert analyze_calls == [self.QUESTION] and len(generate_calls) == 1

        warm = parser.parse(self.QUESTION, small_table())  # same content, new object
        assert analyze_calls == [self.QUESTION] and len(generate_calls) == 1
        assert [c.sexpr for c in warm.candidates] == [c.sexpr for c in cold.candidates]
        assert [c.answer for c in warm.candidates] == [c.answer for c in cold.candidates]

    def test_cache_disabled_reruns_generation(self, monkeypatch):
        generate_calls = []
        original_generate = CandidateGrammar.generate
        monkeypatch.setattr(
            CandidateGrammar,
            "generate",
            lambda self, analysis: generate_calls.append(1)
            or original_generate(self, analysis),
        )
        parser = SemanticParser(config=ParserConfig(cache_candidates=False))
        table = small_table()
        parser.parse(self.QUESTION, table)
        parser.parse(self.QUESTION, table)
        assert len(generate_calls) == 2

    def test_warm_reparse_still_reranks_with_new_weights(self):
        # The candidate cache memoizes *generation* only; ranking must
        # always reflect the current model weights.
        parser = SemanticParser()
        table = small_table()
        cold = parser.parse(self.QUESTION, table)
        assert len(cold.candidates) > 1
        parser.model.weights = {"op:Aggregate": -5.0, "op:ColumnValues": 3.0}
        warm = parser.parse(self.QUESTION, table)
        expected = sorted(
            cold.candidates, key=lambda c: -parser.model.score(c.features)
        )
        assert [c.sexpr for c in warm.candidates] == [c.sexpr for c in expected]
        assert warm.top.score == parser.model.score(warm.top.features)


class TestTopKParseCache:
    """A top-``k`` parse reads the candidate cache but never fills it."""

    QUESTION = "what is the score of y"

    @pytest.fixture
    def generate_calls(self, monkeypatch):
        calls = []
        original_generate = CandidateGrammar.generate
        monkeypatch.setattr(
            CandidateGrammar,
            "generate",
            lambda self, analysis: calls.append(1) or original_generate(self, analysis),
        )
        return calls

    @pytest.mark.parametrize("warm_up", ["generate_candidates", "parse"])
    def test_top_k_parse_is_answered_from_a_cached_list(self, generate_calls, warm_up):
        parser = SemanticParser()
        table = small_table()
        getattr(parser, warm_up)(self.QUESTION, table)
        assert len(generate_calls) == 1
        hits = parser.cache_stats()["candidates"]["hits"]
        top = parser.parse(self.QUESTION, small_table(), k=3)
        assert len(generate_calls) == 1
        assert parser.cache_stats()["candidates"]["hits"] == hits + 1
        full = parser.parse(self.QUESTION, table)
        assert [(c.sexpr, c.score, c.probability) for c in top.candidates] == [
            (c.sexpr, c.score, c.probability) for c in full.candidates[:3]
        ]

    def test_top_k_parse_stores_no_list(self, generate_calls):
        """The trade-off: the caller memoizes the top k, so the same
        question under another k (or new weights) is generated again."""
        parser = SemanticParser()
        table = small_table()
        parser.parse(self.QUESTION, table, k=3)
        assert len(parser._candidate_cache) == 0
        parser.parse(self.QUESTION, table, k=2)
        assert len(generate_calls) == 2
        assert len(parser._candidate_cache) == 0
        # A full parse and a direct generation still store the list.
        parser.parse(self.QUESTION, table)
        assert len(parser._candidate_cache) == 1
        parser.generate_candidates("score of z", table)
        assert len(parser._candidate_cache) == 2


class TestMemoizedExecutorWarmth:
    def test_warm_execution_hits_cache_with_equal_result(self, olympics_table):
        query = from_sexpr(
            '(aggregate max (column-values "Year" (column-records "Country" (value "Greece"))))'
        )
        executor = MemoizedExecutor(olympics_table)
        cold = executor.execute(query)
        misses_after_cold = executor.misses
        warm = executor.execute(query)
        assert warm == cold
        assert executor.misses == misses_after_cold  # no new table walk
        assert executor.hits > 0
        assert cold == Executor(olympics_table).execute(query)


def _exact_candidates(candidates):
    """Every candidate's s-expression, feature items (in order) and result."""
    return [
        (candidate.sexpr, list(candidate.features.items()), candidate.result)
        for candidate in candidates
    ]


class TestPerCallExecutionMemo:
    """Each cold generation call memoizes sub-queries in a memo of its own."""

    @pytest.fixture
    def executors(self, monkeypatch):
        """Every MemoizedExecutor the parser builds, in creation order."""
        built = []

        class Recording(MemoizedExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(candidates_module, "MemoizedExecutor", Recording)
        return built

    @pytest.mark.parametrize("seed", [0, 5])
    def test_memoized_generation_equals_the_plain_reference(self, seed):
        dataset = build_dataset(
            DatasetConfig(num_tables=6, questions_per_table=3, seed=seed)
        )
        memoized = SemanticParser(config=ParserConfig(memoize_execution=True))
        plain = SemanticParser(config=ParserConfig(memoize_execution=False))
        compared = 0
        for example in dataset.examples:
            fast, _ = memoized.generate_candidates(example.question, example.table)
            slow, _ = plain.generate_candidates(example.question, example.table)
            assert _exact_candidates(fast) == _exact_candidates(slow), example.question
            compared += len(fast)
        assert compared > 1000
        assert memoized.cache_stats()["execution"]["hits"] > 0
        assert plain.cache_stats()["execution"]["hits"] == 0

    def test_counters_sum_every_call_and_size_stays_zero(self, executors):
        dataset = build_dataset(DatasetConfig(num_tables=3, questions_per_table=2, seed=0))
        parser = SemanticParser()
        for example in dataset.examples:
            parser.parse(example.question, example.table, k=3)
        stats = parser.cache_stats()["execution"]
        assert len(executors) == len(dataset.examples)
        assert stats == {
            "size": 0,
            "hits": sum(executor.hits for executor in executors),
            "misses": sum(executor.misses for executor in executors),
        }
        assert stats["hits"] > 0

    @pytest.fixture
    def fast_switching(self):
        """A short GIL switch interval, so a lost counter update would show."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def test_counters_sum_every_call_under_a_thread_pool(self, executors, fast_switching):
        dataset = build_dataset(DatasetConfig(num_tables=4, questions_per_table=3, seed=5))
        parser = SemanticParser()
        items = list({
            (example.table.fingerprint, example.question): BatchItem(
                example.question, example.table, k=3
            )
            for example in dataset.examples
        }.values())
        with create_pool("thread", parser, 4) as pool:
            results = pool.parse_all(items)
        assert all(not isinstance(parse, Exception) for parse, _ in results)
        assert len(executors) == len(items)
        stats = parser.cache_stats()["execution"]
        assert stats["size"] == 0
        assert stats["hits"] == sum(executor.hits for executor in executors)
        assert stats["misses"] == sum(executor.misses for executor in executors)

    def test_counters_sum_every_call_from_more_threads_than_cores(
        self, executors, fast_switching
    ):
        parser = SemanticParser(config=ParserConfig(cache_candidates=False))
        table = small_table()
        questions = ["what is the score of y", "which letter has score 3"]

        def generate():
            for question in questions * 3:
                parser.generate_candidates(question, table)

        threads = [threading.Thread(target=generate) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(executors) == 6 * 6
        stats = parser.cache_stats()["execution"]
        assert stats["hits"] == sum(executor.hits for executor in executors)
        assert stats["misses"] == sum(executor.misses for executor in executors)

    def test_no_memo_outlives_its_call(self, executors):
        parser = SemanticParser()
        table = small_table()
        parser.generate_candidates("what is the score of y", table)
        parser.generate_candidates("what is the score of z", table)
        first, second = executors
        # The second question re-executes what the first one shared.
        assert set(first.memo) & set(second.memo)
        assert second.misses == len(second.memo)

    def test_refresh_inherited_locks_replaces_the_counter_lock(self):
        parser = SemanticParser()
        inherited = parser._execution_lock
        inherited.acquire()  # as if another thread held it at fork time
        try:
            _refresh_inherited_locks(parser)
            assert parser._execution_lock is not inherited
            parser.parse("what is the score of y", small_table(), k=2)
            assert parser.cache_stats()["execution"]["misses"] > 0
        finally:
            inherited.release()
