"""Tests for the fingerprint-addressed multi-table catalog (ISSUE 3)."""

from __future__ import annotations

import time

import pytest

from repro.interface import InterfaceSession, NLInterface
from repro.perf import DiskCache
from repro.tables import CatalogError, Table, TableCatalog, TableRef


@pytest.fixture
def corpus(olympics_table, medals_table, roster_table):
    """Three distinct tables and one routable question for each."""
    questions = {
        "olympics": "which country hosted in 2004",
        "medals": "how many gold did Fiji win",
        "roster": "which club has the most players",
    }
    return [olympics_table, medals_table, roster_table], questions


def _signature(response):
    """Everything observable about a response except wall-clock timings."""
    return [
        (item.rank, item.answer, item.utterance, item.candidate.sexpr, item.candidate.score)
        for item in response.explained
    ]


class TestRegistration:
    def test_register_returns_content_ref(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        ref = catalog.register(tables[0])
        assert isinstance(ref, TableRef)
        assert ref.digest == tables[0].fingerprint.digest
        assert ref.name == tables[0].name
        assert (ref.num_rows, ref.num_columns) == (
            tables[0].num_rows,
            tables[0].num_columns,
        )

    def test_register_all_is_index_aligned(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        refs = catalog.register_all(tables)
        assert [ref.digest for ref in refs] == [
            table.fingerprint.digest for table in tables
        ]
        assert len(catalog) == 3
        assert catalog.refs() == refs

    def test_reregistering_equal_content_is_idempotent(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        first = catalog.register(tables[0])
        again = catalog.register(tables[0], name="alias")
        assert again.digest == first.digest
        assert len(catalog) == 1
        # Both names now resolve to the same shard.
        assert catalog.resolve("alias").digest == first.digest
        assert catalog.resolve(tables[0].name).digest == first.digest

    def test_name_collision_with_different_content_raises(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        catalog.register(tables[0], name="shared")
        with pytest.raises(CatalogError, match="already registered"):
            catalog.register(tables[1], name="shared")
        # The rejected table must leave no corpus-index posting behind.
        assert catalog.stats()["retrieval"]["shards"] == len(catalog) == 1


class TestResolution:
    def test_resolves_name_digest_prefix_table_and_ref(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        ref = catalog.register(tables[0])
        for handle in (ref, ref.name, ref.digest, ref.digest[:12], tables[0]):
            assert catalog.resolve(handle) == ref

    def test_unknown_handles_raise(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        catalog.register(tables[0])
        with pytest.raises(CatalogError):
            catalog.resolve("atlantis")
        with pytest.raises(CatalogError):
            catalog.resolve(tables[1])  # never registered
        with pytest.raises(CatalogError):
            catalog.resolve(42)

    def test_short_prefixes_are_rejected(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        ref = catalog.register(tables[0])
        # A 4-hex prefix is below the safety floor even when unambiguous.
        with pytest.raises(CatalogError):
            catalog.resolve(ref.digest[:4])

    def test_contains(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        catalog.register(tables[0])
        assert tables[0] in catalog
        assert tables[1] not in catalog


class TestRouting:
    def test_ask_is_bit_identical_to_direct_interface(self, corpus):
        """Acceptance: >= 3 distinct tables, answers identical to NLInterface.ask."""
        tables, questions = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        reference = NLInterface()
        for table in tables:
            question = questions[table.name]
            routed = catalog.ask(question, table.name)
            direct = reference.ask(question, table)
            assert routed.table.fingerprint == table.fingerprint
            assert _signature(routed) == _signature(direct)

    def test_ask_many_matches_per_ask(self, corpus):
        tables, questions = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        items = [(questions[table.name], table.name) for table in tables] * 2
        batched = catalog.ask_many(items, workers=4)
        assert len(batched) == len(items)
        for (question, name), response in zip(items, batched):
            assert _signature(response) == _signature(catalog.ask(question, name))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_ask_many_honours_deadlines_without_a_pool(self, corpus, backend):
        """With no pool passed, the pool built for the call still honours
        each item's deadline: an already-expired item comes back as a
        ``DeadlineExceeded`` error while its batch-mate answers normally."""
        tables, questions = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        items = [
            (questions["olympics"], "olympics"),
            (questions["medals"], "medals"),
        ]
        responses = catalog.ask_many(
            items,
            workers=2,
            backend=backend,
            deadlines=[time.monotonic() - 1.0, None],
        )
        outcomes = [
            type(response.error).__name__ if response.error else "ok"
            for response in responses
        ]
        assert outcomes == ["DeadlineExceeded", "ok"]
        assert _signature(responses[1]) == _signature(catalog.ask(*items[1]))

    def test_ask_any_routes_to_the_right_table(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        refs = catalog.register_all(tables)
        answer = catalog.ask_any("which country hosted in 2004")
        # Retrieve-then-parse: only the anchorable shard was parsed.
        assert answer.pruned
        assert answer.best_ref == refs[0]  # the olympics shard
        assert answer.answer == ("Greece",)
        assert answer.shards_parsed < 3
        assert answer.shards_parsed + answer.shards_pruned == 3
        assert not answer.routing.fallback

    def test_ask_any_broadcast_parses_every_shard(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        refs = catalog.register_all(tables)
        answer = catalog.ask_any("which country hosted in 2004", prune=False)
        assert len(answer.ranked) == 3
        assert answer.best_ref == refs[0]
        assert answer.answer == ("Greece",)
        assert answer.shards_pruned == 0

    def test_ask_any_pruned_top_matches_broadcast_top(self, corpus):
        tables, questions = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        for question in questions.values():
            broadcast = catalog.ask_any(question, prune=False)
            pruned = catalog.ask_any(question, prune=True)
            assert pruned.routing.is_candidate(broadcast.best_ref.digest)
            assert pruned.best_ref == broadcast.best_ref
            assert pruned.answer == broadcast.answer

    def test_ask_any_falls_back_to_broadcast_on_no_hits(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        answer = catalog.ask_any("zyxgarblefrobnicate quux")
        assert answer.routing.fallback
        assert answer.shards_parsed == 3  # nothing pruned: answers never lost
        assert answer.shards_pruned == 0

    def test_ask_any_is_deterministic(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        first = catalog.ask_any("which country hosted in 2004")
        second = catalog.ask_any("which country hosted in 2004")
        assert [ref for ref, _ in first.ranked] == [ref for ref, _ in second.ranked]
        assert [
            _signature(response) for _, response in first.ranked
        ] == [_signature(response) for _, response in second.ranked]


class TestEviction:
    def test_eviction_roundtrip_is_bit_identical(self, corpus, tmp_path):
        """Acceptance: evict -> disk -> rehydrate with identical results."""
        tables, questions = corpus
        catalog = TableCatalog(cache_dir=str(tmp_path))
        catalog.register_all(tables)
        question = questions["olympics"]
        before = catalog.ask(question, "olympics")

        catalog.evict("olympics")
        assert not catalog.is_hot("olympics")
        # The table landed in the disk store.
        disk = DiskCache(tmp_path)
        digest = tables[0].fingerprint.digest
        assert disk.get_table(digest) is not None

        after = catalog.ask(question, "olympics")
        assert _signature(after) == _signature(before)
        assert catalog.is_hot("olympics")
        assert catalog.stats()["rehydrations"] == 1

    def test_eviction_without_disk_keeps_the_table(self, corpus):
        tables, questions = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        before = catalog.ask(questions["medals"], "medals")
        catalog.evict("medals")
        assert not catalog.is_hot("medals")
        after = catalog.ask(questions["medals"], "medals")
        assert _signature(after) == _signature(before)

    def test_max_hot_shards_evicts_lru(self, corpus, tmp_path):
        tables, questions = corpus
        catalog = TableCatalog(cache_dir=str(tmp_path), max_hot_shards=2)
        catalog.register_all(tables)
        for table in tables:
            catalog.ask(questions[table.name], table.name)
        stats = catalog.stats()
        assert stats["hot"] <= 2
        assert stats["cold"] >= 1
        assert stats["evictions"] >= 1
        # The least recently used shard is the cold one.
        assert catalog.is_hot("roster")
        assert not catalog.is_hot("olympics")

    def test_evict_cold_keeps_the_most_recent(self, corpus, tmp_path):
        tables, questions = corpus
        catalog = TableCatalog(cache_dir=str(tmp_path))
        catalog.register_all(tables)
        for table in tables:
            catalog.ask(questions[table.name], table.name)
        evicted = catalog.evict_cold(keep=1)
        assert len(evicted) == 2
        assert catalog.is_hot("roster")
        assert not catalog.is_hot("olympics")
        assert not catalog.is_hot("medals")

    def test_rehydration_after_cold_restart(self, corpus, tmp_path):
        """A fresh catalog over the same cache dir rehydrates evicted shards."""
        tables, questions = corpus
        first = TableCatalog(cache_dir=str(tmp_path))
        ref = first.register(tables[0])
        before = first.ask(questions["olympics"], ref)
        first.evict(ref)

        # New process, new catalog: only the ref survives (e.g. from a
        # request log); the shard itself comes back from the disk store.
        second = TableCatalog(cache_dir=str(tmp_path))
        rebuilt = second.register(second_table_from_disk(tmp_path, ref))
        after = second.ask(questions["olympics"], rebuilt)
        assert _signature(after) == _signature(before)


def second_table_from_disk(cache_dir, ref: TableRef) -> Table:
    table = DiskCache(cache_dir).get_table(ref.digest)
    assert table is not None
    assert table.fingerprint.digest == ref.digest
    return table


class TestSessionWiring:
    def test_session_routes_through_catalog_by_name(self, corpus):
        tables, questions = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        session = InterfaceSession(catalog=catalog)
        turn = session.ask(questions["olympics"], "olympics")
        assert isinstance(turn.table, Table)
        assert turn.table.fingerprint == tables[0].fingerprint
        assert turn.answer == ("Greece",)

    def test_session_auto_registers_new_tables(self, corpus):
        tables, questions = corpus
        catalog = TableCatalog()
        session = InterfaceSession(catalog=catalog)
        session.ask(questions["medals"], tables[1])
        assert tables[1] in catalog

    def test_session_without_catalog_requires_a_table(self, corpus):
        _, questions = corpus
        session = InterfaceSession()
        with pytest.raises(TypeError):
            session.ask(questions["olympics"], "olympics")
