"""Live corpora: versioned lineage + delta index maintenance (ISSUE 8).

The acceptance bar: a delta-updated system is **bit-identical** to one
rebuilt from scratch on the final table set — for the retrieval index
(structural snapshot equality under any interleaving of add / discard /
update), for query answers after N random edits, and for the caches and
worker-pool registries that must retire superseded versions instead of
leaking them.  Plus the serving contract: an in-flight query started
before an ``update`` completes against its pinned snapshot, and the v2
wire reports the corpus version each answer was computed against.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ErrorCode, ReproEngine, classify_exception
from repro.api.envelope import QueryRequest, QueryResult
from repro.interface import NLInterface
from repro.perf import BatchItem, DiskCache, run_churn_bench
from repro.perf.churn import churn_edit_script
from repro.retrieval.corpus_index import CorpusIndex
from repro.tables import (
    NameConflictError,
    Table,
    TableCatalog,
    TableIndex,
    UnknownTableError,
    diff_tables,
)
from repro.tables.catalog import CatalogError
from repro.tables.index import update_index


def _table(name, rows, columns=("City", "Country")):
    return Table(columns=list(columns), rows=rows, name=name)


@pytest.fixture
def games():
    return _table("games", [["Athens", "Greece"], ["Atlanta", "USA"]])


@pytest.fixture
def games_v2():
    return _table("games", [["Athens", "Greece"], ["Sydney", "Australia"]])


def _signature(response):
    return [
        (item.rank, item.answer, item.utterance, item.candidate.sexpr,
         item.candidate.score)
        for item in response.explained
    ]


class TestTableDiff:
    def test_identical_tables_diff_empty(self, games):
        clone = _table("renamed", [["Athens", "Greece"], ["Atlanta", "USA"]])
        diff = diff_tables(games, clone)  # names are identity-irrelevant
        assert diff.identical
        assert not diff.changed_columns and not diff.changed_rows

    def test_cell_edit_localises_to_its_column_and_row(self, games):
        edited = _table("games", [["Athens", "Greece"], ["Sydney", "USA"]])
        diff = diff_tables(games, edited)
        assert not diff.identical
        assert diff.changed_columns == ("City",)
        assert diff.added_columns == () and diff.removed_columns == ()
        assert diff.changed_rows == (1,)
        assert not diff.row_count_changed
        assert diff.unchanged_columns(edited) == ("Country",)

    def test_row_count_change_marks_all_common_columns(self, games):
        grown = _table(
            "games",
            [["Athens", "Greece"], ["Atlanta", "USA"], ["Sydney", "Australia"]],
        )
        diff = diff_tables(games, grown)
        assert diff.row_count_changed
        assert set(diff.changed_columns) == {"City", "Country"}
        assert 2 in diff.changed_rows
        assert diff.unchanged_columns(grown) == ()

    def test_column_add_and_remove(self, games):
        reshaped = Table(
            columns=["City", "Year"],
            rows=[["Athens", 1896], ["Atlanta", 1996]],
            name="games",
        )
        diff = diff_tables(games, reshaped)
        assert diff.added_columns == ("Year",)
        assert diff.removed_columns == ("Country",)


class TestNameConflict:
    def test_register_conflicting_content_is_coded(self, games, games_v2):
        catalog = TableCatalog()
        catalog.register(games)
        with pytest.raises(NameConflictError) as caught:
            catalog.register(games_v2)
        assert "update" in str(caught.value)  # points at the remedy
        assert (
            classify_exception(caught.value).code is ErrorCode.NAME_CONFLICT
        )

    def test_reregistering_identical_content_is_not_a_conflict(self, games):
        catalog = TableCatalog()
        ref = catalog.register(games)
        assert catalog.register(games).digest == ref.digest

    def test_engine_envelopes_the_conflict(self, games, games_v2):
        engine = ReproEngine(tables=[games])
        with pytest.raises(NameConflictError):
            engine.register(games_v2)


class TestCatalogLineage:
    def test_update_records_version_and_predecessor(self, games, games_v2):
        catalog = TableCatalog()
        old = catalog.register(games)
        new = catalog.update("games", games_v2)
        assert new.version == old.version + 1
        assert new.predecessor == old.digest
        assert new.name == "games"
        assert catalog.resolve("games").digest == new.digest

    def test_superseded_shard_leaves_refs_and_retires(self, games, games_v2):
        catalog = TableCatalog()
        old = catalog.register(games)
        catalog.update(old, games_v2)
        assert [ref.digest for ref in catalog.refs()] != [old.digest]
        # Nothing pinned: retirement is immediate.
        with pytest.raises(UnknownTableError):
            catalog.resolve(old.digest)
        stats = catalog.stats()
        assert stats["updates"] == 1 and stats["retired"] == 1
        assert stats["shards"] == 1 and stats["superseded"] == 0

    def test_pin_keeps_superseded_snapshot_answerable(self, games, games_v2):
        catalog = TableCatalog()
        old = catalog.register(games)
        pinned = catalog.pin(old)
        catalog.update(old, games_v2)
        # Still resolvable and queryable by digest while pinned.
        assert catalog.resolve(pinned.digest).digest == old.digest
        assert catalog.table(pinned.digest).record(1).cell("City").display() == "Atlanta"
        assert catalog.stats()["pins"] == 1
        catalog.unpin(pinned)
        with pytest.raises(UnknownTableError):
            catalog.resolve(old.digest)
        assert catalog.stats()["retired"] == 1

    def test_update_of_superseded_shard_is_an_error(self, games, games_v2):
        catalog = TableCatalog()
        old = catalog.pin(catalog.register(games))
        catalog.update(old, games_v2)
        with pytest.raises(CatalogError, match="superseded"):
            catalog.update(old.digest, _table("games", [["Oslo", "Norway"]]))

    def test_update_cannot_fold_two_live_shards(self, games, games_v2):
        catalog = TableCatalog()
        catalog.register(games)
        catalog.register(games_v2, name="other")
        with pytest.raises(CatalogError, match="fold"):
            catalog.update("games", games_v2)

    def test_noop_update_returns_old_ref(self, games):
        catalog = TableCatalog()
        old = catalog.register(games)
        clone = _table("games", [["Athens", "Greece"], ["Atlanta", "USA"]])
        assert catalog.update("games", clone) is old
        assert catalog.stats()["updates"] == 0

    def test_retire_listener_sees_each_retired_ref(self, games, games_v2):
        catalog = TableCatalog()
        old = catalog.register(games)
        retired = []
        catalog.on_retire(retired.append)
        catalog.update(old, games_v2)
        assert [ref.digest for ref in retired] == [old.digest]


class TestPruneLineage:
    def test_prunes_retired_ancestor_blobs(self, tmp_path, games, games_v2):
        catalog = TableCatalog(cache_dir=str(tmp_path))
        old = catalog.register(games)
        catalog.evict(old)  # persists the v1 blob to the tables namespace
        disk = catalog._disk
        assert disk.get_table(old.digest) is not None
        mid = catalog.update("games", games_v2)
        catalog.evict(mid)
        final = catalog.update("games", _table("games", [["Oslo", "Norway"]]))
        pruned = catalog.prune_lineage(keep=1)
        assert old.digest in pruned and mid.digest in pruned
        assert disk.get_table(old.digest) is None
        assert disk.get_table(mid.digest) is None
        # The live version is untouched and still answerable.
        assert catalog.resolve("games").digest == final.digest
        assert catalog.prune_lineage(keep=1) == []  # idempotent

    def test_keep_preserves_newest_ancestors(self, tmp_path, games, games_v2):
        catalog = TableCatalog(cache_dir=str(tmp_path))
        old = catalog.register(games)
        catalog.evict(old)
        mid = catalog.update("games", games_v2)
        catalog.evict(mid)
        catalog.update("games", _table("games", [["Oslo", "Norway"]]))
        pruned = catalog.prune_lineage(keep=2)
        assert pruned == [old.digest]
        assert catalog._disk.get_table(mid.digest) is not None

    def test_keep_must_be_positive(self, tmp_path, games):
        catalog = TableCatalog(cache_dir=str(tmp_path))
        catalog.register(games)
        with pytest.raises(CatalogError):
            catalog.prune_lineage(keep=0)

    def test_pinned_ancestor_is_never_pruned(self, tmp_path, games, games_v2):
        catalog = TableCatalog(cache_dir=str(tmp_path))
        old = catalog.pin(catalog.register(games))
        catalog.evict(old)
        catalog.update("games", games_v2)
        assert catalog.prune_lineage(keep=1) == []  # still resolvable
        catalog.unpin(old)


class TestTableIndexDelta:
    def test_delta_reuses_unchanged_columns(self, games):
        edited = _table("games", [["Athens", "Greece"], ["Sydney", "USA"]])
        old_index = TableIndex(games)
        diff = diff_tables(games, edited)
        new_index = TableIndex.from_delta(
            edited, old_index, diff.unchanged_columns(edited)
        )
        assert new_index.fingerprint == edited.fingerprint
        # The unchanged column is the same object; the changed one is not.
        assert new_index.columns["Country"] is old_index.columns["Country"]
        assert new_index.columns["City"] is not old_index.columns["City"]
        # Structurally identical to a full rebuild, column by column.
        full = TableIndex(edited)
        for column in edited.columns:
            ours, theirs = new_index.columns[column], full.columns[column]
            for slot in type(theirs).__slots__:
                assert getattr(ours, slot) == getattr(theirs, slot), (
                    column,
                    slot,
                )
        assert diff.unchanged_columns(edited) == ("Country",)

    def test_update_index_degrades_to_full_build_on_row_change(self, games):
        grown = _table(
            "games",
            [["Athens", "Greece"], ["Atlanta", "USA"], ["Oslo", "Norway"]],
        )
        TableIndex(games)  # ensure something exists to (not) reuse
        diff = diff_tables(games, grown)
        index = update_index(games.fingerprint, grown, diff)
        assert index.fingerprint == grown.fingerprint
        assert set(index.columns) == set(grown.columns)


# -- the CorpusIndex interleaving property (hypothesis) ----------------------

_WORDS = ("athens", "paris", "oslo", "quito", "cairo", "lima")


def _content_table(seed_rows):
    rows = [[f"{word} {number}", number] for word, number in seed_rows]
    return Table(columns=["Name", "Score"], rows=rows, name="t")


_rows = st.lists(
    st.tuples(st.sampled_from(_WORDS), st.integers(0, 5)),
    min_size=1,
    max_size=4,
)
_ops = st.lists(
    st.tuples(st.sampled_from(["add", "discard", "update"]), _rows,
              st.integers(0, 7)),
    min_size=1,
    max_size=12,
)


class TestCorpusIndexInterleavings:
    @settings(max_examples=60, deadline=None)
    @given(_ops)
    def test_any_interleaving_matches_fresh_build(self, ops):
        """add/discard/update in any order leave the index byte-identical
        to a fresh build over the final table set (including pruning of
        emptied posting keys — a stale empty key breaks snapshot
        equality)."""
        index = CorpusIndex()
        model = {}  # digest -> Table, the live set
        for kind, rows, pick in ops:
            table = _content_table(rows)
            digest = table.fingerprint.digest
            if kind == "add" or not model:
                index.add(table)
                model[digest] = table
                continue
            victim = sorted(model)[pick % len(model)]
            if kind == "discard":
                assert index.discard(victim)
                del model[victim]
            else:  # update
                index.update(victim, table)
                del model[victim]
                model[digest] = table
        fresh = CorpusIndex()
        for table in model.values():
            fresh.add(table)
        assert index.snapshot() == fresh.snapshot()

    def test_update_of_unknown_digest_degrades_to_add(self, games):
        index = CorpusIndex()
        index.update("f" * 64, games)
        fresh = CorpusIndex()
        fresh.add(games)
        assert index.snapshot() == fresh.snapshot()


# -- the end-to-end bit-identity property ------------------------------------


class TestDeltaEqualsRebuild:
    def test_n_random_edits_stay_bit_identical(
        self, olympics_table, medals_table, roster_table, monkeypatch
    ):
        """The acceptance property: after N random edits, the
        delta-maintained catalog answers every bench question
        bit-identically to a from-scratch rebuild on the final tables."""
        tables = [olympics_table, medals_table, roster_table]
        questions = {
            "olympics": "which country hosted in 2004",
            "medals": "how many gold did Fiji win",
            "roster": "which club has the most players",
        }
        script = churn_edit_script(tables, edits=10, seed=42)
        delta = TableCatalog()
        delta.register_all(tables)
        # Publish every posting before the edits, so each one runs
        # CorpusIndex.update's delta rather than a pending-digest swap.
        delta.corpus_index()
        deltas = []
        real_update = CorpusIndex.update

        def counted_update(index, old_digest, new_table):
            deltas.append(old_digest)
            return real_update(index, old_digest, new_table)

        monkeypatch.setattr(CorpusIndex, "update", counted_update)
        for name, new_table in script:
            delta.update(name, new_table)
        assert len(deltas) == len(script)
        final = {table.name: table for table in tables}
        for name, new_table in script:
            final[name] = new_table
        fresh = TableCatalog()
        fresh.register_all([final[t.name] for t in tables])
        for name, question in questions.items():
            assert _signature(delta.ask(question, name)) == _signature(
                fresh.ask(question, name)
            )
        # The retrieval index too, structurally.
        rebuilt = CorpusIndex()
        for table in tables:
            rebuilt.add(final[table.name])
        assert delta.corpus_index().snapshot() == rebuilt.snapshot()

    @pytest.mark.bench_smoke
    def test_churn_bench_reports_identity_and_delta_win(self):
        from repro.perf import bench_pairs_from_dataset

        pairs = bench_pairs_from_dataset(num_tables=3, questions_per_table=2)
        report = run_churn_bench(pairs, edits=6)
        assert report.identical_answers and report.identical_index
        assert report.edits == 6
        payload = report.to_payload()
        assert payload["schema"] == "repro-bench-churn-v1"
        assert payload["catalog"]["updates"] == 6
        json.dumps(payload)  # wire-safe


# -- pools retire superseded digests -----------------------------------------


class TestPoolRetirement:
    def test_thread_pool_drops_superseded_entries(self, games, games_v2):
        from repro.parser.candidates import SemanticParser
        from repro.perf import ThreadWorkerPool

        parser = SemanticParser()
        pool = ThreadWorkerPool(parser, max_workers=2)
        try:
            NLInterface(parser, k=3).ask_many([("which city", games)], pool=pool)
            digest = games.fingerprint.digest
            assert pool.stats()["ranked"] >= 1
            assert pool.explanations.items_for(digest)
            pool.retire([digest])
            assert pool.stats()["ranked"] == 0
            assert not pool.explanations.items_for(digest)
            assert pool.stats()["retired"] == 1
            # Unrelated digests are untouched.
            pool.parse_all(
                [BatchItem(question="which city", table=games_v2, k=3)]
            )
            before = pool.stats()["ranked"]
            pool.retire(["0" * 64])
            assert pool.stats()["ranked"] == before
        finally:
            pool.close()

    def test_process_pool_unships_and_keeps_serving(self, games, games_v2):
        from repro.parser.candidates import SemanticParser
        from repro.perf import ProcessWorkerPool

        pool = ProcessWorkerPool(SemanticParser(), max_workers=1)
        try:
            pool.parse_all([BatchItem(question="which city", table=games, k=3)])
            digest = games.fingerprint.digest
            assert digest in pool._tables
            assert any(digest in worker.shipped for worker in pool._workers)
            pool.retire([digest])
            assert digest not in pool._tables
            assert all(
                digest not in worker.shipped for worker in pool._workers
            )
            # The pool still answers for live tables after the retire.
            results = pool.parse_all(
                [BatchItem(question="which city", table=games_v2, k=3)]
            )
            assert not isinstance(results[0][0], Exception)
        finally:
            pool.close()

    def test_engine_forwards_retirement_to_pools(self, games, games_v2):
        engine = ReproEngine(tables=[games])
        try:
            pool = engine.pool("thread")
            digest = games.fingerprint.digest
            engine.catalog.interface.ask_many([("which city", games)], pool=pool)
            assert pool.stats()["ranked"] >= 1
            assert pool.explanations.items_for(digest)
            engine.update("games", games_v2)
            assert pool.stats()["ranked"] == 0
            assert not pool.explanations.items_for(digest)
            assert pool.stats()["retired"] == 1
        finally:
            engine.close()


# -- serving: pinned in-flight queries + the corpus_version wire field -------


class TestServingChurn:
    def test_result_carries_acceptance_version(self, games):
        engine = ReproEngine(tables=[games])
        result = engine.query("which city", target="games")
        assert result.corpus_version == engine.catalog.version
        # Additive wire field: round-trips, excluded from canonical form.
        wire = json.loads(json.dumps(result.to_dict()))
        assert wire["corpus_version"] == result.corpus_version
        assert QueryResult.from_dict(wire) == result
        assert "corpus_version" not in result.canonical_dict()

    def test_inflight_query_completes_against_pinned_version(
        self, games, games_v2
    ):
        """An update landing after a request resolves (but before its
        batch executes) must not change that request's answer: the
        dispatcher pins the resolved snapshot, the answer reflects the
        pre-update content, and the superseded shard retires only after
        the batch drains its pin."""
        catalog = TableCatalog()
        old = catalog.register(games)
        accepted_version = catalog.version
        real_ask_many = catalog.ask_many
        seen_digests = []

        def updating_ask_many(items, **kwargs):
            # Fires on the dispatcher thread after resolve+pin: the
            # deterministic stand-in for a concurrent update racing an
            # in-flight batch.
            if catalog.resolve("games").digest == old.digest:
                catalog.update("games", games_v2)
            seen_digests.extend(ref.digest for _, ref in items)
            return real_ask_many(items, **kwargs)

        catalog.ask_many = updating_ask_many

        async def drive():
            async with engine.server() as server:
                return await server.aquery(
                    QueryRequest(question="which city is in the USA", target="games")
                )

        with ReproEngine(catalog, workers=2) as engine:
            result = asyncio.run(drive())
        assert result.ok
        # The batch executed against the pinned pre-update snapshot...
        assert seen_digests == [old.digest]
        assert result.shard.digest == old.digest
        assert result.corpus_version == accepted_version
        # ...whose content still had Atlanta/USA.
        assert any("Atlanta" in (c.utterance or "") or "Atlanta" in c.answer
                   for c in result.candidates) or result.answer
        # After the batch drained its pin the superseded shard retired.
        with pytest.raises(UnknownTableError):
            catalog.resolve(old.digest)
        assert catalog.resolve("games").digest == games_v2.fingerprint.digest

    def test_engine_query_completes_against_pinned_version(self, games, games_v2):
        """ReproEngine.query pins the shard it resolved, as the dispatcher
        does: an update landing between resolve and parse neither fails
        the request with UNKNOWN_TABLE nor changes its snapshot."""
        engine = ReproEngine(tables=[games])
        catalog = engine.catalog
        old = catalog.resolve("games")
        accepted_version = catalog.version
        real_ask_many = catalog.ask_many

        def updating_ask_many(items, **kwargs):
            if catalog.resolve("games").digest == old.digest:
                catalog.update("games", games_v2)
            return real_ask_many(items, **kwargs)

        catalog.ask_many = updating_ask_many
        result = engine.query("which city is in the USA", target="games")
        assert result.ok
        assert result.shard.digest == old.digest
        assert result.corpus_version == accepted_version
        # The call drained its pin, so the superseded shard retired.
        with pytest.raises(UnknownTableError):
            catalog.resolve(old.digest)

    def test_engine_query_many_completes_against_pinned_version(
        self, games, games_v2
    ):
        """The same contract for every request of a query_many group."""
        engine = ReproEngine(tables=[games])
        catalog = engine.catalog
        old = catalog.resolve("games")
        accepted_version = catalog.version
        real_ask_many = catalog.ask_many

        def updating_ask_many(items, **kwargs):
            if catalog.resolve("games").digest == old.digest:
                catalog.update("games", games_v2)
            return real_ask_many(items, **kwargs)

        catalog.ask_many = updating_ask_many
        request = QueryRequest(question="which city is in the USA", target="games")
        results = engine.query_many([request, request])
        assert len(results) == 2
        for result in results:
            assert result.ok
            assert result.shard.digest == old.digest
            assert result.corpus_version == accepted_version
        with pytest.raises(UnknownTableError):
            catalog.resolve(old.digest)

    def test_server_stats_mirror_churn_counters(self, games, games_v2):
        catalog = TableCatalog()
        catalog.register(games)

        async def drive():
            async with engine.server() as server:
                request = QueryRequest(question="which city", target="games")
                await server.aquery(request)
                catalog.update("games", games_v2)
                await server.aquery(request)
                return server.stats_payload()

        with ReproEngine(catalog, workers=2) as engine:
            payload = asyncio.run(drive())
        server_stats = payload["server"]
        assert server_stats["corpus_updates"] == 1
        assert server_stats["shards_retired"] == 1
        assert server_stats["pinned_requests"] == 2
        assert payload["catalog"]["version"] == catalog.version


class TestDiskCacheRemoval:
    def test_remove_table_unlinks_the_blob(self, tmp_path, games):
        disk = DiskCache(tmp_path)
        digest = games.fingerprint.digest
        disk.put_table(digest, games)
        assert disk.get_table(digest) is not None
        assert disk.remove_table(digest) is True
        assert disk.get_table(digest) is None
        assert disk.remove_table(digest) is False  # already gone

    def test_remove_is_namespace_scoped(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.put("a", ("k",), 1)
        disk.put("b", ("k",), 2)
        assert disk.remove("a", ("k",)) is True
        assert disk.get("b", ("k",)) == 2
