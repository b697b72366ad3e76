"""The corpus-retrieval layer (ISSUE 4): index, router, fallback contract.

Three layers of guarantees, each locked in here:

* **recall superset** — any shard the parser's lexicon could anchor an
  entity or column match on is retrieved by the corpus index (their term
  extraction is literally shared code, so this is checked directly
  against :class:`~repro.parser.lexicon.Lexicon` output);
* **guaranteed fallback** — no retrieval hits ⇒ full broadcast; pruning
  can narrow work, never erase answers (empty-index, no-hit, all-hit and
  evict-during-``ask_any`` cases);
* **ranking stability** — ``ask_any(prune=True)``'s top answer equals
  the broadcast top answer whenever the broadcast's winning shard is
  retrievable, property-tested over random catalogs and questions.
"""

from __future__ import annotations

import string
import sys
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parser.lexicon import Lexicon
from repro.retrieval import (
    CorpusIndex,
    ShardRouter,
    ShardSetRouter,
    extract_question_terms,
    extract_shard_posting,
    extract_shard_postings,
)
from repro.tables import Table, TableCatalog
from repro.tables.catalog import CatalogError, NameConflictError


@pytest.fixture
def corpus(olympics_table, medals_table, roster_table):
    questions = {
        "olympics": "which country hosted in 2004",
        "medals": "how many gold did Fiji win",
        "roster": "which club has the most players",
    }
    return [olympics_table, medals_table, roster_table], questions


# ---------------------------------------------------------------------------
# the corpus index
# ---------------------------------------------------------------------------


class TestCorpusIndex:
    def test_postings_are_content_addressed_and_idempotent(self, olympics_table):
        index = CorpusIndex()
        first = index.add(olympics_table)
        again = index.add(olympics_table)
        assert first is again
        assert len(index) == 1
        assert olympics_table.fingerprint.digest in index

    def test_posting_covers_entities_headers_and_numbers(self, olympics_table):
        posting = extract_shard_posting(olympics_table)
        assert "greece" in posting.entity_keys
        assert "rio de janeiro" in posting.entity_keys
        assert {"rio", "de", "janeiro"} <= posting.entity_tokens
        assert {"year", "country", "city"} <= posting.header_tokens
        assert any(number.number == 2004 for number in posting.numbers)

    def test_scoring_hits_the_right_shard(self, corpus):
        tables, _ = corpus
        index = CorpusIndex()
        for table in tables:
            index.add(table)
        hits = index.score_question("which country hosted in 2004")
        digest = tables[0].fingerprint.digest
        assert digest in hits
        assert hits[digest].score > 0
        assert any(term.startswith("header:country") for term in hits[digest].matched)
        assert tables[2].fingerprint.digest not in hits

    def test_scoring_is_deterministic(self, corpus):
        tables, questions = corpus
        index = CorpusIndex()
        for table in tables:
            index.add(table)
        for question in questions.values():
            first = index.score_question(question)
            second = index.score_question(question)
            assert {d: (h.score, h.matched) for d, h in first.items()} == {
                d: (h.score, h.matched) for d, h in second.items()
            }

    def test_discard_removes_every_inverted_entry(self, corpus):
        tables, _ = corpus
        index = CorpusIndex()
        for table in tables:
            index.add(table)
        digest = tables[0].fingerprint.digest
        assert index.discard(digest)
        assert not index.discard(digest)  # already gone
        assert digest not in index
        for question in ("which country hosted in 2004", "Greece", "2004"):
            assert digest not in index.score_question(question)
        # The other shards' entries are untouched.
        assert tables[1].fingerprint.digest in index.score_question("Fiji gold")

    def test_recall_superset_of_lexicon_anchors(self, corpus):
        """Any (question, table) pair where the lexicon finds an entity or
        column match MUST be a retrieval hit — the recall contract."""
        tables, questions = corpus
        index = CorpusIndex()
        for table in tables:
            index.add(table)
        for table in tables:
            lexicon = Lexicon(table)
            for question in questions.values():
                analysis = lexicon.analyze(question)
                if analysis.entities or analysis.columns:
                    hits = index.score_question(question)
                    assert table.fingerprint.digest in hits, (
                        f"lexicon anchors {question!r} on {table.name} "
                        "but retrieval missed it"
                    )

    def test_question_terms_mirror_lexicon_normalization(self):
        terms = extract_question_terms("How many Gold did Fiji win in 2004?")
        assert "fiji" in terms.phrases
        assert "gold" in terms.phrases
        assert "in 2004" in terms.phrases  # spans may cross stop words
        assert "in" not in terms.phrases  # lone stop words are not probes
        assert any(number.number == 2004 for number in terms.numbers)


# ---------------------------------------------------------------------------
# the router and the fallback contract
# ---------------------------------------------------------------------------


class TestShardRouter:
    def test_empty_index_falls_back_to_broadcast(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        refs = catalog.register_all(tables)
        router = ShardRouter(CorpusIndex())  # nothing indexed
        decision = router.route("which country hosted in 2004", refs)
        assert decision.fallback
        assert decision.candidates == tuple(refs)
        assert decision.pruned == ()

    def test_no_hit_question_falls_back(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        decision = catalog.routing("zyxgarblefrobnicate quux")
        assert decision.fallback
        assert decision.num_candidates == 3
        assert decision.num_pruned == 0

    def test_all_hit_question_keeps_every_shard(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        # One anchor per fixture shard: an olympics entity, a medals
        # entity and a roster club.
        decision = catalog.routing("Greece Fiji Servette")
        assert not decision.fallback
        assert decision.num_candidates == 3
        assert decision.num_pruned == 0

    def test_partial_hit_question_prunes_the_rest(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        refs = catalog.register_all(tables)
        decision = catalog.routing("which country hosted in 2004")
        assert not decision.fallback
        assert refs[0] in decision.candidates
        assert refs[2] in decision.pruned

    def test_ranking_is_score_then_registration_order(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        refs = catalog.register_all(tables)
        decision = catalog.routing("which country hosted in 2004")
        scores = [scored.score for scored in decision.scored]
        assert scores == sorted(scores, reverse=True)
        # Zero-score shards keep registration order (stable sort).
        zeros = [s.ref for s in decision.scored if s.score == 0.0]
        assert zeros == [ref for ref in refs if ref in zeros]

    def test_max_candidates_caps_the_survivors(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        refs = catalog.register_all(tables)
        router = ShardRouter(catalog.corpus_index(), max_candidates=1)
        decision = router.route("Greece Fiji United 10", refs)
        assert decision.num_candidates == 1

    def test_max_candidates_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(CorpusIndex(), max_candidates=0)
        catalog = TableCatalog()
        with pytest.raises(ValueError):
            catalog.routing("anything", max_candidates=0)

    def test_per_call_cap_overrides_router_default(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        capped = catalog.routing("Greece Fiji Servette", max_candidates=2)
        assert not capped.fallback
        assert capped.num_candidates == 2
        assert capped.num_pruned == 1
        # The capped decision only carries the survivors' scores.
        assert len(capped.scored) == 2

    def test_capped_zero_hit_question_still_falls_back(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        refs = catalog.register_all(tables)
        capped = catalog.routing("zyxgarblefrobnicate quux", max_candidates=1)
        full = catalog.routing("zyxgarblefrobnicate quux")
        assert capped.fallback
        assert capped.candidates == tuple(refs) == full.candidates
        assert capped.scored == full.scored


# ---------------------------------------------------------------------------
# bulk extraction and the heap-routing hot path
# ---------------------------------------------------------------------------


class TestBulkExtraction:
    def test_batch_postings_match_per_table_extraction(self, corpus):
        """The batch-memoized extractor is bit-identical to mapping
        extract_shard_posting over the tables — memoization is a pure
        cache, never a semantic change."""
        tables, _ = corpus
        batch = extract_shard_postings(tables)
        singles = [extract_shard_posting(table) for table in tables]
        assert batch == singles

    def test_caught_up_index_equals_per_table_adds(self, corpus):
        tables, _ = corpus
        reference = CorpusIndex()
        for table in tables:
            reference.add(table)
        catalog = TableCatalog()
        refs = catalog.register_all(tables)
        assert catalog.corpus_index().snapshot() == reference.snapshot()
        assert [ref.digest for ref in refs] == [
            table.fingerprint.digest for table in tables
        ]

    def test_register_all_rejects_conflicts_before_mutating(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        catalog.register(tables[0], name="taken")
        with pytest.raises(NameConflictError):
            catalog.register_all(tables[1:], names=["fresh", "taken"])
        # Atomic: the non-conflicting table was NOT registered.
        assert len(catalog) == 1
        assert [ref.name for ref in catalog.refs()] == ["taken"]

    def test_postings_size_counters_track_add_and_discard(self, corpus):
        tables, _ = corpus
        index = CorpusIndex()
        empty = index.stats()
        assert empty["postings_terms"] == 0 and empty["postings_bytes"] == 0

        postings = [index.add(table) for table in tables]
        stats = index.stats()
        assert stats["postings_terms"] == sum(p.num_terms for p in postings)
        assert stats["postings_bytes"] == sum(p.nbytes for p in postings)

        index.discard(tables[0].fingerprint.digest)
        after = index.stats()
        assert after["postings_terms"] == sum(p.num_terms for p in postings[1:])
        assert after["postings_bytes"] == sum(p.nbytes for p in postings[1:])

    def test_catalog_stats_mirror_postings_counters(self, corpus):
        tables, _ = corpus
        catalog = TableCatalog()
        catalog.register_all(tables)
        retrieval = catalog.stats()["retrieval"]
        index_stats = catalog.corpus_index().stats()
        assert retrieval["postings_terms"] == index_stats["postings_terms"]
        assert retrieval["postings_bytes"] == index_stats["postings_bytes"]
        assert retrieval["postings_bytes"] > 0


class TestEvictionInteraction:
    def test_pruned_out_evicted_shards_stay_on_disk(self, corpus, tmp_path):
        """The ISSUE 4 regression: ask_any must not rehydrate evicted
        shards that retrieval pruned out."""
        tables, _ = corpus
        catalog = TableCatalog(cache_dir=str(tmp_path), max_hot_shards=1)
        catalog.register_all(tables)  # LRU keeps only roster hot
        assert catalog.is_hot("roster")
        assert not catalog.is_hot("olympics") and not catalog.is_hot("medals")

        answer = catalog.ask_any("which club has the most players")
        assert answer.best_ref.name == "roster"
        assert answer.shards_parsed == 1
        # The evicted shards were pruned, not rehydrated-and-ranked-last.
        assert catalog.stats()["rehydrations"] == 0
        assert not catalog.is_hot("olympics") and not catalog.is_hot("medals")

    def test_evicted_shard_with_hits_rehydrates_during_ask_any(
        self, corpus, tmp_path
    ):
        tables, _ = corpus
        catalog = TableCatalog(cache_dir=str(tmp_path), max_hot_shards=1)
        catalog.register_all(tables)
        assert not catalog.is_hot("olympics")

        answer = catalog.ask_any("which country hosted in 2004")
        assert answer.best_ref.name == "olympics"
        assert answer.answer == ("Greece",)
        assert catalog.stats()["rehydrations"] >= 1

    def test_evict_during_ask_any_workload_keeps_answers(self, corpus, tmp_path):
        """Interleaving evictions with corpus-wide asks never changes
        answers — postings outlive eviction, parsing rehydrates on hit."""
        tables, questions = corpus
        reference = TableCatalog()
        reference.register_all(tables)
        expected = {
            question: reference.ask_any(question).answer
            for question in questions.values()
        }

        catalog = TableCatalog(cache_dir=str(tmp_path))
        catalog.register_all(tables)
        for name, question in questions.items():
            catalog.evict(name)  # the shard the question targets goes cold
            answer = catalog.ask_any(question)
            assert answer.answer == expected[question]


# ---------------------------------------------------------------------------
# the property: pruned top == broadcast top whenever retrievable
# ---------------------------------------------------------------------------

WORDS = ["lyra", "vega", "altair", "deneb", "rigel", "sirius", "capella", "mizar"]
HEADERS = [["Star", "Magnitude"], ["City", "People"], ["Team", "Points"]]


@st.composite
def catalogs_and_questions(draw):
    """A random multi-table catalog plus a question mixing shard terms
    and noise — sometimes anchorable, sometimes not."""
    num_tables = draw(st.integers(min_value=2, max_value=4))
    tables = []
    for position in range(num_tables):
        headers = draw(st.sampled_from(HEADERS))
        num_rows = draw(st.integers(min_value=2, max_value=4))
        names = draw(
            st.lists(
                st.sampled_from(WORDS), min_size=num_rows, max_size=num_rows,
                unique=True,
            )
        )
        numbers = draw(
            st.lists(
                st.integers(min_value=1, max_value=50),
                min_size=num_rows,
                max_size=num_rows,
            )
        )
        tables.append(
            Table(
                columns=list(headers),
                rows=[[name, number] for name, number in zip(names, numbers)],
                name=f"shard-{position}",
            )
        )
    # Question: a few tokens drawn from shard vocabulary + pure noise.
    vocab = sorted({word for table in tables for word in
                    (cell.value.display().lower() for record in table.records
                     for cell in record.cells)})
    num_terms = draw(st.integers(min_value=0, max_value=3))
    terms = draw(
        st.lists(st.sampled_from(vocab), min_size=num_terms, max_size=num_terms)
        if vocab and num_terms
        else st.just([])
    )
    noise = draw(
        st.lists(
            st.text(alphabet=string.ascii_lowercase, min_size=4, max_size=8),
            min_size=0,
            max_size=2,
        )
    )
    question = " ".join(["what is"] + terms + noise) or "what"
    return tables, question


class TestPrunedMatchesBroadcastProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(catalogs_and_questions())
    def test_pruned_top_matches_broadcast_when_retrievable(self, case):
        tables, question = case
        catalog = TableCatalog()
        catalog.register_all(tables)
        broadcast = catalog.ask_any(question, prune=False)
        pruned = catalog.ask_any(question, prune=True)

        # Fallback contract: pruning never empties the answer set when a
        # broadcast would have found one.
        if broadcast.ranked:
            assert pruned.ranked

        top_ref = broadcast.best_ref
        if top_ref is not None and pruned.routing.is_candidate(top_ref.digest):
            assert pruned.best_ref == top_ref
            assert pruned.answer == broadcast.answer

        # Survivor responses are bit-identical to their broadcast runs —
        # pruning changes which shards parse, never how they parse.
        broadcast_by_digest = {
            ref.digest: response for ref, response in broadcast.ranked
        }
        for ref, response in pruned.ranked:
            reference = broadcast_by_digest[ref.digest]
            assert [item.answer for item in response.explained] == [
                item.answer for item in reference.explained
            ]

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(catalogs_and_questions(), st.integers(min_value=1, max_value=5))
    def test_heap_top_n_equals_full_ranking_prefix(self, case, cap):
        """The heap hot path is an optimization, not a reranking: the
        capped decision's candidates are exactly the first N of the full
        deterministic ranking, with identical scores and matched terms."""
        tables, question = case
        catalog = TableCatalog()
        catalog.register_all(tables)
        full = catalog.routing(question)
        capped = catalog.routing(question, max_candidates=cap)

        assert capped.fallback == full.fallback
        if capped.fallback:
            # Zero-hit: the capped route degrades to the identical
            # broadcast decision.
            assert capped.candidates == full.candidates
            assert capped.scored == full.scored
            return

        survivors = full.candidates[:cap]
        assert capped.candidates == survivors
        assert set(capped.pruned) == set(full.candidates[cap:]) | set(full.pruned)
        full_by_digest = {s.ref.digest: s for s in full.scored}
        for scored in capped.scored:
            reference = full_by_digest[scored.ref.digest]
            assert scored.score == reference.score
            assert scored.matched == reference.matched

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(catalogs_and_questions(), st.integers(min_value=1, max_value=5))
    def test_capped_ask_any_matches_broadcast_when_gold_survives(self, case, cap):
        """Top-N pruned ask_any is bit-identical to broadcast at the top
        whenever the broadcast's winning shard survived the cap."""
        tables, question = case
        catalog = TableCatalog()
        catalog.register_all(tables)
        broadcast = catalog.ask_any(question, prune=False)
        capped = catalog.ask_any(question, max_candidates=cap)

        if broadcast.ranked:
            assert capped.ranked  # fallback contract survives the cap

        top_ref = broadcast.best_ref
        if top_ref is not None and capped.routing.is_candidate(top_ref.digest):
            assert capped.best_ref == top_ref
            assert capped.answer == broadcast.answer


# ---------------------------------------------------------------------------
# the catch-up: registration extracts nothing, the first read indexes
# ---------------------------------------------------------------------------

#: Distinct contents for the interleaving property; drawing from a small
#: pool makes repeated content, aliases and update collisions common.
POOL = [
    Table(
        columns=list(HEADERS[i % len(HEADERS)]),
        rows=[[WORDS[i], i + 1], [WORDS[(i + 3) % len(WORDS)], 10 + i]],
        name=f"pool-{i}",
    )
    for i in range(len(WORDS))
]
ALIASES = ["a", "b", "c", "d"]
PROBES = ["what is lyra", "which city has 12 people", "vega altair points", "zzz"]

catalog_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), st.sampled_from(POOL), st.sampled_from(ALIASES)),
        st.tuples(
            st.just("register_all"),
            st.lists(
                st.tuples(st.sampled_from(POOL), st.sampled_from(ALIASES)),
                min_size=1,
                max_size=3,
            ),
        ),
        st.tuples(st.just("update"), st.integers(0, 7), st.sampled_from(POOL)),
        st.tuples(st.just("evict"), st.integers(0, 7)),
        st.tuples(
            st.just("read"),
            st.sampled_from(["routing", "routing_sets", "stats", "corpus_index"]),
            st.sampled_from(PROBES),
        ),
    ),
    min_size=1,
    max_size=12,
)


def _reference_index(refs):
    """The slow reference: per-table adds over the live shards' content."""
    by_digest = {table.fingerprint.digest: table for table in POOL}
    reference = CorpusIndex()
    for ref in refs:
        reference.add(by_digest[ref.digest])
    return reference


class TestCatchUp:
    def test_routed_work_extracts_no_posting(self, corpus, monkeypatch):
        from repro.retrieval import corpus_index as module

        calls = []
        for name in ("extract_shard_posting", "extract_shard_postings"):
            real = getattr(module, name)

            def counted(tables, _real=real, _name=name):
                calls.append(_name)
                return _real(tables)

            monkeypatch.setattr(module, name, counted)
        tables, questions = corpus
        edited = Table(
            columns=["Year", "Country", "City"],
            rows=[[1896, "Greece", "Athens"], [2020, "Japan", "Tokyo"]],
            name="olympics",
        )
        catalog = TableCatalog()
        catalog.register_all(tables)
        ref = catalog.pin("olympics")
        catalog.ask_many([(questions["olympics"], ref)], k=2, workers=1)
        catalog.unpin(ref)
        catalog.update("olympics", edited)
        assert calls == []
        catalog.corpus_index()
        assert calls == ["extract_shard_postings"]

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(catalog_ops)
    def test_every_read_sees_the_live_shards_index(self, ops):
        with tempfile.TemporaryDirectory() as cache_dir:
            catalog = TableCatalog(cache_dir=cache_dir, max_hot_shards=1)
            for op in ops:
                refs = catalog.refs()
                if op[0] == "register":
                    try:
                        catalog.register(op[1], name=op[2])
                    except NameConflictError:
                        assert catalog.refs() == refs
                elif op[0] == "register_all":
                    tables = [table for table, _ in op[1]]
                    names = [name for _, name in op[1]]
                    try:
                        catalog.register_all(tables, names=names)
                    except NameConflictError:
                        assert catalog.refs() == refs
                elif op[0] == "update":
                    if refs:
                        try:
                            catalog.update(refs[op[1] % len(refs)], op[2])
                        except CatalogError:
                            pass  # the new content is already registered
                elif op[0] == "evict":
                    if refs:
                        catalog.evict(refs[op[1] % len(refs)])
                else:
                    self._check_read(catalog, op[1], op[2])
            self._check_read(catalog, "corpus_index", PROBES[0])

    @staticmethod
    def _check_read(catalog, read, question):
        refs = catalog.refs()
        reference = _reference_index(refs)
        router = ShardRouter(reference)
        if read == "routing":
            assert catalog.routing(question) == router.route(question, refs)
        elif read == "routing_sets":
            assert catalog.routing_sets(question) == ShardSetRouter(
                reference, router
            ).route_sets(question, refs)
        elif read == "stats":
            assert catalog.stats()["retrieval"] == reference.stats()
        assert catalog.corpus_index().snapshot() == reference.snapshot()
        assert catalog.routing(question) == router.route(question, refs)

    def test_concurrent_registration_and_reads_lose_no_posting(self):
        """Registering threads race reading threads on one catalog; every
        table must end up indexed exactly once, whichever read caught it up."""
        tables = [
            Table(
                columns=["Star", "Magnitude"],
                rows=[[f"{WORDS[i % len(WORDS)]} {worker} {i}", i]],
                name=f"w{worker}-{i}",
            )
            for worker in range(4)
            for i in range(30)
        ]
        catalog = TableCatalog()
        errors = []

        def register(chunk):
            try:
                for table in chunk:
                    catalog.register(table)
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        def read():
            try:
                for _ in range(60):
                    catalog.routing("what is lyra")
                    catalog.stats()
            except Exception as error:
                errors.append(error)

        threads = [
            threading.Thread(target=register, args=(tables[w::4],))
            for w in range(4)
        ] + [threading.Thread(target=read) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        reference = CorpusIndex()
        for table in tables:
            reference.add(table)
        assert catalog.corpus_index().snapshot() == reference.snapshot()
        assert catalog.stats()["retrieval"] == reference.stats()
