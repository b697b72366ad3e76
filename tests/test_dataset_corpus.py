"""The discovery-corpus generator (ISSUE 9): distinctness, determinism, skew.

The generator's contract is that a corpus of confusable tables is still a
corpus of *distinct* tables: unique names by construction, unique content
fingerprints by explicit dedup.  The regression class forces the digest
collision the dedup loop exists for — before the fix, a collision
registered one shard under two names (or raised ``NAME_CONFLICT``) and
silently shrank the corpus the bench thought it measured.
"""

from __future__ import annotations

import pytest

from repro.dataset import CorpusConfig, build_discovery_corpus
from repro.dataset.corpus import _dedupe_digest
from repro.dataset.domains import DOMAINS
from repro.tables import TableCatalog


@pytest.fixture(scope="module")
def corpus():
    # Fixed small scale: the distinctness contracts must hold at any
    # size, and module scope keeps generation cost to one build.
    return build_discovery_corpus(
        CorpusConfig(num_tables=60, num_questions=40, seed=7, scale=1.0)
    )


class TestDistinctness:
    def test_names_are_unique(self, corpus):
        assert len(set(corpus.names)) == len(corpus.tables)

    def test_digests_are_unique(self, corpus):
        digests = [table.fingerprint.digest for table in corpus.tables]
        assert len(set(digests)) == len(digests)

    def test_corpus_registers_without_conflicts(self, corpus):
        """The downstream guarantee: every table becomes its own shard —
        no NAME_CONFLICT, no content-addressed merge."""
        catalog = TableCatalog()
        refs = catalog.register_all(corpus.tables, names=corpus.names)
        assert len(catalog) == len(corpus.tables)
        assert len({ref.digest for ref in refs}) == len(corpus.tables)

    def test_titles_overlap_within_domains(self, corpus):
        """Confusability is intentional: same-domain tables share every
        title token except the ordinal."""
        domain = DOMAINS[0]
        siblings = [
            name for name in corpus.names if name.startswith(domain.title)
        ]
        assert len(siblings) >= 2


class TestDigestCollisionRegression:
    def test_dedupe_perturbs_until_digest_is_fresh(self, corpus):
        """Force the collision: seed ``seen`` with the table's own digest
        and require a repaired, distinct table back."""
        table = corpus.tables[0]
        domain = DOMAINS[0]
        seen = {table.fingerprint.digest}
        repaired, repairs = _dedupe_digest(table, domain, seen, ordinal=0)
        assert repairs == 1
        assert repaired.fingerprint.digest not in seen
        assert repaired.name == table.name
        assert repaired.columns == table.columns

    def test_dedupe_survives_chained_collisions(self, corpus):
        """Every intermediate perturbation already seen ⇒ keep going."""
        table = corpus.tables[0]
        domain = DOMAINS[0]
        seen = {table.fingerprint.digest}
        first, _ = _dedupe_digest(table, domain, set(seen), ordinal=0)
        seen.add(first.fingerprint.digest)
        second, repairs = _dedupe_digest(table, domain, seen, ordinal=0)
        assert repairs == 2
        assert second.fingerprint.digest not in seen

    def test_dedupe_is_a_no_op_without_collision(self, corpus):
        table = corpus.tables[0]
        repaired, repairs = _dedupe_digest(table, DOMAINS[0], set(), ordinal=0)
        assert repairs == 0
        assert repaired is table


class TestDeterminismAndLabels:
    def test_same_config_same_corpus(self):
        config = CorpusConfig(num_tables=30, num_questions=20, seed=11, scale=1.0)
        first = build_discovery_corpus(config)
        second = build_discovery_corpus(config)
        assert [t.fingerprint.digest for t in first.tables] == [
            t.fingerprint.digest for t in second.tables
        ]
        assert [q.question for q in first.questions] == [
            q.question for q in second.questions
        ]
        assert first.popularity == second.popularity

    def test_gold_labels_point_at_generated_tables(self, corpus):
        by_digest = {
            table.fingerprint.digest: table.name for table in corpus.tables
        }
        for question in corpus.questions:
            assert by_digest[question.gold_digest] == question.gold_name

    def test_popularity_is_skewed(self, corpus):
        """Zipf by design: some tables draw several questions while most
        draw none."""
        assert max(corpus.popularity.values()) >= 2
        assert len(corpus.popularity) < len(corpus.tables)

    def test_scale_floors_apply(self):
        tiny = build_discovery_corpus(
            CorpusConfig(
                num_tables=500,
                num_questions=300,
                seed=3,
                scale=0.001,
                min_tables=8,
                min_questions=8,
            )
        )
        assert len(tiny.tables) == 8
        assert len(tiny.questions) == 8
