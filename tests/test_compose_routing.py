"""Shard-set routing and the composed answer through the full stack.

Covers :meth:`CorpusIndex.term_coverage`, the
:class:`~repro.retrieval.router.ShardSetRouter` proposal rules, the
catalog's additive composition (`ask_any` single-shard ranking is
byte-identical with composition on or off), the v2 wire envelope's
``composed`` field, the multi-table question tier, and the
``repro bench-join`` harness with its oracle gate.
"""

import json

import pytest

from repro.api import ReproEngine, QueryResult
from repro.api import schema as wire_schema
from repro.dataset import JoinCorpusConfig, build_join_corpus
from repro.perf.join import JOIN_RECALL_KS, run_join_bench
from repro.retrieval import ShardSetRouter
from repro.tables import Table
from repro.tables.catalog import TableCatalog


@pytest.fixture
def medals():
    return Table(
        columns=["Nation", "Total", "Golds"],
        rows=[
            ["Fiji", "120", "40"],
            ["Samoa", "80", "20"],
            ["Tonga", "95", "30"],
            ["Greece", "town", "10"],
            ["Norway", "300", "90"],
        ],
        name="medals",
    )


@pytest.fixture
def regions():
    return Table(
        columns=["Nation", "Continent"],
        rows=[
            ["Fiji", "Oceania"],
            ["Samoa", "Oceania"],
            ["Tonga", "Oceania"],
            ["Greece", "Europe"],
            ["Norway", "Europe"],
        ],
        name="regions",
    )


@pytest.fixture
def catalog(medals, regions):
    cat = TableCatalog()
    cat.register(medals)
    cat.register(regions)
    return cat


JOIN_QUESTION = "what is the total for nations in Oceania"


class TestTermCoverage:
    def test_terms_map_to_covering_shards(self, catalog, medals, regions):
        coverage = catalog.corpus_index().term_coverage(JOIN_QUESTION)
        assert coverage["entity:oceania"] == frozenset(
            {regions.fingerprint.digest}
        )
        assert medals.fingerprint.digest in coverage["header:total"]

    def test_uncovered_terms_are_absent(self, catalog):
        coverage = catalog.corpus_index().term_coverage("what about zanzibar")
        assert "entity:zanzibar" not in coverage

    def test_empty_question_has_no_coverage(self, catalog):
        assert catalog.corpus_index().term_coverage("") == {}


class TestShardSetRouter:
    def test_proposes_the_covering_pair(self, catalog, medals, regions):
        decision = catalog.routing_sets(JOIN_QUESTION)
        assert decision.proposed
        assert not decision.single_covered
        top = decision.proposals[0]
        assert frozenset(top.digests) == frozenset(
            {medals.fingerprint.digest, regions.fingerprint.digest}
        )
        assert top.complete

    def test_single_covered_question_gets_no_proposals(self, catalog):
        # Every anchored term lives in the medals shard alone.
        decision = catalog.routing_sets("how many golds does Fiji have")
        assert decision.single_covered
        assert decision.proposals == ()

    def test_fallback_question_gets_no_proposals(self, catalog):
        decision = catalog.routing_sets("zzz qqq xxx")
        assert decision.single.fallback
        assert decision.proposals == ()

    def test_deterministic(self, catalog):
        first = catalog.routing_sets(JOIN_QUESTION)
        second = catalog.routing_sets(JOIN_QUESTION)
        assert first.proposals == second.proposals

    def test_max_proposals_override(self, catalog):
        default = catalog.routing_sets(JOIN_QUESTION)
        widened = catalog.routing_sets(JOIN_QUESTION, max_proposals=8)
        assert widened.proposals[: len(default.proposals)] == default.proposals

    def test_constructor_validates_knobs(self, catalog):
        with pytest.raises(ValueError):
            ShardSetRouter(catalog.corpus_index(), catalog._router, max_set_size=1)
        with pytest.raises(ValueError):
            ShardSetRouter(catalog.corpus_index(), catalog._router, max_proposals=0)


class TestCatalogComposition:
    def test_ask_any_attaches_a_composed_answer(self, catalog):
        answer = catalog.ask_any(JOIN_QUESTION)
        assert answer.composed is not None
        assert answer.composed.answer == ("120", "80", "95")
        assert answer.composed.provenance.primary_name == "medals"

    def test_single_shard_ranking_is_unchanged_by_composition(self, catalog):
        with_compose = catalog.ask_any(JOIN_QUESTION)
        without = catalog.ask_any(JOIN_QUESTION, compose=False)
        assert without.composed is None
        assert [ref.digest for ref, _ in with_compose.ranked] == [
            ref.digest for ref, _ in without.ranked
        ]
        assert with_compose.routing.scored == without.routing.scored

    def test_catalog_policy_disables_composition(self, medals, regions):
        cat = TableCatalog(compose=False)
        cat.register(medals)
        cat.register(regions)
        assert cat.ask_any(JOIN_QUESTION).composed is None
        # The per-call override still wins over the constructor policy.
        assert cat.ask_any(JOIN_QUESTION, compose=True).composed is not None

    def test_single_table_questions_never_compose(self, catalog):
        assert catalog.ask_any("how many golds does Fiji have").composed is None


class TestComposedOnTheWire:
    def test_engine_emits_and_roundtrips_composed(self, medals, regions):
        engine = ReproEngine(tables=[medals, regions])
        result = engine.query(JOIN_QUESTION)
        assert result.ok
        assert result.composed is not None
        assert result.composed.answer == ("120", "80", "95")
        assert result.composed.primary.name == "medals"
        assert result.composed.secondary.name == "regions"
        assert result.composed.join_pairs == ((0, 0), (1, 1), (2, 2))

        payload = result.to_dict()
        wire_schema.validate_payload(
            payload, wire_schema.load_schema("query_result.v2.json")
        )
        rebuilt = QueryResult.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.composed == result.composed
        assert rebuilt.canonical_dict() == result.canonical_dict()

    def test_single_table_result_keeps_composed_null(self, medals, regions):
        engine = ReproEngine(tables=[medals, regions])
        result = engine.query("how many golds does Fiji have")
        assert result.composed is None
        assert result.to_dict()["composed"] is None


class TestJoinCorpus:
    def test_deterministic_for_a_seed(self):
        config = JoinCorpusConfig(scale=1.0)
        first = build_join_corpus(config)
        second = build_join_corpus(config)
        assert [t.fingerprint.digest for t in first.tables] == [
            t.fingerprint.digest for t in second.tables
        ]
        assert first.questions == second.questions

    def test_scale_floors_hold(self):
        corpus = build_join_corpus(JoinCorpusConfig(scale=0.01))
        config = JoinCorpusConfig()
        assert len(corpus.pairs) == config.min_pairs
        assert len(corpus.questions) == config.min_questions

    def test_gold_pairs_reference_generated_tables(self):
        corpus = build_join_corpus(JoinCorpusConfig(scale=0.1))
        digests = {t.fingerprint.digest for t in corpus.tables}
        for question in corpus.questions:
            assert question.primary_digest in digests
            assert question.secondary_digest in digests
            assert question.answer

    def test_questions_carry_the_planner_anchors(self):
        corpus = build_join_corpus(JoinCorpusConfig(scale=0.1))
        for question in corpus.questions:
            assert question.target_column.lower() in question.question.lower()
            assert question.anchor_value.lower() in question.question.lower()


class TestJoinBench:
    @pytest.fixture(scope="class")
    def report(self):
        return run_join_bench(config=JoinCorpusConfig(scale=0.25))

    def test_gate_passes(self, report):
        assert report.gate_ok
        assert report.composed == report.compose_attempted
        assert report.oracle_divergent == 0
        assert report.failures == []

    def test_recall_is_reported(self, report):
        for k in JOIN_RECALL_KS:
            assert 0.0 <= report.recall[k] <= 1.0
        assert report.recall[5] >= report.recall[1]

    def test_payload_matches_schema(self, report):
        wire_schema.validate_payload(
            report.to_payload(), wire_schema.load_schema("bench_join.v1.json")
        )
