"""The table-discovery bench harness (ISSUE 9): report shape + contracts.

One small corpus, one harness run, every invariant checked against it:
the payload matches the committed ``repro-bench-discovery-v1`` schema
shape, the bulk-built index is structurally identical to the sequential
one, the pruned answers match broadcast, and the recall bookkeeping adds
up.  The full-scale numbers live in the committed
``BENCH_discovery.json``; this file locks the machinery, not the
measurements.
"""

from __future__ import annotations

import json
import weakref

import pytest

from repro.dataset import CorpusConfig, build_discovery_corpus
from repro.perf import RECALL_KS, run_discovery_bench
from repro.retrieval.corpus_index import CorpusIndex
from repro.tables.catalog import TableCatalog


@pytest.fixture(scope="module")
def report():
    corpus = build_discovery_corpus(
        CorpusConfig(num_tables=40, num_questions=24, seed=5, scale=1.0)
    )
    return run_discovery_bench(
        corpus=corpus, max_candidates=10, identity_sample=4
    )


@pytest.fixture(scope="module")
def payload(report):
    return report.to_payload()


@pytest.mark.bench_smoke
class TestDiscoveryReport:
    def test_integrity_verdicts_hold(self, report):
        """The two gates the CLI exits non-zero on."""
        assert report.identical
        assert report.identical_index

    def test_recall_covers_every_cutoff_and_is_monotone(self, report):
        values = [report.recall[k] for k in RECALL_KS]
        assert all(0.0 <= value <= 1.0 for value in values)
        assert values == sorted(values)  # recall@k grows with k
        assert report.recall[max(RECALL_KS)] > 0.0

    def test_routing_prunes_the_broadcast(self, report):
        assert report.routed_parses < report.broadcast_parses
        assert report.mean_routed <= report.max_candidates + report.shards * (
            report.fallbacks / report.questions if report.questions else 0
        )

    def test_identity_sample_was_exercised(self, report):
        assert report.identity_checked > 0

    def test_hit_counts_match_rates(self, report):
        for k in RECALL_KS:
            assert report.recall[k] == report.recall_hits[k] / report.questions


@pytest.mark.bench_smoke
class TestDiscoveryPayload:
    def test_schema_field_and_top_level_keys(self, payload):
        assert payload["schema"] == "repro-bench-discovery-v1"
        assert set(payload) == {
            "schema", "shards", "questions", "max_candidates", "recall",
            "recall_hits", "fallbacks", "parses", "identical", "identity",
            "corpus", "index", "timings",
        }

    def test_payload_validates_against_committed_schema(self, payload):
        from pathlib import Path

        from repro.api import schema as wire_schema

        schema_path = (
            Path(__file__).resolve().parents[1]
            / "schemas"
            / "bench_discovery.v1.json"
        )
        wire_schema.validate_payload(
            payload, json.loads(schema_path.read_text(encoding="utf-8"))
        )

    def test_payload_is_json_round_trippable(self, payload):
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload

    def test_index_counters_are_populated(self, payload):
        assert payload["index"]["shards"] == payload["shards"]
        assert payload["index"]["postings_terms"] > 0
        assert payload["index"]["postings_bytes"] > 0

    def test_timings_carry_build_and_routing(self, payload):
        build = payload["timings"]["build"]
        assert build["identical_index"] is True
        assert build["sequential_seconds"] >= 0
        assert build["bulk_seconds"] >= 0
        routing = payload["timings"]["routing"]
        assert routing["p50_ms"] >= 0
        assert routing["p95_ms"] >= routing["p50_ms"]


class TestRoutingTiming:
    def test_only_the_catalog_index_is_alive_while_routing_is_timed(self, monkeypatch):
        """The build pairs' per-table reference index is released before
        routing is timed, so the timing sees one index's heap, not two."""
        built = []
        original_init = CorpusIndex.__init__

        def init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        alive = []
        original_routing = TableCatalog.routing

        def routing(self, question, max_candidates=None):
            if max_candidates is not None:
                alive.append(sum(1 for ref in built if ref() is not None))
            return original_routing(self, question, max_candidates)

        monkeypatch.setattr(CorpusIndex, "__init__", init)
        monkeypatch.setattr(TableCatalog, "routing", routing)
        corpus = build_discovery_corpus(
            CorpusConfig(num_tables=12, num_questions=6, seed=5, scale=1.0)
        )
        report = run_discovery_bench(
            corpus=corpus, max_candidates=10, identity_sample=1, build_repeats=2
        )
        assert report.identical_index
        assert len(built) >= 4  # two pairs: a reference and a catalog index each
        assert alive and set(alive) == {1}
