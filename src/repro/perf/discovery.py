"""The table-discovery bench: router recall and build speed at corpus scale.

The retrieval substrate was built for thousand-shard corpora but every
committed bench ran on 2–4 tables; this harness measures it at the scale
it exists for.  Over a synthetic discovery corpus
(:func:`~repro.dataset.corpus.build_discovery_corpus` — overlapping
titles, near-duplicate schemas, shared vocabulary, Zipf-skewed question
popularity) it reports:

* **build** — wall-clock of the per-table reference build (one
  :meth:`CorpusIndex.add` per table) vs the catalog's own path
  (:meth:`TableCatalog.register_all`, then the first
  :meth:`TableCatalog.corpus_index` read, which extracts every posting
  in one memoized batch and merges it under one index lock
  acquisition), plus the speedup and a structural-equality check of the
  two resulting indexes.  Both arms are timed best-of-``build_repeats``
  alternating runs — the ``timeit`` convention: the minimum is the
  measurement, everything above it is interpreter/allocator noise;
* **recall@k** — for each gold-labeled question, whether the router's
  uncapped ranking places the gold shard in the top 1/5/10 (a fallback
  decision counts as a miss: the router learned nothing);
* **routing** — p50/p95 latency of the capped
  (``max_candidates=top``) routing hot path, and the routed parse count
  against the broadcast shard count (the work pruning saves);
* **identity** — on a bounded question sample, whether the pruned
  ``ask_any`` answer is bit-identical to the broadcast answer whenever
  the broadcast's top shard survived the cap (the no-lost-answers
  contract under top-N pruning; the unconditional property is in
  ``tests/test_retrieval.py``, this is its corpus-scale spot check).

The payload becomes the committed ``BENCH_discovery.json`` (schema
``repro-bench-discovery-v1``, validated by ``scripts/validate_wire.py``);
``repro bench-discovery`` and the ``discovery`` entry of the CI
``suite-smoke`` job run the same harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataset.corpus import CorpusConfig, DiscoveryCorpus, build_discovery_corpus
from ..retrieval.corpus_index import CorpusIndex
from ..tables.catalog import TableCatalog
from .bench import latency_summary, quantize_seconds

#: The recall cutoffs every run reports.
RECALL_KS = (1, 5, 10)


@dataclass
class DiscoveryReport:
    """The harness output: corpus facts, recall, timings, identity."""

    shards: int
    questions: int
    max_candidates: int
    recall: Dict[int, float] = field(default_factory=dict)
    recall_hits: Dict[int, int] = field(default_factory=dict)
    fallbacks: int = 0
    routed_parses: int = 0
    broadcast_parses: int = 0
    identical: bool = True
    identity_checked: int = 0
    identity_skipped: int = 0
    digest_collisions_repaired: int = 0
    index_stats: Dict[str, int] = field(default_factory=dict)
    build_sequential_seconds: float = 0.0
    build_bulk_seconds: float = 0.0
    build_repeats: int = 1
    identical_index: bool = True
    routing_seconds: List[float] = field(default_factory=list)

    @property
    def build_speedup(self) -> float:
        if self.build_bulk_seconds <= 0:
            return 0.0
        return self.build_sequential_seconds / self.build_bulk_seconds

    @property
    def mean_routed(self) -> float:
        if not self.questions:
            return 0.0
        return self.routed_parses / self.questions

    def rows(self) -> List[Tuple[str, str]]:
        """CLI summary rows: metric name, value."""
        out: List[Tuple[str, str]] = [
            ("shards", str(self.shards)),
            ("questions", str(self.questions)),
        ]
        for k in RECALL_KS:
            out.append((f"recall@{k}", f"{self.recall.get(k, 0.0):.3f}"))
        out.extend(
            [
                ("fallbacks", str(self.fallbacks)),
                (
                    "parses/question",
                    f"{self.mean_routed:.1f} routed vs {self.shards} broadcast",
                ),
                (
                    "build",
                    f"sequential {self.build_sequential_seconds:.3f}s, "
                    f"bulk {self.build_bulk_seconds:.3f}s "
                    f"({self.build_speedup:.2f}x)",
                ),
            ]
        )
        latencies = latency_summary(self.routing_seconds)
        out.append(
            (
                "routing latency",
                f"p50 {latencies['p50_ms']}ms, p95 {latencies['p95_ms']}ms",
            )
        )
        out.append(
            (
                "identity",
                f"{'ok' if self.identical else 'DIVERGED'} "
                f"({self.identity_checked} checked, "
                f"{self.identity_skipped} gold-unreachable skipped)",
            )
        )
        return out

    def to_payload(self) -> Dict[str, object]:
        """The ``BENCH_discovery.json`` shape (``repro-bench-discovery-v1``).

        Structural facts (corpus size, recall counts, parse counts, the
        identity verdicts) are run-stable for a fixed seed and scale;
        everything wall-clock-derived lives under ``timings`` at the
        usual quantized resolution, the same artifact-diff contract as
        the other committed bench payloads.
        """
        latencies = latency_summary(self.routing_seconds)
        return {
            "schema": "repro-bench-discovery-v1",
            "shards": self.shards,
            "questions": self.questions,
            "max_candidates": self.max_candidates,
            "recall": {
                str(k): round(self.recall.get(k, 0.0), 4) for k in RECALL_KS
            },
            "recall_hits": {
                str(k): self.recall_hits.get(k, 0) for k in RECALL_KS
            },
            "fallbacks": self.fallbacks,
            "parses": {
                "routed_total": self.routed_parses,
                "routed_per_question": round(self.mean_routed, 2),
                "broadcast_per_question": self.shards,
            },
            "identical": self.identical,
            "identity": {
                "checked": self.identity_checked,
                "skipped_gold_unreachable": self.identity_skipped,
            },
            "corpus": {
                "digest_collisions_repaired": self.digest_collisions_repaired,
            },
            "index": dict(self.index_stats),
            "timings": {
                "build": {
                    "sequential_seconds": quantize_seconds(
                        self.build_sequential_seconds
                    ),
                    "bulk_seconds": quantize_seconds(self.build_bulk_seconds),
                    "speedup": round(self.build_speedup, 2),
                    # Extraction runs in process; the field is kept
                    # for the repro-bench-discovery-v1 schema.
                    "workers": 1,
                    "repeats": self.build_repeats,
                    "identical_index": self.identical_index,
                },
                "routing": {
                    "p50_ms": latencies["p50_ms"],
                    "p95_ms": latencies["p95_ms"],
                },
            },
        }


def _answer_signature(answer) -> List[Tuple]:
    """The bit-identity view of one :class:`CatalogAnswer`'s ranking."""
    out = []
    for ref, response in answer.ranked:
        top = response.top
        out.append(
            (
                ref.digest,
                top.candidate.sexpr if top is not None else None,
                top.candidate.score if top is not None else None,
                top.answer if top is not None else None,
            )
        )
    return out


def run_discovery_bench(
    config: Optional[CorpusConfig] = None,
    max_candidates: int = 10,
    identity_sample: int = 8,
    corpus: Optional[DiscoveryCorpus] = None,
    build_repeats: int = 3,
) -> DiscoveryReport:
    """Run the discovery harness; see the module docstring for the plan.

    ``identity_sample`` bounds the pruned-vs-broadcast answer check (a
    broadcast parses *every* shard, which at 500+ shards is the one
    genuinely expensive step); the first N questions whose gold shard is
    retrievable are checked.  ``corpus`` injects a pre-built corpus
    (the CI smoke path reuses one across assertions).  ``build_repeats``
    is the best-of repeat count for the build-timing arms: each arm runs
    that many times, alternating so neither is always the cold first
    run, and the minimum is the measurement.
    """
    if corpus is None:
        corpus = build_discovery_corpus(config or CorpusConfig())
    tables = corpus.tables
    names = corpus.names

    # Force every fingerprint before timing either arm: fingerprinting
    # is generation cost, cached on the Table, and must not bias
    # whichever arm runs first.
    for table in tables:
        table.fingerprint

    sequential_seconds = float("inf")
    bulk_seconds = float("inf")
    for _ in range(max(1, build_repeats)):
        # Each arm times the build alone: constructing the empty index or
        # catalog, and freeing the previous repeat's, happen untimed.
        reference = CorpusIndex()
        started = time.perf_counter()
        for table in tables:
            reference.add(table)
        sequential_seconds = min(
            sequential_seconds, time.perf_counter() - started
        )

        catalog = TableCatalog()
        started = time.perf_counter()
        catalog.register_all(tables, names=names)
        catalog.corpus_index()
        bulk_seconds = min(bulk_seconds, time.perf_counter() - started)

    identical_index = (
        catalog.corpus_index().snapshot() == reference.snapshot()
    )

    # -- recall@k over the uncapped ranking ------------------------------
    max_k = max(RECALL_KS)
    hits = {k: 0 for k in RECALL_KS}
    fallbacks = 0
    routed_parses = 0
    routing_seconds: List[float] = []
    gold_in_cap: List[bool] = []
    for probe in corpus.questions:
        decision = catalog.routing(probe.question)
        if decision.fallback:
            fallbacks += 1
            gold_in_cap.append(False)
        else:
            position = next(
                (
                    rank
                    for rank, ref in enumerate(decision.candidates[:max_k])
                    if ref.digest == probe.gold_digest
                ),
                None,
            )
            for k in RECALL_KS:
                if position is not None and position < k:
                    hits[k] += 1
            gold_in_cap.append(
                position is not None and position < max_candidates
            )
        # The capped hot path: what serving would parse, and how fast
        # the routing decision itself is.
        started = time.perf_counter()
        capped = catalog.routing(probe.question, max_candidates=max_candidates)
        routing_seconds.append(time.perf_counter() - started)
        routed_parses += capped.num_candidates

    # -- pruned-vs-broadcast identity on a bounded sample ----------------
    identical = True
    checked = 0
    skipped = 0
    for probe, retrievable in zip(corpus.questions, gold_in_cap):
        if checked >= identity_sample:
            break
        if not retrievable:
            skipped += 1
            continue
        pruned = catalog.ask_any(
            probe.question, max_candidates=max_candidates
        )
        broadcast = catalog.ask_any(probe.question, prune=False)
        checked += 1
        # The contract is conditional: the top answer is bit-identical
        # whenever the broadcast's top shard survived the cap (removing
        # shards never reorders the survivors).
        top_ref = broadcast.ranked[0][0] if broadcast.ranked else None
        if top_ref is not None and pruned.routing.is_candidate(top_ref.digest):
            if _answer_signature(pruned)[:1] != _answer_signature(broadcast)[:1]:
                identical = False

    questions = len(corpus.questions)
    return DiscoveryReport(
        shards=len(tables),
        questions=questions,
        max_candidates=max_candidates,
        recall={
            k: (hits[k] / questions if questions else 0.0) for k in RECALL_KS
        },
        recall_hits=hits,
        fallbacks=fallbacks,
        routed_parses=routed_parses,
        broadcast_parses=len(tables) * questions,
        identical=identical,
        identity_checked=checked,
        identity_skipped=skipped,
        digest_collisions_repaired=corpus.digest_collisions_repaired,
        index_stats={
            key: int(value) for key, value in catalog.stats()["retrieval"].items()
        },
        build_sequential_seconds=sequential_seconds,
        build_bulk_seconds=bulk_seconds,
        build_repeats=max(1, build_repeats),
        identical_index=identical_index,
        routing_seconds=routing_seconds,
    )
