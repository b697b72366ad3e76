"""The cross-table join bench: set-router recall and the SQL-oracle gate.

Over the multi-table question tier
(:func:`~repro.dataset.join_corpus.build_join_corpus` — fact/dimension
shard pairs with string-typed join keys, questions whose anchor entity
and target column live in *different* shards) this harness reports:

* **join recall@k** — for each gold-labeled question, whether
  :meth:`~repro.retrieval.router.ShardRouter.route_sets` proposes the
  exact gold ``{fact, dimension}`` pair among its top 1/5 shard sets (an empty
  proposal list counts as a miss);
* **compose** — whether the
  :func:`~repro.compose.compose.compose_pair` baseline produces an
  answer on every gold pair, and whether that answer matches the
  generator's own join (computed independently of the executor);
* **oracle** — the answer-identity gate: every composed query is
  re-executed through the translated two-table JOIN SQL
  (:func:`~repro.sql.equivalence.check_composed_equivalence`) and any
  divergence fails the bench — ``repro bench join`` exits 1;
* **timings** — p50/p95 of set-routing and of plan+validate+execute
  composition.

The payload becomes the committed ``BENCH_join.json`` (schema
``repro-bench-join-v1``, validated by ``scripts/validate_wire.py``);
``repro bench join`` and the ``join`` entry of the CI ``suite-smoke`` job
run the same harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..compose import compose_pair
from ..dataset.join_corpus import JoinCorpus, JoinCorpusConfig, build_join_corpus
from ..dcs.sexpr import from_sexpr
from ..sql.equivalence import check_composed_equivalence
from ..tables.catalog import TableCatalog
from .bench import latency_summary


#: The recall cutoffs the join bench reports (pairs, so no @10 tier).
JOIN_RECALL_KS = (1, 5)


@dataclass
class JoinReport:
    """The harness output: recall, composition counts, the oracle verdict."""

    pairs: int
    shards: int
    questions: int
    max_proposals: int
    recall: Dict[int, float] = field(default_factory=dict)
    recall_hits: Dict[int, int] = field(default_factory=dict)
    no_proposals: int = 0
    compose_attempted: int = 0
    composed: int = 0
    answer_matches: int = 0
    oracle_checked: int = 0
    oracle_divergent: int = 0
    #: One human-readable line per divergence/failure, for the CLI.
    failures: List[str] = field(default_factory=list)
    digest_collisions_repaired: int = 0
    routing_seconds: List[float] = field(default_factory=list)
    compose_seconds: List[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The bench gate: every gold pair composes and the oracle agrees.

        A pair that fails to compose cannot be oracle-checked, so
        composition failures fail the gate too — otherwise a regression
        that silently stops composing would *pass* the identity gate.
        """
        return (
            self.composed > 0
            and self.composed == self.compose_attempted
            and self.oracle_divergent == 0
        )

    def to_payload(self) -> Dict[str, object]:
        """The ``BENCH_join.json`` shape (``repro-bench-join-v1``).

        Structural facts (corpus size, recall counts, composition and
        oracle verdicts) are run-stable for a fixed seed and scale;
        everything wall-clock-derived lives under ``timings``, the same
        artifact-diff contract as the other committed bench payloads.
        """
        return {
            "schema": "repro-bench-join-v1",
            "pairs": self.pairs,
            "shards": self.shards,
            "questions": self.questions,
            "max_proposals": self.max_proposals,
            "recall": {
                str(k): round(self.recall.get(k, 0.0), 4)
                for k in JOIN_RECALL_KS
            },
            "recall_hits": {
                str(k): self.recall_hits.get(k, 0) for k in JOIN_RECALL_KS
            },
            "no_proposals": self.no_proposals,
            "compose": {
                "attempted": self.compose_attempted,
                "composed": self.composed,
                "answer_matches": self.answer_matches,
            },
            "oracle": {
                "checked": self.oracle_checked,
                "divergent": self.oracle_divergent,
                "ok": self.ok,
            },
            "corpus": {
                "digest_collisions_repaired": self.digest_collisions_repaired,
            },
            "timings": {
                "set_routing": latency_summary(self.routing_seconds),
                "compose": latency_summary(self.compose_seconds),
            },
        }


def run_join_bench(
    config: Optional[JoinCorpusConfig] = None,
    max_proposals: int = 8,
    corpus: Optional[JoinCorpus] = None,
) -> JoinReport:
    """Run the join harness; see the module docstring for the plan.

    ``max_proposals`` widens the set router past its serving default so
    recall@5 measures the ranking, not the truncation.  ``corpus``
    injects a pre-built corpus (the CI smoke path reuses one across
    assertions).
    """
    if corpus is None:
        corpus = build_join_corpus(config or JoinCorpusConfig())
    catalog = TableCatalog()
    catalog.register_all(corpus.tables, names=corpus.names)
    # Build the index before the timed routing reads, so the first one's
    # latency is routing alone, not the catch-up.
    catalog.corpus_index()
    by_digest = {table.fingerprint.digest: table for table in corpus.tables}

    report = JoinReport(
        pairs=len(corpus.pairs),
        shards=len(corpus.tables),
        questions=len(corpus.questions),
        max_proposals=max_proposals,
        recall_hits={k: 0 for k in JOIN_RECALL_KS},
        digest_collisions_repaired=corpus.digest_collisions_repaired,
    )

    for probe in corpus.questions:
        # -- join recall@k over the proposed shard sets ------------------
        started = time.perf_counter()
        sets = catalog.routing_sets(
            probe.question, max_proposals=max_proposals
        )
        report.routing_seconds.append(time.perf_counter() - started)
        if not sets.proposals:
            report.no_proposals += 1
        position = next(
            (
                rank
                for rank, proposal in enumerate(sets.proposals)
                if frozenset(proposal.digests) == probe.gold_digests
            ),
            None,
        )
        for k in JOIN_RECALL_KS:
            if position is not None and position < k:
                report.recall_hits[k] += 1

        # -- composition over the gold pair ------------------------------
        primary = by_digest[probe.primary_digest]
        secondary = by_digest[probe.secondary_digest]
        report.compose_attempted += 1
        answer = compose_pair(probe.question, primary, secondary)
        if answer is None:
            report.failures.append(
                f"no composition: {probe.question!r} "
                f"({probe.primary_name} + {probe.secondary_name})"
            )
            continue
        report.composed += 1
        report.compose_seconds.append(answer.seconds)
        if sorted(answer.answer) == sorted(probe.answer):
            report.answer_matches += 1
        else:
            report.failures.append(
                f"gold mismatch: {probe.question!r} "
                f"got {list(answer.answer)} want {list(probe.answer)}"
            )

        # -- the composed-vs-SQL answer-identity oracle ------------------
        verdict = check_composed_equivalence(
            from_sexpr(answer.sexpr), primary, secondary
        )
        report.oracle_checked += 1
        if not verdict.equivalent:
            report.oracle_divergent += 1
            report.failures.append(
                f"oracle divergence: {probe.question!r} — {verdict.detail}"
            )

    questions = report.questions
    report.recall = {
        k: (report.recall_hits[k] / questions if questions else 0.0)
        for k in JOIN_RECALL_KS
    }
    return report
