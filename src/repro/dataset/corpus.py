"""Discovery corpora: hundreds-to-thousands of confusable tables.

The table-discovery workload (question → gold table over a large corpus,
the open-table-discovery task) needs a corpus that is *hard* in the ways
real ones are: many tables per domain with **overlapping titles**
("Olympics medal table #1" … "#83"), **near-duplicate schemas** (the
same columns, some renamed to a human paraphrase), **shared vocabulary**
(every same-domain table draws from the same value pools), and
**Zipf-skewed popularity** (a few tables attract most of the questions,
a long tail attracts almost none).  :func:`build_discovery_corpus`
produces exactly that, deterministically from a seed, with every
question gold-labeled by the fingerprint digest of the table it was
generated from — the label ``repro bench discovery`` measures router
recall@k against.

Distinctness is guaranteed, not probable: table *names* are unique by
construction (a per-domain ordinal), and table *content fingerprints*
are deduplicated explicitly — a generated table whose digest collides
with an earlier one has a key cell deterministically perturbed until the
digest is fresh.  Without that loop, near-duplicate schemas over small
shared pools really do collide at corpus scale, and a collision
registers as one shard under two names (or a spurious
``NAME_CONFLICT``), silently shrinking the corpus the bench thinks it
measures.  The regression test lives in ``tests/test_dataset_corpus.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..tables.table import Table
from .domains import DOMAINS, Domain
from .generator import TableGenerator
from .questions import GeneratedQuestion, QuestionGenerator


@dataclass(frozen=True)
class DiscoveryQuestion:
    """One gold-labeled discovery probe: the question names no table."""

    question: str
    gold_name: str
    gold_digest: str
    template: str
    domain: str


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs of :func:`build_discovery_corpus` (all deterministic).

    ``num_tables`` / ``num_questions`` are the full-scale sizes; they are
    multiplied by ``scale`` (default: the ``REPRO_BENCH_SCALE``
    environment knob via :func:`~repro.perf.bench.bench_scale`) and
    floored so a 0.1x CI smoke run still exercises a multi-domain
    corpus.  ``near_duplicate_rate`` is the fraction of tables generated
    under a schema variant (one non-key column renamed to a paraphrase);
    ``zipf_exponent`` shapes question popularity (weight of the
    rank-``r`` table is ``1 / r**zipf_exponent``).
    """

    num_tables: int = 500
    num_questions: int = 300
    seed: int = 2019
    near_duplicate_rate: float = 0.5
    zipf_exponent: float = 1.1
    paraphrase_rate: float = 0.45
    min_tables: int = 8
    min_questions: int = 8
    scale: Optional[float] = None


@dataclass
class DiscoveryCorpus:
    """The generated corpus: registration-ready tables + gold questions."""

    tables: List[Table]
    questions: List[DiscoveryQuestion]
    #: digest → number of questions drawn for that table (the realized
    #: Zipf skew; most tables are 0 here by design).
    popularity: Dict[str, int] = field(default_factory=dict)
    #: How many generated tables needed the digest-dedup perturbation.
    digest_collisions_repaired: int = 0

    @property
    def names(self) -> List[str]:
        return [table.name for table in self.tables]


def _schema_variant(domain: Domain, rng: random.Random) -> Domain:
    """A near-duplicate of ``domain``: one non-key column renamed.

    The rename uses the column's own paraphrase pool (title-cased), so
    variant tables look exactly like the confusable real-world case —
    the same data under a header a human would also have written
    ("Medal Count" for ``Total``).  Key columns are never renamed: the
    question generator anchors on them.
    """
    renameable = [
        spec
        for spec in domain.columns
        if spec.name != domain.key_column and spec.paraphrases
    ]
    if not renameable:
        return domain
    victim = rng.choice(renameable)
    new_name = rng.choice(victim.paraphrases).title()
    if new_name == victim.name or any(
        spec.name == new_name for spec in domain.columns
    ):
        return domain
    columns = tuple(
        replace(spec, name=new_name) if spec.name == victim.name else spec
        for spec in domain.columns
    )
    return replace(domain, columns=columns)


def _raw_rows(table: Table) -> List[List[str]]:
    return [[cell.display() for cell in record.cells] for record in table.records]


def _rebuild(table: Table, domain: Domain, name: str, rows=None) -> Table:
    return Table(
        columns=table.columns,
        rows=rows if rows is not None else _raw_rows(table),
        name=name,
        date_columns=[
            spec.name for spec in domain.columns if spec.kind == "year"
        ],
    )


def _dedupe_digest(
    table: Table, domain: Domain, seen: set, ordinal: int
) -> Tuple[Table, int]:
    """Return a table with a digest not in ``seen`` (the collision bugfix).

    Fingerprints hash columns and cells only — never the name — so two
    near-duplicate tables with different names can still collide.  A
    colliding table gets its first key cell deterministically suffixed
    (attempt counter, so regeneration is reproducible) until the digest
    is fresh.  Returns the table plus how many repairs it took.
    """
    repairs = 0
    while table.fingerprint.digest in seen:
        repairs += 1
        rows = _raw_rows(table)
        key_index = (
            table.columns.index(domain.key_column)
            if domain.key_column in table.columns
            else 0
        )
        rows[0][key_index] = f"{rows[0][key_index]} v{ordinal}.{repairs}"
        table = _rebuild(table, domain, table.name, rows=rows)
    return table, repairs


def build_discovery_corpus(config: CorpusConfig = CorpusConfig()) -> DiscoveryCorpus:
    """Generate the discovery corpus described by ``config``.

    Deterministic per config: the same seed always yields the same
    tables (digests included) and the same questions, which is what lets
    ``BENCH_discovery.json`` regenerations diff meaningfully.
    """
    from ..perf.bench import scaled

    num_tables = scaled(config.num_tables, config.min_tables, config.scale)
    num_questions = scaled(config.num_questions, config.min_questions, config.scale)

    rng = random.Random(config.seed)
    table_gen = TableGenerator(seed=config.seed)
    question_gen = QuestionGenerator(
        seed=config.seed, paraphrase_rate=config.paraphrase_rate
    )

    tables: List[Table] = []
    table_domains: List[Domain] = []
    seen_digests: set = set()
    per_domain_ordinal: Dict[str, int] = {}
    collisions = 0
    for index in range(num_tables):
        base = DOMAINS[index % len(DOMAINS)]
        domain = (
            _schema_variant(base, rng)
            if rng.random() < config.near_duplicate_rate
            else base
        )
        ordinal = per_domain_ordinal.get(base.name, 0) + 1
        per_domain_ordinal[base.name] = ordinal
        # Overlapping titles by design: every same-domain table shares
        # the title tokens, only the ordinal differs — and the ordinal
        # makes the *name* unique, so only content can ever collide.
        name = f"{base.title} #{ordinal}"
        table = _rebuild(table_gen.generate(domain), domain, name)
        table, repairs = _dedupe_digest(table, domain, seen_digests, index)
        collisions += repairs
        seen_digests.add(table.fingerprint.digest)
        tables.append(table)
        table_domains.append(domain)

    # Zipf-skewed popularity: ranks are assigned by a seeded shuffle (so
    # popularity is independent of generation order) and table rank r
    # draws questions with weight 1/r^s.
    rank_order = list(range(len(tables)))
    rng.shuffle(rank_order)
    weights = [0.0] * len(tables)
    for rank, table_index in enumerate(rank_order, start=1):
        weights[table_index] = 1.0 / (rank ** config.zipf_exponent)

    questions: List[DiscoveryQuestion] = []
    popularity: Dict[str, int] = {}
    attempts = 0
    max_attempts = num_questions * 20
    while len(questions) < num_questions and attempts < max_attempts:
        attempts += 1
        table_index = rng.choices(range(len(tables)), weights=weights)[0]
        table = tables[table_index]
        domain = table_domains[table_index]
        generated: List[GeneratedQuestion] = question_gen.generate(
            table, domain, 1
        )
        if not generated:
            continue
        digest = table.fingerprint.digest
        questions.append(
            DiscoveryQuestion(
                question=generated[0].question,
                gold_name=table.name,
                gold_digest=digest,
                template=generated[0].template,
                domain=domain.name,
            )
        )
        popularity[digest] = popularity.get(digest, 0) + 1

    return DiscoveryCorpus(
        tables=tables,
        questions=questions,
        popularity=popularity,
        digest_collisions_repaired=collisions,
    )
