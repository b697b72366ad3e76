"""The multi-table question tier: gold-labeled shard pairs that join.

The discovery corpus (:mod:`repro.dataset.corpus`) measures *single*-shard
retrieval — every question is answerable from one gold table.  This tier
generates the complement: **fact/dimension table pairs** sharing a
string-typed join key, plus questions whose answer lives in the fact table
but whose anchor entity lives only in the dimension table — no single
shard can answer them.  Each question is gold-labeled with *both* shard
digests, so ``repro bench join`` can score the set proposals of
:meth:`~repro.retrieval.router.ShardRouter.route_sets` as join recall@k
and gate every composed answer against the two-table SQL oracle.

Join keys are deliberately same-typed strings on both sides: sqlite's
static column typing never equates ``TEXT`` with ``REAL`` in a JOIN, so a
cross-type key would make the oracle disagree with ``values_equal`` by
construction.  The cross-type re-parse bridges (``"2004"`` ↔ ``2004``)
are executor semantics, covered by unit tests, not by this bench.

Confusability is intentional, mirroring the discovery corpus: all fact
tables of one family share the target header, sibling pairs share the
group-value pool, and key entities repeat across pairs — so proposing the
gold *pair* requires actual set-cover reasoning, not string lookup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..tables.table import Table
from . import vocab


#: Group-value pools, disjoint from every key pool so an anchor entity
#: never collides with a join-key cell of an unrelated family.
CONTINENTS = [
    "Oceania", "Europe", "Asia", "Americas", "Africa",
    "Scandinavia", "Caribbean", "Balkans",
]

REGIONS = [
    "Northern Province", "Southern Province", "Eastern Province",
    "Western Province", "Central Valley", "Coastal Strip",
    "Highland District", "Lowland District",
]


@dataclass(frozen=True)
class JoinFamily:
    """One fact/dimension template a pair is stamped from."""

    slug: str
    key_column: str
    key_pool: Tuple[str, ...]
    target_column: str
    extra_column: str
    group_column: str
    group_pool: Tuple[str, ...]
    #: A constant-valued fact column whose value is unique per pair within
    #: the family — the retrieval signal that identifies the gold *fact*
    #: shard (the target header alone is shared by every sibling).
    context_column: str
    context_pool: Tuple[str, ...]
    fact_name: str
    dim_name: str


#: The four families; pair ``i`` uses ``FAMILIES[i % 4]``.
FAMILIES: Tuple[JoinFamily, ...] = (
    JoinFamily(
        slug="medals",
        key_column="Nation",
        key_pool=tuple(vocab.NATIONS),
        target_column="Total",
        extra_column="Golds",
        group_column="Continent",
        group_pool=tuple(CONTINENTS),
        context_column="Competition",
        context_pool=tuple(vocab.COMPETITIONS[:6]),
        fact_name="medals",
        dim_name="regions",
    ),
    JoinFamily(
        slug="census",
        key_column="City",
        key_pool=tuple(vocab.CITIES),
        target_column="Population",
        extra_column="Elevation",
        group_column="Region",
        group_pool=tuple(REGIONS),
        context_column="Census",
        context_pool=tuple(vocab.FESTIVALS[:6]),
        fact_name="census",
        dim_name="districts",
    ),
    JoinFamily(
        slug="scoring",
        key_column="Player",
        key_pool=tuple(vocab.PEOPLE),
        target_column="Goals",
        extra_column="Assists",
        group_column="Club",
        group_pool=tuple(vocab.CLUBS[:8]),
        context_column="Tournament",
        context_pool=tuple(vocab.TOURNAMENTS[:6]),
        fact_name="scoring",
        dim_name="rosters",
    ),
    JoinFamily(
        slug="fleet",
        key_column="Ship",
        key_pool=tuple(vocab.SHIP_NAMES),
        target_column="Tonnage",
        extra_column="Crew",
        group_column="Lake",
        group_pool=tuple(vocab.LAKES),
        context_column="Registry",
        context_pool=tuple(vocab.LEAGUES[:6]),
        fact_name="fleet",
        dim_name="moorings",
    ),
)

#: Question phrasings; every one contains the (lowercased) target header
#: and the anchor group value — the two lexical anchors the
#: :class:`~repro.compose.planner.JoinPlanner` needs.
QUESTION_TEMPLATES = (
    "what is the {target} for entries in {anchor} at the {context}",
    "which {target} values from the {context} belong to {anchor}",
    "list the {target} of the {context} rows in {anchor}",
)


@dataclass(frozen=True)
class JoinQuestion:
    """A multi-table question gold-labeled with its shard *pair*."""

    question: str
    #: Gold fact shard — holds the target column the answer comes from.
    primary_digest: str
    primary_name: str
    #: Gold dimension shard — holds the anchor entity.
    secondary_digest: str
    secondary_name: str
    #: Shared join-key column name (same header on both sides).
    join_column: str
    target_column: str
    anchor_value: str
    family: str
    #: Expected answer values (fact-row order), computed by the generator
    #: from its own join — independent of the executor under test.
    answer: Tuple[str, ...] = ()

    @property
    def gold_digests(self) -> frozenset:
        return frozenset((self.primary_digest, self.secondary_digest))


@dataclass(frozen=True)
class JoinCorpusConfig:
    """Knobs for the join corpus; scaled like the discovery corpus."""

    num_pairs: int = 12
    num_questions: int = 36
    rows_per_table: int = 10
    groups_per_pair: int = 3
    seed: int = 2019
    #: Scale floors: below these the bench stops being a bench.
    min_pairs: int = 4
    min_questions: int = 8
    #: Workload multiplier; ``None`` = read ``REPRO_BENCH_SCALE``.
    scale: Optional[float] = None


@dataclass
class JoinCorpus:
    """The generated tier: interleaved tables, names, gold questions."""

    tables: List[Table] = field(default_factory=list)
    names: List[str] = field(default_factory=list)
    pairs: List[Tuple[str, str]] = field(default_factory=list)
    questions: List[JoinQuestion] = field(default_factory=list)
    digest_collisions_repaired: int = 0


def _build_pair(
    family: JoinFamily, ordinal: int, rng: random.Random, config: JoinCorpusConfig
) -> Tuple[Table, Table, Dict[str, List[Tuple[str, str]]], str]:
    """One fact/dimension pair, its group → [(key, value)] map, context."""
    rows = min(config.rows_per_table, len(family.key_pool))
    keys = rng.sample(list(family.key_pool), rows)
    # Sibling pairs of one family take *overlapping slices* of the group
    # pool: each shares one boundary group with the next sibling, so a
    # fraction of anchors is genuinely ambiguous across pairs (the set
    # router must rank, not look up) while most identify their pair.
    sibling = ordinal // len(FAMILIES)
    pool = list(family.group_pool)
    span = min(config.groups_per_pair, len(pool))
    offset = (sibling * max(1, span - 1)) % len(pool)
    groups = [pool[(offset + j) % len(pool)] for j in range(span)]
    context = family.context_pool[sibling % len(family.context_pool)]

    fact_rows: List[List[str]] = []
    dim_rows: List[List[str]] = []
    membership: Dict[str, List[Tuple[str, str]]] = {group: [] for group in groups}
    for position, key in enumerate(keys):
        target = str(rng.randrange(5, 995))
        extra = str(rng.randrange(0, 60))
        group = groups[position % len(groups)]
        fact_rows.append([key, target, extra, context])
        dim_rows.append([key, group])
        membership[group].append((key, target))

    fact = Table(
        columns=[
            family.key_column,
            family.target_column,
            family.extra_column,
            family.context_column,
        ],
        rows=fact_rows,
        name=f"{family.fact_name}_{ordinal:03d}",
    )
    dim = Table(
        columns=[family.key_column, family.group_column],
        rows=dim_rows,
        name=f"{family.dim_name}_{ordinal:03d}",
    )
    return fact, dim, membership, context


def _perturb(table: Table, rng: random.Random) -> Table:
    """Rebuild with one numeric cell nudged — the digest-collision repair."""
    rows = [list(row) for row in table.rows]
    row = rng.randrange(len(rows))
    try:
        rows[row][1] = str(int(rows[row][1]) + rng.randrange(1, 7))
    except ValueError:
        rows[row][-1] = rows[row][-1] + " II"
    return Table(columns=list(table.columns), rows=rows, name=table.name)


def build_join_corpus(config: Optional[JoinCorpusConfig] = None) -> JoinCorpus:
    """Generate the multi-table tier; deterministic in ``config.seed``."""
    from ..perf.bench import scaled

    config = config or JoinCorpusConfig()
    num_pairs = scaled(config.num_pairs, config.min_pairs, config.scale)
    num_questions = scaled(config.num_questions, config.min_questions, config.scale)
    rng = random.Random(config.seed)

    corpus = JoinCorpus()
    seen_digests: set = set()
    memberships: List[Dict[str, List[Tuple[str, str]]]] = []
    families: List[JoinFamily] = []
    contexts: List[str] = []
    for ordinal in range(num_pairs):
        family = FAMILIES[ordinal % len(FAMILIES)]
        fact, dim, membership, context = _build_pair(family, ordinal, rng, config)
        for table in (fact, dim):
            while table.fingerprint.digest in seen_digests:
                corpus.digest_collisions_repaired += 1
                table = _perturb(table, rng)
            seen_digests.add(table.fingerprint.digest)
            corpus.tables.append(table)
            corpus.names.append(table.name)
        fact, dim = corpus.tables[-2], corpus.tables[-1]
        corpus.pairs.append((fact.fingerprint.digest, dim.fingerprint.digest))
        memberships.append(membership)
        families.append(family)
        contexts.append(context)

    for index in range(num_questions):
        pair_index = index % num_pairs
        family = families[pair_index]
        membership = memberships[pair_index]
        fact_digest, dim_digest = corpus.pairs[pair_index]
        fact = corpus.tables[2 * pair_index]
        dim = corpus.tables[2 * pair_index + 1]
        populated = [g for g in sorted(membership) if membership[g]]
        anchor = rng.choice(populated)
        template = QUESTION_TEMPLATES[index % len(QUESTION_TEMPLATES)]
        question = template.format(
            target=family.target_column.lower(),
            anchor=anchor,
            context=contexts[pair_index],
        )
        answer = tuple(value for _, value in membership[anchor])
        corpus.questions.append(
            JoinQuestion(
                question=question,
                primary_digest=fact_digest,
                primary_name=fact.name,
                secondary_digest=dim_digest,
                secondary_name=dim.name,
                join_column=family.key_column,
                target_column=family.target_column,
                anchor_value=anchor,
                family=family.slug,
                answer=answer,
            )
        )
    return corpus
