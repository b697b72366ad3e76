"""Corpus-level retrieval: prune shards *before* the parser runs.

The serving path used to be O(shards) per corpus-wide question — every
registered table parsed every question, and evicted shards were
rehydrated from disk just to be ranked last.  This package is the
standard retrieve-then-parse refactor (compare the table-to-passage
retrieval stage of open table discovery systems): a cheap lexical
:class:`~repro.retrieval.corpus_index.CorpusIndex` narrows the corpus,
and the expensive semantic parser runs only on the survivors.

Two pieces:

* :class:`~repro.retrieval.corpus_index.CorpusIndex` — content-addressed
  inverted maps from normalized entity phrases, entity/header tokens and
  quantized numbers to shard fingerprints.  Term extraction reuses the
  parser lexicon's own normalization (:mod:`repro.parser.lexicon`), so a
  shard the lexicon could anchor an entity or column match on is
  *guaranteed* to be retrieved (the recall-superset contract, locked in
  by ``tests/test_retrieval.py``).
* :class:`~repro.retrieval.router.ShardRouter` — deterministic scoring
  and pruning with a guaranteed fallback: when retrieval yields no
  candidate shards the router degrades to the full broadcast, so answers
  are never lost to pruning.

:class:`~repro.tables.catalog.TableCatalog` owns one index+router pair
and catches the index up on the first corpus-wide read after a
registration; ``repro route`` inspects routing decisions from the
command line.
"""

from .corpus_index import (
    CorpusIndex,
    QuestionTerms,
    ShardPosting,
    extract_question_terms,
    extract_shard_posting,
    extract_shard_postings,
    question_terms,
)
from .router import (
    RoutingDecision,
    SetRoutingDecision,
    ShardRouter,
    ShardScore,
    ShardSetProposal,
    ShardSetRouter,
)

__all__ = [
    "CorpusIndex",
    "QuestionTerms",
    "ShardPosting",
    "extract_question_terms",
    "extract_shard_posting",
    "extract_shard_postings",
    "question_terms",
    "RoutingDecision",
    "SetRoutingDecision",
    "ShardRouter",
    "ShardScore",
    "ShardSetProposal",
    "ShardSetRouter",
]
