"""The content-addressed corpus index: normalized terms → shard digests.

One :class:`ShardPosting` summarises everything retrieval may match a
shard through; the :class:`CorpusIndex` holds the postings of a whole
catalog as inverted maps so a question is scored against *terms*, never
against shards — O(question terms), not O(shards).

The recall-superset contract
----------------------------
Term extraction is built from the exact normalization functions of
:mod:`repro.parser.lexicon` (:func:`~repro.parser.lexicon.normalize_value_key`,
:func:`~repro.parser.lexicon.column_matchable_tokens`,
:func:`~repro.parser.lexicon.question_phrases`,
:func:`~repro.parser.lexicon.tokenize`), which makes the following hold
by construction, not by tuning:

* a shard where the lexicon could produce an :class:`EntityMatch` has
  the matched phrase in its posting's ``entity_keys`` — and the question
  probes every span phrase, so the shard scores a hit;
* a shard where the lexicon could produce a :class:`ColumnMatch` shares
  a header token with the question (column matching requires at least
  one common token), so the shard scores a hit;
* number mentions are probed through the same
  :func:`~repro.tables.values.parse_number` the lexicon uses and matched
  against quantized numeric cell values (:class:`NumberValue` equality,
  the 1e-9 grid), so the string ``"33.0"`` in a question reaches the
  cell ``33``.

What pruning can drop, therefore, is only derivations with *no lexical
anchor in the question*: floating candidates (whole-column projections,
most-common-value, comparisons against columns never mentioned) that the
grammar emits for every table regardless of the question.  Those score
identically poorly everywhere, and the router's broadcast fallback
(:mod:`repro.retrieval.router`) covers the corpora where they are all
there is.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..parser.lexicon import (
    STOP_WORDS,
    column_matchable_tokens,
    normalize_value_key,
    question_phrases,
    tokenize,
)
from ..tables.table import Table
from ..tables.values import DateValue, NumberValue, parse_number

#: Channel weights of the deterministic retrieval score.  A full entity
#: phrase is the strongest signal (it is what entity linking anchors
#: on); numbers and header tokens rank next; a lone entity *token*
#: (partial phrase overlap) is the weakest.  Values are exact binary
#: floats so summation order can never perturb a score.
ENTITY_PHRASE_WEIGHT = 4.0
NUMBER_WEIGHT = 2.0
HEADER_TOKEN_WEIGHT = 1.0
ENTITY_TOKEN_WEIGHT = 0.5


@dataclass(frozen=True)
class ShardPosting:
    """Everything retrieval may match one shard (table content) through.

    Content-addressed: a posting depends only on the table's headers and
    cells, never on its name or registration state, so equal-content
    shards share one posting and a posting outlives eviction (the whole
    point — routing decisions must not require the table in memory).
    """

    digest: str
    entity_keys: FrozenSet[str]
    entity_tokens: FrozenSet[str]
    header_tokens: FrozenSet[str]
    numbers: FrozenSet[NumberValue]

    @property
    def num_terms(self) -> int:
        return (
            len(self.entity_keys)
            + len(self.entity_tokens)
            + len(self.header_tokens)
            + len(self.numbers)
        )

    @cached_property
    def nbytes(self) -> int:
        """Approximate retained size of this posting's term payload.

        Interpreter-level ``sys.getsizeof`` over the digest, every term
        string and every quantized number — the per-shard unit behind
        the index's ``postings_bytes`` counter.  An approximation (set
        and dict overhead of the inverted maps is excluded), but a
        *consistent* one: maintained incrementally on add/update/discard,
        it answers "how much index memory does this corpus cost" without
        an O(shards) walk.  Computed once per posting (postings are
        immutable); equality and hashing still see the fields only.
        """
        total = sys.getsizeof(self.digest)
        for terms in (self.entity_keys, self.entity_tokens, self.header_tokens):
            total += sum(sys.getsizeof(term) for term in terms)
        total += sum(sys.getsizeof(number) for number in self.numbers)
        return total


@dataclass(frozen=True)
class QuestionTerms:
    """The retrieval-probe view of one question (mirrors the lexicon)."""

    question: str
    tokens: Tuple[str, ...]
    phrases: FrozenSet[str]
    numbers: FrozenSet[NumberValue]


@dataclass(frozen=True)
class RetrievalHit:
    """One shard's accumulated score with the terms that produced it."""

    digest: str
    score: float
    matched: Tuple[str, ...]


def extract_shard_posting(table: Table) -> ShardPosting:
    """Build the :class:`ShardPosting` of one table's content.

    Entity keys are the lexicon's value-index keys (every distinct cell
    value, display-normalized); entity tokens are their individual
    tokens; header tokens come from
    :func:`~repro.parser.lexicon.column_matchable_tokens`; numbers are
    every numeric cell plus every date cell's year (a bare-year question
    mention parses to a number, and ``values_equal`` bridges it to the
    date — retrieval must bridge it too).
    """
    entity_keys: Set[str] = set()
    entity_tokens: Set[str] = set()
    header_tokens: Set[str] = set()
    numbers: Set[NumberValue] = set()
    for column in table.columns:
        header_tokens |= column_matchable_tokens(column)
        for cell in table.column_cells(column):
            value = cell.value
            key = normalize_value_key(value)
            if key:
                entity_keys.add(key)
                entity_tokens.update(key.split(" "))
            if value.is_numeric:
                numbers.add(NumberValue(value.as_number()))
            elif isinstance(value, DateValue) and value.year is not None:
                numbers.add(NumberValue(value.year))
    return ShardPosting(
        digest=table.fingerprint.digest,
        entity_keys=frozenset(entity_keys),
        entity_tokens=frozenset(entity_tokens),
        header_tokens=frozenset(header_tokens),
        numbers=frozenset(numbers),
    )


def extract_shard_postings(tables: Sequence[Table]) -> List[ShardPosting]:
    """Extract many tables' postings at once, index-aligned.

    Per-table extraction re-normalizes every cell display string from
    scratch; a corpus of near-duplicate tables drawn from shared
    vocabulary pools repeats the same strings thousands of times.  This
    batch path memoizes :func:`~repro.parser.lexicon.normalize_value_key`
    by display form and :func:`~repro.parser.lexicon.column_matchable_tokens`
    by header — exact keys for both functions, so the output is
    bit-identical to mapping :func:`extract_shard_posting` over the batch
    (property-tested in ``tests/test_retrieval.py``).  The memos live for
    one batch only, so the per-table path stays allocation-free.  It runs
    in process: the memo already makes it faster than the per-table loop,
    and forking workers for it cost more than it saved.
    """
    key_memo: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    header_memo: Dict[str, FrozenSet[str]] = {}
    postings: List[ShardPosting] = []
    for table in tables:
        entity_keys: Set[str] = set()
        entity_tokens: Set[str] = set()
        header_tokens: Set[str] = set()
        numbers: Set[NumberValue] = set()
        for column in table.columns:
            tokens = header_memo.get(column)
            if tokens is None:
                tokens = frozenset(column_matchable_tokens(column))
                header_memo[column] = tokens
            header_tokens |= tokens
            for cell in table.column_cells(column):
                value = cell.value
                display = value.display()
                cached = key_memo.get(display)
                if cached is None:
                    key = normalize_value_key(value)
                    cached = (key, tuple(key.split(" ")) if key else ())
                    key_memo[display] = cached
                key, key_tokens = cached
                if key:
                    entity_keys.add(key)
                    entity_tokens.update(key_tokens)
                if value.is_numeric:
                    numbers.add(NumberValue(value.as_number()))
                elif isinstance(value, DateValue) and value.year is not None:
                    numbers.add(NumberValue(value.year))
        postings.append(
            ShardPosting(
                digest=table.fingerprint.digest,
                entity_keys=frozenset(entity_keys),
                entity_tokens=frozenset(entity_tokens),
                header_tokens=frozenset(header_tokens),
                numbers=frozenset(numbers),
            )
        )
    return postings


def extract_question_terms(question: str, max_span_length: int = 5) -> QuestionTerms:
    """Tokenize a question into the terms the index is probed with.

    Phrases cover every span the lexicon's entity matcher could anchor
    (lone stop-word tokens excluded, exactly as the lexicon excludes
    them); numbers are parsed with the lexicon's own
    :func:`~repro.tables.values.parse_number`.
    """
    tokens = tuple(tokenize(question))
    phrases = {
        phrase
        for phrase in question_phrases(tokens, max_span_length=max_span_length)
        if " " in phrase or phrase not in STOP_WORDS
    }
    numbers = {
        NumberValue(number)
        for number in (parse_number(token) for token in tokens)
        if number is not None
    }
    return QuestionTerms(
        question=question,
        tokens=tokens,
        phrases=frozenset(phrases),
        numbers=frozenset(numbers),
    )


@lru_cache(maxsize=4096)
def question_terms(question: str, max_span_length: int = 5) -> QuestionTerms:
    """Memoized :func:`extract_question_terms` — the routing hot path.

    Span enumeration plus number parsing is pure per-``(question,
    max_span_length)`` work, and serving workloads re-route the same
    question across retries, sessions and bench repeats.  The result is a
    frozen dataclass of frozensets, so sharing one instance across
    threads is safe.
    """
    return extract_question_terms(question, max_span_length=max_span_length)


def _link(mapping: Dict, keys: Iterable, digest: str) -> None:
    """Add ``digest`` under every key, allocating a set only for a new key."""
    for key in keys:
        digests = mapping.get(key)
        if digests is None:
            mapping[key] = {digest}
        else:
            digests.add(digest)


class CorpusIndex:
    """Inverted maps from normalized terms to shard fingerprint digests.

    Thread-safe and content-addressed: adding the same content twice is
    a no-op, postings are kept per digest so :meth:`discard` can remove a
    shard exactly.  Postings survive shard eviction by design — scoring a
    question never touches a table, which is what lets a catalog route
    around cold shards without rehydrating them.
    """

    def __init__(self, max_span_length: int = 5) -> None:
        self.max_span_length = max_span_length
        self._postings: Dict[str, ShardPosting] = {}
        self._entities: Dict[str, Set[str]] = {}
        self._entity_tokens: Dict[str, Set[str]] = {}
        self._headers: Dict[str, Set[str]] = {}
        self._numbers: Dict[NumberValue, Set[str]] = {}
        self._lock = threading.RLock()
        # Scale counters, maintained incrementally so stats() stays O(1)
        # in the corpus size: total term references across live postings
        # and their approximate retained bytes (ShardPosting.nbytes).
        self._postings_terms = 0
        self._postings_bytes = 0

    # -- maintenance -----------------------------------------------------------
    def add(self, table: Table) -> ShardPosting:
        """Index ``table``'s content (idempotent per fingerprint)."""
        digest = table.fingerprint.digest
        with self._lock:
            existing = self._postings.get(digest)
            if existing is not None:
                return existing
        # Extraction is pure and lock-free; only publication locks.
        return self.add_postings([extract_shard_posting(table)])[0]

    def add_postings(
        self, postings: Iterable[ShardPosting]
    ) -> List[ShardPosting]:
        """Publish many pre-extracted postings under one lock acquisition.

        The merge half of a catalog's catch-up: the postings of every
        table registered since the last corpus-wide read are extracted
        in one batch (:func:`extract_shard_postings`, outside this lock)
        and land here — one acquisition instead of one per table.
        Idempotent per digest exactly like :meth:`add`; returns the
        published postings, index-aligned.
        """
        with self._lock:
            return [self._add_posting_locked(posting) for posting in postings]

    def _add_posting_locked(self, posting: ShardPosting) -> ShardPosting:
        digest = posting.digest
        existing = self._postings.get(digest)
        if existing is not None:
            return existing
        self._postings[digest] = posting
        self._postings_terms += posting.num_terms
        self._postings_bytes += posting.nbytes
        for mapping, keys in (
            (self._entities, posting.entity_keys),
            (self._entity_tokens, posting.entity_tokens),
            (self._headers, posting.header_tokens),
            (self._numbers, posting.numbers),
        ):
            _link(mapping, keys, digest)
        return posting

    def update(self, old_digest: str, new_table: Table) -> ShardPosting:
        """Replace one shard's posting with ``new_table``'s, by key delta.

        Only the inverted-map entries whose keys actually changed are
        touched: removed keys drop the old digest (pruning the key when
        its digest set empties, exactly as :meth:`discard` does), added
        keys insert the new digest, and keys present in both versions are
        re-pointed in place.  The result is byte-identical to
        ``discard(old_digest)`` + ``add(new_table)`` — locked in by the
        hypothesis interleaving property in ``tests/test_churn.py`` —
        but touches O(changed keys) instead of O(all keys).
        """
        new_posting = extract_shard_posting(new_table)
        with self._lock:
            old_posting = self._postings.get(old_digest)
            if old_posting is None:
                # Nothing to migrate (never indexed, or already retired):
                # degrade to a plain add.
                return self._add_posting_locked(new_posting)
            if old_digest == new_posting.digest:
                return old_posting  # content unchanged: nothing to do
            existing = self._postings.get(new_posting.digest)
            if existing is not None:
                # The new content is already indexed under another shard;
                # just drop the old posting.
                self._discard_locked(old_digest, old_posting)
                return existing
            del self._postings[old_digest]
            self._postings[new_posting.digest] = new_posting
            self._postings_terms += new_posting.num_terms - old_posting.num_terms
            self._postings_bytes += new_posting.nbytes - old_posting.nbytes
            for mapping, old_keys, new_keys in (
                (self._entities, old_posting.entity_keys, new_posting.entity_keys),
                (
                    self._entity_tokens,
                    old_posting.entity_tokens,
                    new_posting.entity_tokens,
                ),
                (self._headers, old_posting.header_tokens, new_posting.header_tokens),
                (self._numbers, old_posting.numbers, new_posting.numbers),
            ):
                for key in old_keys - new_keys:
                    digests = mapping.get(key)
                    if digests is not None:
                        digests.discard(old_digest)
                        if not digests:
                            del mapping[key]
                _link(mapping, new_keys - old_keys, new_posting.digest)
                for key in old_keys & new_keys:
                    digests = mapping[key]
                    digests.discard(old_digest)
                    digests.add(new_posting.digest)
            return new_posting

    def discard(self, digest: str) -> bool:
        """Remove one shard's posting; returns whether it was indexed."""
        with self._lock:
            posting = self._postings.get(digest)
            if posting is None:
                return False
            self._discard_locked(digest, posting)
            return True

    def _discard_locked(self, digest: str, posting: ShardPosting) -> None:
        del self._postings[digest]
        self._postings_terms -= posting.num_terms
        self._postings_bytes -= posting.nbytes
        for mapping, keys in (
            (self._entities, posting.entity_keys),
            (self._entity_tokens, posting.entity_tokens),
            (self._headers, posting.header_tokens),
            (self._numbers, posting.numbers),
        ):
            for key in keys:
                digests = mapping.get(key)
                if digests is not None:
                    digests.discard(digest)
                    if not digests:
                        del mapping[key]

    def posting(self, digest: str) -> Optional[ShardPosting]:
        with self._lock:
            return self._postings.get(digest)

    def digests(self) -> List[str]:
        with self._lock:
            return sorted(self._postings)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._postings

    def __len__(self) -> int:
        with self._lock:
            return len(self._postings)

    def stats(self) -> Dict[str, int]:
        """Corpus-scale counters, O(1) in the number of shards.

        ``postings_terms`` / ``postings_bytes`` are maintained
        incrementally by add/update/discard (see
        :attr:`ShardPosting.nbytes`), so a thousand-shard catalog can
        expose its index footprint on every stats call without walking
        the postings.
        """
        with self._lock:
            return {
                "shards": len(self._postings),
                "entity_keys": len(self._entities),
                "entity_tokens": len(self._entity_tokens),
                "header_tokens": len(self._headers),
                "numbers": len(self._numbers),
                "postings_terms": self._postings_terms,
                "postings_bytes": self._postings_bytes,
            }

    def snapshot(self) -> Tuple:
        """A canonical deep copy of every internal structure.

        Two indexes are interchangeable iff their snapshots are equal —
        this is what the churn property tests compare to prove that the
        delta path (:meth:`update`) leaves the index byte-identical to a
        fresh build, *including* the absence of empty posting keys.
        """
        with self._lock:
            return (
                dict(self._postings),
                {key: frozenset(v) for key, v in self._entities.items()},
                {key: frozenset(v) for key, v in self._entity_tokens.items()},
                {key: frozenset(v) for key, v in self._headers.items()},
                {key: frozenset(v) for key, v in self._numbers.items()},
            )

    # -- scoring ---------------------------------------------------------------
    def score_question(self, question: str) -> Dict[str, RetrievalHit]:
        """Score every indexed shard against ``question``.

        Returns only shards with at least one hit, each with its score
        and the sorted list of matched terms (for ``repro route`` and the
        router's explanations).  Deterministic: terms are probed in
        sorted order and weights are exact binary floats, so equal
        (index, question) pairs always produce identical scores.
        """
        terms = question_terms(question, self.max_span_length)
        scores: Dict[str, float] = {}
        matched: Dict[str, List[str]] = {}

        def accumulate(
            probe_keys: Iterable[str],
            mapping: Dict,
            weight: float,
            label: str,
        ) -> None:
            for key in probe_keys:
                for digest in mapping.get(key, ()):
                    scores[digest] = scores.get(digest, 0.0) + weight
                    matched.setdefault(digest, []).append(f"{label}:{key}")

        with self._lock:
            accumulate(
                sorted(terms.phrases), self._entities, ENTITY_PHRASE_WEIGHT, "entity"
            )
            content = {
                token
                for token in terms.tokens
                if token not in STOP_WORDS and token.isalnum()
            }
            accumulate(
                sorted(content), self._entity_tokens, ENTITY_TOKEN_WEIGHT, "token"
            )
            # Header matching uses ALL question tokens (the lexicon's
            # column matcher does not drop stop words on the question
            # side), so stop-word-only headers stay reachable.
            accumulate(
                sorted(set(terms.tokens)), self._headers, HEADER_TOKEN_WEIGHT, "header"
            )
            number_keys = sorted(terms.numbers, key=lambda value: value.number)
            for number in number_keys:
                for digest in self._numbers.get(number, ()):
                    scores[digest] = scores.get(digest, 0.0) + NUMBER_WEIGHT
                    matched.setdefault(digest, []).append(
                        f"number:{number.display()}"
                    )
        return {
            digest: RetrievalHit(
                digest=digest,
                score=score,
                matched=tuple(sorted(matched.get(digest, ()))),
            )
            for digest, score in scores.items()
        }

    def score_digests(self, question: str) -> Dict[str, float]:
        """Score every indexed shard: digest → score, no match labels.

        The lean twin of :meth:`score_question` for the top-N routing hot
        path: at a thousand shards, building and sorting per-shard
        matched-term lists dominates routing time, yet a capped route
        only ever explains the handful of survivors.  Scores here are
        guaranteed equal to :meth:`score_question`'s — the weights are
        exact binary floats, so accumulation order cannot perturb a sum
        and the probes need no sorting (locked in by a property test in
        ``tests/test_retrieval.py``).  Labels for the survivors come from
        :meth:`matched_terms` afterwards.
        """
        terms = question_terms(question, self.max_span_length)
        scores: Dict[str, float] = {}
        with self._lock:
            for phrase in terms.phrases:
                for digest in self._entities.get(phrase, ()):
                    scores[digest] = scores.get(digest, 0.0) + ENTITY_PHRASE_WEIGHT
            for token in set(terms.tokens):
                if token not in STOP_WORDS and token.isalnum():
                    for digest in self._entity_tokens.get(token, ()):
                        scores[digest] = (
                            scores.get(digest, 0.0) + ENTITY_TOKEN_WEIGHT
                        )
            # Header matching uses ALL question tokens (the lexicon's
            # column matcher does not drop stop words on the question
            # side), so stop-word-only headers stay reachable.
            for token in set(terms.tokens):
                for digest in self._headers.get(token, ()):
                    scores[digest] = scores.get(digest, 0.0) + HEADER_TOKEN_WEIGHT
            for number in terms.numbers:
                for digest in self._numbers.get(number, ()):
                    scores[digest] = scores.get(digest, 0.0) + NUMBER_WEIGHT
        return scores

    def term_coverage(self, question: str) -> Dict[str, FrozenSet[str]]:
        """Per anchored question term → the digests of the shards covering it.

        The set-cover view of a question: only terms that at least one
        indexed shard covers appear (a term no shard holds cannot
        constrain routing), each mapped to the frozen set of covering
        digests.  Labels use the exact ``label:key`` format of
        :meth:`score_question`'s ``matched`` tuples, so a coverage key is
        directly comparable with a hit explanation.  This is what the
        :class:`~repro.retrieval.router.ShardSetRouter` consumes to
        decide whether a *single* shard can cover the whole question or
        a 2–3-shard set is needed.
        """
        terms = question_terms(question, self.max_span_length)
        coverage: Dict[str, FrozenSet[str]] = {}
        with self._lock:
            for phrase in sorted(terms.phrases):
                digests = self._entities.get(phrase)
                if digests:
                    coverage[f"entity:{phrase}"] = frozenset(digests)
            content = {
                token
                for token in terms.tokens
                if token not in STOP_WORDS and token.isalnum()
            }
            for token in sorted(content):
                digests = self._entity_tokens.get(token)
                if digests:
                    coverage[f"token:{token}"] = frozenset(digests)
            # Header coverage uses ALL question tokens, mirroring
            # score_question (the lexicon's column matcher keeps stop
            # words on the question side).
            for token in sorted(set(terms.tokens)):
                digests = self._headers.get(token)
                if digests:
                    coverage[f"header:{token}"] = frozenset(digests)
            for number in sorted(terms.numbers, key=lambda value: value.number):
                digests = self._numbers.get(number)
                if digests:
                    coverage[f"number:{number.display()}"] = frozenset(digests)
        return coverage

    def matched_terms(
        self, question: str, digests: Iterable[str]
    ) -> Dict[str, Tuple[str, ...]]:
        """Explain ``question``'s hits for the requested shards only.

        The labels are byte-identical to :meth:`score_question`'s
        ``matched`` tuples (same ``label:key`` format, same final sort);
        only shards in ``digests`` that match at least one term appear.
        Pairs with :meth:`score_digests`: score everything cheaply, then
        explain just the top-N survivors.
        """
        wanted = set(digests)
        if not wanted:
            return {}
        terms = question_terms(question, self.max_span_length)
        matched: Dict[str, List[str]] = {}

        def accumulate(
            probe_keys: Iterable[str],
            mapping: Dict,
            label_of,
        ) -> None:
            for key in probe_keys:
                for digest in mapping.get(key, ()):
                    if digest in wanted:
                        matched.setdefault(digest, []).append(label_of(key))

        with self._lock:
            accumulate(terms.phrases, self._entities, lambda key: f"entity:{key}")
            content = {
                token
                for token in terms.tokens
                if token not in STOP_WORDS and token.isalnum()
            }
            accumulate(content, self._entity_tokens, lambda key: f"token:{key}")
            accumulate(
                set(terms.tokens), self._headers, lambda key: f"header:{key}"
            )
            accumulate(
                terms.numbers,
                self._numbers,
                lambda number: f"number:{number.display()}",
            )
        return {
            digest: tuple(sorted(labels)) for digest, labels in matched.items()
        }
