"""The semantic parser: candidate generation + log-linear ranking.

This is the reproduction's stand-in for the Zhang et al. 2017 parser that
the paper uses as a black box (Section 2): given an NL question and a
table it produces a ranked list of candidate lambda DCS queries.  The
deployment interface (:mod:`repro.interface`) consumes the ranked list, and
the trainer (:mod:`repro.parser.training`) updates the underlying model.

A :class:`CandidateGenerator` yields a question's candidates without
reading any weight of its own; a :class:`SemanticParser` is a model
ranking what its generator yields (the paper retrains only the ranker,
Section 6).  A cold top-``k`` parse hands its generator a snapshot of the
weights, so each candidate is scored as it is built and no feature
vector outlives its score.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..tables.fingerprint import LRUCache
from ..tables.index import evict_index, index_cache_stats
from ..tables.table import Table
from ..tables.values import pickles_as_fields
from ..dcs.ast import Query
from ..dcs.errors import DCSError
from ..dcs.executor import ExecutionResult, Executor
from ..dcs.memo import MemoizedExecutor
from ..dcs.sexpr import to_sexpr
from ..dcs.typing import validate
from .features import FeatureVector, NodeFacts, extract_features
from .grammar import CandidateGrammar, GenerationConfig
from .lexicon import LexicalAnalysis, Lexicon
from .model import LogLinearModel, dot, softmax


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class Candidate:
    """One candidate query with everything the ranker and the UI need.

    ``features`` is ``None`` on a candidate a top-``k`` parse served: the
    ranker is the vector's only reader, so the parse never keeps it (see
    :meth:`SemanticParser.parse`).

    Slotted like its query and result, and pickled as its field tuple
    (:func:`~repro.tables.values.pickles_as_fields`): no attribute dict,
    so no ad-hoc attribute or ``cached_property``.
    """

    query: Query
    features: Optional[FeatureVector]
    result: ExecutionResult
    score: float = 0.0
    probability: float = 0.0
    #: The s-expression :attr:`sexpr` reads; not an ``__init__`` field,
    #: so never pickled (a restore leaves the slot unset).
    _sexpr: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    @property
    def answer(self) -> Tuple[str, ...]:
        return self.result.answer_strings()

    @property
    def sexpr(self) -> str:
        """The query's s-expression.

        Generation fills it with the string its node facts composed for
        the query.  A candidate built or unpickled elsewhere serializes
        its query on the first read and keeps the string: serving reads
        it at least twice per candidate (the explanation memo key, then
        the envelope).  It is never pickled, so a reply, a disk entry or
        a copy carries the query alone.
        """
        sexpr = getattr(self, "_sexpr", None)
        if sexpr is None:
            sexpr = to_sexpr(self.query)
            object.__setattr__(self, "_sexpr", sexpr)
        return sexpr

    def without_features(self) -> "Candidate":
        """This candidate as a top-``k`` parse serves it: no vector."""
        if self.features is None:
            return self
        return _candidate(
            self.query, None, self.result, self.score, self.probability,
            getattr(self, "_sexpr", None),
        )

    def __repr__(self) -> str:
        # Bounded on purpose: the generated dataclass repr recurses into
        # the query AST, the feature vector and the execution result —
        # any accidental repr (a log line, an assertion message, asyncio
        # formatting a task result) pays the whole graph.
        return (
            f"Candidate(sexpr={self.sexpr!r}, score={self.score:.4f}, "
            f"answer={self.answer!r})"
        )


def _candidate(
    query: Query,
    features: Optional[FeatureVector],
    result: ExecutionResult,
    score: float = 0.0,
    probability: float = 0.0,
    sexpr: Optional[str] = None,
) -> Candidate:
    """A :class:`Candidate` holding ``sexpr``, its query's s-expression
    as already composed (``None``: serialized on the first read)."""
    candidate = Candidate(query, features, result, score, probability)
    if sexpr is not None:
        object.__setattr__(candidate, "_sexpr", sexpr)
    return candidate


@dataclass
class ParseOutput:
    """The ranked candidate list ``Z_x`` for one question.

    A top-``k`` parse carries neither feature vectors nor the lexical
    analysis (``analysis is None``); a full parse carries both.
    """

    question: str
    table: Table
    candidates: List[Candidate]
    analysis: Optional[LexicalAnalysis]
    generation_seconds: float = 0.0

    @property
    def top(self) -> Optional[Candidate]:
        return self.candidates[0] if self.candidates else None

    def top_k(self, k: int) -> List[Candidate]:
        return self.candidates[:k]

    def queries(self) -> List[Query]:
        return [candidate.query for candidate in self.candidates]

    def __len__(self) -> int:
        return len(self.candidates)

    def __repr__(self) -> str:
        # Bounded: a full repr would recurse into every candidate (up to
        # max_candidates of them) — see Candidate.__repr__.
        table = self.table.name if self.table is not None else None
        return (
            f"ParseOutput(question={self.question!r}, table={table!r}, "
            f"candidates=<{len(self.candidates)}>)"
        )


@dataclass
class ParserConfig:
    """Behavioural knobs of the parser.

    The caching knobs control the content-addressed caches, all owned by
    the parser's :class:`CandidateGenerator`, that make the deployment
    hot path fast.  All caches are keyed by
    :class:`~repro.tables.fingerprint.TableFingerprint` (never by object
    id) and bounded by an LRU, so long-running deployments neither leak
    nor alias recycled tables:

    * ``memoize_execution`` — execute a cold question's candidates
      through one :class:`~repro.dcs.memo.MemoizedExecutor`, so its ~600
      candidates stop re-walking the table for shared sub-trees.  The
      memo lives for that one generation call and is never resident.
    * ``cache_candidates`` — memoize the full (weight-independent)
      candidate list per ``(table, question)``; re-parsing the same
      question only re-*ranks* with the current model weights.  Full
      parses (``parse(k=None)``) and direct
      :meth:`SemanticParser.generate_candidates` calls store the list,
      feature vectors included — training and the online learner re-rank
      from it after every weight change.  Top-``k`` parses only read it:
      the serving pools memoize the ``k`` candidates they serve instead,
      without feature vectors or lexical analysis, so a served question
      is not resident twice.  The flag also switches those pool memos on.
    * ``index_tables`` — answer executor cache misses from the
      content-addressed :class:`~repro.tables.index.TableIndex` (hash and
      bisect lookups) instead of row scans; ``False`` keeps the seed's
      scan path.
    * ``disk_cache_dir`` — when set, candidate lists are persisted to a
      content-addressed on-disk store
      (:class:`~repro.perf.diskcache.DiskCache`) shared across processes,
      so a warm-start process skips cold parsing of every question it
      has seen; a new question is generated cold.
    * ``table_cache_size`` / ``candidate_cache_size`` — LRU bounds of
      the one per-table lexicon-and-grammar cache and the candidate-list
      cache (filled by full parses only).
      ``candidate_cache_size`` also bounds the ranked memo of a
      :class:`~repro.perf.pool.ThreadWorkerPool` and of each process
      worker, which holds only the top-k parse each caller serves (and,
      times eight, the pool's explanation memo).

    Each cache indexes its entries by table, so
    :meth:`CandidateGenerator.evict_table` drops one table from all of
    them at O(that table's entries).  No knob switches off the per-call
    node facts (:class:`~repro.parser.features.NodeFacts`) generation
    builds: they change no output and outlive no call.
    """

    generation: GenerationConfig = field(default_factory=GenerationConfig)
    drop_empty_answers: bool = True
    drop_failing_candidates: bool = True
    max_candidates: int = 600
    memoize_execution: bool = True
    cache_candidates: bool = True
    index_tables: bool = True
    disk_cache_dir: Optional[str] = None
    table_cache_size: int = 64
    candidate_cache_size: int = 256

    def generation_signature(self) -> str:
        """A stable digest of every knob that affects *generation* output.

        Disk-cache keys include it so a store shared between differently
        configured parsers can never serve a candidate list generated
        under other generation rules.  Ranking knobs (model weights,
        ``max_candidates``) are deliberately excluded — candidates are
        weight-independent.
        """
        payload = (
            dataclasses.asdict(self.generation),
            self.drop_empty_answers,
            self.drop_failing_candidates,
        )
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


class CandidateGenerator:
    """The weight-free half of the parser: a question's executable candidates.

    Generation stores no list that depends on a weight (a top-``k``
    parse's weight snapshot only scores candidates that are never
    stored), so parsers sharing one generator share every list it
    stored.  It owns every cache derived from
    table content (one lexicon-and-grammar entry per table, candidate
    lists, the disk store) under one ``config``; all of them are
    thread-safe.  Column indexes stay in the process-wide registry every
    executor reads, from which :meth:`evict_table` drops them too.
    """

    def __init__(self, config: Optional[ParserConfig] = None) -> None:
        self.config = config or ParserConfig()
        self._per_table: LRUCache = LRUCache(maxsize=self.config.table_cache_size)
        self._candidate_cache: LRUCache = LRUCache(maxsize=self.config.candidate_cache_size)
        #: Sub-query memo hits and misses, summed over every generation
        #: call (each call's memo dies with it, see generate).
        self._execution_lock = threading.Lock()
        self._execution_hits = 0
        self._execution_misses = 0
        if self.config.disk_cache_dir:
            # Imported lazily: only a parser with a disk store loads it
            # (and pickle).
            from ..perf.diskcache import DiskCache

            self._disk_cache: Optional["DiskCache"] = DiskCache(self.config.disk_cache_dir)
            # The config is immutable in practice; hash its generation
            # knobs once instead of per cache-missing parse.
            self._generation_signature = self.config.generation_signature()
        else:
            self._disk_cache = None
            self._generation_signature = ""

    # -- per-table cache ----------------------------------------------------------
    # Keyed by content fingerprint, NOT id(table): CPython recycles object
    # ids after garbage collection, so an id-keyed cache can serve a stale
    # lexicon/grammar for a brand-new table (and grow without bound).
    def _lexicon_and_grammar(self, table: Table) -> Tuple[Lexicon, CandidateGrammar]:
        return self._per_table.get_or_create(
            table.fingerprint,
            lambda: (Lexicon(table), CandidateGrammar(table, self.config.generation)),
        )

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/size counters of every generator cache (for bench reports).

        ``lexicons`` and ``grammars`` both report the one per-table cache.
        ``execution`` sums the sub-query memo's hits and misses over every
        generation call; its ``size`` is always 0, because no memo
        outlives its call.  ``indexes`` reports the process-wide
        table-index registry (shared by every generator in the process);
        ``disk`` reports this generator's on-disk store, all-zero when
        none is configured.
        """
        with self._execution_lock:
            execution = {
                "size": 0,
                "hits": self._execution_hits,
                "misses": self._execution_misses,
            }
        per_table = self._per_table.stats()
        return {
            "lexicons": per_table,
            "grammars": dict(per_table),
            "execution": execution,
            "candidates": self._candidate_cache.stats(),
            "indexes": index_cache_stats(),
            # Built here, not read from DiskCache.empty_stats(): a stats
            # read must not load the disk-store module serving never uses.
            "disk": (
                self._disk_cache.stats()
                if self._disk_cache
                else {"hits": 0, "misses": 0, "writes": 0, "errors": 0}
            ),
        }

    def clear_caches(self) -> None:
        """Drop every cached per-table entry and candidate list.

        In-memory only: the on-disk store (if any) and the process-wide
        index registry are deliberately left intact — both are
        content-addressed and can never serve stale entries.
        """
        self._per_table.clear()
        self._candidate_cache.clear()

    # -- candidate generation -------------------------------------------------------
    def generate(
        self,
        question: str,
        table: Table,
        *,
        store: bool = True,
        weights: Optional[Dict[str, float]] = None,
    ) -> Tuple[List[Candidate], LexicalAnalysis]:
        """Generate (unranked) executable candidates with their features
        (or, scored as they are built, their scores).

        Generation is independent of the model weights (only ranking uses
        them), so with ``config.cache_candidates`` the whole candidate
        list is memoized per ``(table content, question)``: a warm parse
        skips lexical analysis, grammar generation and execution entirely.

        ``store=False`` still answers from a cached list but adds none to
        the in-memory cache: a top-``k`` parse passes it, because its
        caller memoizes the ``k`` candidates it serves.  The disk store,
        when configured, persists the list either way — it costs no
        resident memory.

        ``weights`` is a snapshot of a model's weights, which a top-``k``
        parse passes.  When a cold call stores no list (``store=False``
        and no disk store), it scores each candidate with them as soon
        as :func:`~repro.parser.features.extract_features` returns its
        vector, and builds the candidate with that score and no vector:
        the ranker reads those scores (:meth:`SemanticParser.rank`), and
        the call never holds its candidates' vectors at once.  Anything
        that stores the list, and a cache hit, returns vectors, unscored.
        Generation reads no weight otherwise.

        A cold call builds each distinct node's facts once, in one
        :class:`~repro.parser.features.NodeFacts` table: its s-expression
        composed from its children's (the key the grammar deduplicates by
        and the execution memo looks up), its validity and the profile
        its candidates' feature vectors combine with the question's
        facts and the denotation.  Candidates share sub-trees, so a
        shared node is serialized, validated and profiled once instead
        of once per candidate that embeds it.  The table dies with the
        call.

        With ``config.memoize_execution`` a cold call executes its
        candidates through one :class:`~repro.dcs.memo.MemoizedExecutor`
        whose memo (a dict keyed by s-expression) is private to the call
        and dropped when it returns: candidates of one question share
        sub-trees, nothing carries over to the next question.  Only the
        memo's hit and miss counts outlive the call, in
        :meth:`cache_stats`.
        """
        cache_key = (table.fingerprint, question)
        store = store and self.config.cache_candidates
        if self.config.cache_candidates:
            cached = self._candidate_cache.get(cache_key)
            if cached is not None:
                candidates, analysis = cached
                return list(candidates), analysis
        signature = self._generation_signature
        if self._disk_cache is not None:
            stored = self._disk_cache.get_candidates(
                table.fingerprint.digest, question, signature
            )
            if stored is not None:
                candidates, analysis = stored
                if store:
                    self._candidate_cache.put(cache_key, (tuple(candidates), analysis))
                return list(candidates), analysis
        lexicon, grammar = self._lexicon_and_grammar(table)
        analysis = lexicon.analyze(question)
        facts = NodeFacts(question, analysis, table, grammar.schema)
        raw_queries = grammar.keyed(facts.sexpr).generate(analysis)
        facts.retain(raw_queries)
        # With indexing on, validation reads each node's verdict from the
        # call's facts, over the schema the grammar profiled once per
        # table; off, it re-profiles and re-walks per candidate (the seed
        # path).
        index_tables = self.config.index_tables
        executor: Executor
        if self.config.memoize_execution:
            executor = MemoizedExecutor(
                table, use_index=self.config.index_tables, sexpr=facts.sexpr
            )
        else:
            executor = Executor(table, use_index=self.config.index_tables)
        # Stored lists keep their vectors, so the ranker can re-rank them.
        scoring = weights is not None and not store and self._disk_cache is None
        composed = facts.sexpr
        candidates: List[Candidate] = []
        for query in raw_queries:
            if not (facts.valid(query) if index_tables else validate(query, table)):
                if self.config.drop_failing_candidates:
                    continue
            try:
                result = executor.execute(query)
            except DCSError:
                if self.config.drop_failing_candidates:
                    continue
                result = ExecutionResult(kind=query.result_kind)
            if self.config.drop_empty_answers and result.is_empty:
                continue
            features = extract_features(
                question, table, query, analysis=analysis, result=result, facts=facts
            )
            if scoring:
                candidates.append(
                    _candidate(query, None, result, dot(weights, features), sexpr=composed(query))
                )
            else:
                candidates.append(_candidate(query, features, result, sexpr=composed(query)))
        if isinstance(executor, MemoizedExecutor):
            with self._execution_lock:
                self._execution_hits += executor.hits
                self._execution_misses += executor.misses
        if store:
            self._candidate_cache.put(cache_key, (tuple(candidates), analysis))
        if self._disk_cache is not None:
            self._disk_cache.put_candidates(
                table.fingerprint.digest, question, signature, (tuple(candidates), analysis)
            )
        return candidates, analysis

    # -- shard eviction hook -----------------------------------------------------
    def evict_table(self, table: Table) -> None:
        """Drop every in-memory artifact of ``table``'s content.

        The lexicon-and-grammar entry, the per-question candidate lists
        and the process-wide column index are removed; nothing is lost,
        because candidate lists reach the disk store (when configured)
        at generation time.  The same call serves shard eviction, whose
        digest may come back, and version retirement, whose digest never
        does.  Content-addressing makes this safe at any time: a
        concurrent parse of the same table simply rebuilds what it needs.
        """
        fingerprint = table.fingerprint
        self._per_table.pop(fingerprint)
        self._candidate_cache.discard(fingerprint.digest)
        evict_index(fingerprint)


class SemanticParser:
    """Maps NL questions over tables to ranked lambda DCS candidates.

    A model plus a :class:`CandidateGenerator`: a private one built on
    ``config``, or a shared ``generator`` that brings its own config (a
    ``config`` that differs from it is a ``ValueError``).  The cache and
    eviction methods act on the generator, so on every parser sharing it.
    """

    def __init__(
        self,
        model: Optional[LogLinearModel] = None,
        config: Optional[ParserConfig] = None,
        generator: Optional[CandidateGenerator] = None,
    ) -> None:
        if generator is None:
            generator = CandidateGenerator(config)
        elif config is not None and config != generator.config:
            raise ValueError(
                "config conflicts with the shared generator's config; "
                "pass one or the other"
            )
        self.model = model or LogLinearModel()
        self.generator = generator

    @property
    def config(self) -> ParserConfig:
        return self.generator.config

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """See :meth:`CandidateGenerator.cache_stats`."""
        return self.generator.cache_stats()

    def clear_caches(self) -> None:
        """See :meth:`CandidateGenerator.clear_caches`."""
        self.generator.clear_caches()

    def generate_candidates(
        self,
        question: str,
        table: Table,
        *,
        store: bool = True,
        weights: Optional[Dict[str, float]] = None,
    ) -> Tuple[List[Candidate], LexicalAnalysis]:
        """See :meth:`CandidateGenerator.generate`."""
        return self.generator.generate(question, table, store=store, weights=weights)

    def evict_table(self, table: Table) -> None:
        """See :meth:`CandidateGenerator.evict_table`."""
        self.generator.evict_table(table)

    # -- parsing -----------------------------------------------------------------------
    def parse(self, question: str, table: Table, k: Optional[int] = None) -> ParseOutput:
        """Parse a question into a ranked candidate list.

        The list is cut to the top ``config.max_candidates``, and to the
        top ``k`` when that is smaller.  Probabilities are normalised over
        every candidate before the cut, so a top-``k`` parse is a prefix
        of the full one in query, result, score and probability.

        A full parse (``k=None``) stores the unranked list in the
        candidate cache, so training and the online learner can re-rank
        it after a weight change, and keeps every feature vector and the
        lexical analysis.  A top-``k`` parse reads that cache but stores
        nothing: its caller (a worker pool's ranked memo) keeps the ``k``
        candidates it serves.  The ranker is the only reader of a
        candidate's features, so a top-``k`` parse keeps none: a cold one
        hands generation a snapshot of the weights, which scores each
        candidate as its vector is extracted and drops the vector (see
        :meth:`CandidateGenerator.generate`), and :meth:`rank` orders
        those scores; a cached list is ranked from its vectors and cut.
        Either way the scores are the same ``dot`` over the same vectors,
        and the parse returns candidates with ``features=None`` and
        ``analysis=None``, which :meth:`rank` refuses.  Asking the same
        question again with another ``k``, or after a weight change,
        therefore regenerates it unless a full parse cached it.
        """
        started = time.perf_counter()
        candidates, analysis = self.generate_candidates(
            question,
            table,
            store=k is None,
            weights=None if k is None else dict(self.model.weights),
        )
        limit = self.config.max_candidates
        if k is not None:
            limit = min(k, limit)
        scores = None
        if candidates and candidates[0].features is None:  # scored as built
            scores = [candidate.score for candidate in candidates]
        ranked = self.rank(candidates, k=limit, scores=scores)
        if k is not None:
            ranked = [candidate.without_features() for candidate in ranked]
            analysis = None
        elapsed = time.perf_counter() - started
        return ParseOutput(
            question=question,
            table=table,
            candidates=ranked,
            analysis=analysis,
            generation_seconds=elapsed,
        )

    def rank(
        self,
        candidates: Sequence[Candidate],
        k: Optional[int] = None,
        scores: Optional[Sequence[float]] = None,
    ) -> List[Candidate]:
        """Order candidates by model probability (Equation 4).

        Every candidate is scored once and the softmax runs over all of
        them, but only the first ``k`` of the order (all when ``k`` is
        ``None``) are rebuilt with their score and probability: a
        top-``k`` ranking is exactly the prefix of the full one.  Ties
        keep input order, as in :meth:`LogLinearModel.rank`.

        ``scores``, one per candidate, are the scores the call that built
        the candidates computed from their vectors (a cold top-``k``
        parse, see :meth:`CandidateGenerator.generate`); they replace
        the scoring.  Without them a candidate without features (one a
        top-``k`` parse served) is a ``ValueError``: it is never scored 0.
        """
        if not candidates:
            return []
        if scores is None:
            vectors = [candidate.features for candidate in candidates]
            if any(vector is None for vector in vectors):
                raise ValueError(
                    "cannot rank a candidate without features: a top-k parse "
                    "keeps none; re-rank the full list from parse(k=None) or "
                    "generate_candidates instead"
                )
            # Score once: the model's probabilities are the softmax of these
            # same scores, so calling both would score every candidate twice.
            scores = self.model.scores(vectors)
        elif len(scores) != len(candidates):
            raise ValueError(
                f"{len(scores)} scores for {len(candidates)} candidates"
            )
        probabilities = softmax(scores)
        order = sorted(range(len(scores)), key=lambda index: -scores[index])
        return [
            _candidate(
                candidates[index].query,
                candidates[index].features,
                candidates[index].result,
                scores[index],
                probabilities[index],
                getattr(candidates[index], "_sexpr", None),
            )
            for index in order[:k]
        ]
