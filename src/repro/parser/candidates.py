"""The semantic parser: candidate generation + log-linear ranking.

This is the reproduction's stand-in for the Zhang et al. 2017 parser that
the paper uses as a black box (Section 2): given an NL question and a
table it produces a ranked list of candidate lambda DCS queries.  The
deployment interface (:mod:`repro.interface`) consumes the ranked list, and
the trainer (:mod:`repro.parser.training`) updates the underlying model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..tables.fingerprint import LRUCache
from ..tables.index import index_cache_stats
from ..tables.schema import table_schema
from ..tables.table import Table
from ..dcs.ast import Query
from ..dcs.errors import DCSError
from ..dcs.executor import ExecutionResult, Executor
from ..dcs.memo import MemoizedExecutor
from ..dcs.sexpr import to_sexpr
from ..dcs.typing import validate
from .features import FeatureVector, extract_features
from .grammar import CandidateGrammar, GenerationConfig
from .lexicon import LexicalAnalysis, Lexicon
from .model import LogLinearModel, softmax


@dataclass(frozen=True)
class Candidate:
    """One candidate query with everything the ranker and the UI need."""

    query: Query
    features: FeatureVector
    result: ExecutionResult
    score: float = 0.0
    probability: float = 0.0

    @property
    def answer(self) -> Tuple[str, ...]:
        return self.result.answer_strings()

    @cached_property
    def sexpr(self) -> str:
        """The query's s-expression, serialized on first read only.

        Serving reads it at least twice per candidate (the explanation
        memo key, then the envelope), so a candidate held in a ranked
        memo keeps its string instead of re-walking the query per read.
        """
        return to_sexpr(self.query)

    def __repr__(self) -> str:
        # Bounded on purpose: the generated dataclass repr recurses into
        # the query AST, the feature vector and the execution result —
        # any accidental repr (a log line, an assertion message, asyncio
        # formatting a task result) pays the whole graph.
        return (
            f"Candidate(sexpr={self.sexpr!r}, score={self.score:.4f}, "
            f"answer={self.answer!r})"
        )


@dataclass
class ParseOutput:
    """The ranked candidate list ``Z_x`` for one question."""

    question: str
    table: Table
    candidates: List[Candidate]
    analysis: LexicalAnalysis
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

    The caching knobs control the content-addressed caches that make the
    deployment hot path fast.  All caches are keyed by
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
      :meth:`SemanticParser.generate_candidates` calls store the list —
      training and the online learner re-rank from it after every weight
      change.  Top-``k`` parses only read it: the serving pools memoize
      the ``k`` candidates they serve instead, so a served question is
      not resident twice.  The flag also switches those pool memos on.
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
      the per-table lexicon+grammar caches and the candidate-list cache
      (filled by full parses only).
      ``candidate_cache_size`` also bounds the ranked memo of a
      :class:`~repro.perf.pool.ThreadWorkerPool` and of each process
      worker, which holds only the top-k parse each caller serves (and,
      times eight, the pool's explanation memo).

    Each cache indexes its entries by table, so
    :meth:`SemanticParser.evict_table` drops one table from all of them
    at O(that table's entries).
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


class SemanticParser:
    """Maps NL questions over tables to ranked lambda DCS candidates."""

    def __init__(
        self,
        model: Optional[LogLinearModel] = None,
        config: Optional[ParserConfig] = None,
    ) -> None:
        self.model = model or LogLinearModel()
        self.config = config or ParserConfig()
        self._lexicons: LRUCache = LRUCache(maxsize=self.config.table_cache_size)
        self._grammars: LRUCache = LRUCache(maxsize=self.config.table_cache_size)
        self._candidate_cache: LRUCache = LRUCache(maxsize=self.config.candidate_cache_size)
        #: Sub-query memo hits and misses, summed over every generation
        #: call (each call's memo dies with it, see generate_candidates).
        self._execution_lock = threading.Lock()
        self._execution_hits = 0
        self._execution_misses = 0
        if self.config.disk_cache_dir:
            # Imported lazily: repro.perf imports this module at package
            # init, so a module-level import would be circular.
            from ..perf.diskcache import DiskCache

            self._disk_cache: Optional["DiskCache"] = DiskCache(self.config.disk_cache_dir)
            # The config is immutable in practice; hash its generation
            # knobs once instead of per cache-missing parse.
            self._generation_signature = self.config.generation_signature()
        else:
            self._disk_cache = None
            self._generation_signature = ""

    # -- per-table caches ---------------------------------------------------------
    # Keyed by content fingerprint, NOT id(table): CPython recycles object
    # ids after garbage collection, so id-keyed caches can serve a stale
    # lexicon/grammar for a brand-new table (and grow without bound).
    def _lexicon(self, table: Table) -> Lexicon:
        return self._lexicons.get_or_create(table.fingerprint, lambda: Lexicon(table))

    def _grammar(self, table: Table) -> CandidateGrammar:
        return self._grammars.get_or_create(
            table.fingerprint,
            lambda: CandidateGrammar(table, self.config.generation),
        )

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/size counters of every parser cache (for bench reports).

        ``execution`` sums the sub-query memo's hits and misses over every
        generation call; its ``size`` is always 0, because no memo
        outlives its call.  ``indexes`` reports the process-wide
        table-index registry (shared by every parser in the process);
        ``disk`` reports this parser's on-disk store, all-zero when none
        is configured.
        """
        from ..perf.diskcache import DiskCache  # lazy: avoids an import cycle

        with self._execution_lock:
            execution = {
                "size": 0,
                "hits": self._execution_hits,
                "misses": self._execution_misses,
            }
        return {
            "lexicons": self._lexicons.stats(),
            "grammars": self._grammars.stats(),
            "execution": execution,
            "candidates": self._candidate_cache.stats(),
            "indexes": index_cache_stats(),
            "disk": (
                self._disk_cache.stats() if self._disk_cache else DiskCache.empty_stats()
            ),
        }

    def clear_caches(self) -> None:
        """Drop every cached lexicon, grammar and candidate entry.

        In-memory only: the on-disk store (if any) and the process-wide
        index registry are deliberately left intact — both are
        content-addressed and can never serve stale entries.
        """
        self._lexicons.clear()
        self._grammars.clear()
        self._candidate_cache.clear()

    # -- candidate generation -------------------------------------------------------
    def generate_candidates(
        self, question: str, table: Table, *, store: bool = True
    ) -> Tuple[List[Candidate], LexicalAnalysis]:
        """Generate (unranked) executable candidates with their features.

        Generation is independent of the model weights (only ranking uses
        them), so with ``config.cache_candidates`` the whole candidate
        list is memoized per ``(table content, question)``: a warm parse
        skips lexical analysis, grammar generation and execution entirely.

        ``store=False`` still answers from a cached list but adds none to
        the in-memory cache: a top-``k`` parse passes it, because its
        caller memoizes the ``k`` candidates it serves.  The disk store,
        when configured, persists the list either way — it costs no
        resident memory.

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
        analysis = self._lexicon(table).analyze(question)
        raw_queries = self._grammar(table).generate(analysis)
        # With indexing on, validation reuses one content-addressed schema
        # per question; off, it re-profiles per candidate (the seed path).
        schema = table_schema(table) if self.config.index_tables else None
        executor: Executor
        if self.config.memoize_execution:
            executor = MemoizedExecutor(table, use_index=self.config.index_tables)
        else:
            executor = Executor(table, use_index=self.config.index_tables)
        candidates: List[Candidate] = []
        for query in raw_queries:
            if not validate(query, table, schema=schema):
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
                question, table, query, analysis=analysis, result=result
            )
            candidates.append(Candidate(query=query, features=features, result=result))
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

        The lexicon, the grammar and the per-question candidate lists are
        removed; nothing is lost, because candidate lists reach the disk
        store (when configured) at generation time.  The same call serves
        shard eviction, whose digest may come back, and version
        retirement, whose digest never does: the parser keeps no other
        per-table state.  Content-addressing makes this safe at any
        time: a concurrent parse of the same table simply rebuilds what
        it needs.
        """
        fingerprint = table.fingerprint
        self._lexicons.pop(fingerprint)
        self._grammars.pop(fingerprint)
        self._candidate_cache.discard(fingerprint.digest)

    # -- parsing -----------------------------------------------------------------------
    def parse(self, question: str, table: Table, k: Optional[int] = None) -> ParseOutput:
        """Parse a question into a ranked candidate list.

        The list is cut to the top ``config.max_candidates``, and to the
        top ``k`` when that is smaller.  Probabilities are normalised over
        every candidate before the cut, so a top-``k`` parse is a prefix
        of the full one.

        A full parse (``k=None``) stores the unranked list in the
        candidate cache, so training and the online learner can re-rank
        it after a weight change.  A top-``k`` parse reads that cache but
        stores nothing: its caller (a worker pool's ranked memo) keeps
        the ``k`` candidates it serves.  Asking the same question again
        with another ``k``, or after a weight change, therefore
        regenerates it unless a full parse cached it.
        """
        started = time.perf_counter()
        candidates, analysis = self.generate_candidates(
            question, table, store=k is None
        )
        limit = self.config.max_candidates
        if k is not None:
            limit = min(k, limit)
        ranked = self.rank(candidates, k=limit)
        elapsed = time.perf_counter() - started
        return ParseOutput(
            question=question,
            table=table,
            candidates=ranked,
            analysis=analysis,
            generation_seconds=elapsed,
        )

    def rank(
        self, candidates: Sequence[Candidate], k: Optional[int] = None
    ) -> List[Candidate]:
        """Order candidates by model probability (Equation 4).

        Every candidate is scored once and the softmax runs over all of
        them, but only the first ``k`` of the order (all when ``k`` is
        ``None``) are rebuilt with their score and probability: a
        top-``k`` ranking is exactly the prefix of the full one.  Ties
        keep input order, as in :meth:`LogLinearModel.rank`.
        """
        if not candidates:
            return []
        # Score once: the model's probabilities are the softmax of these
        # same scores, so calling both would score every candidate twice.
        scores = self.model.scores([candidate.features for candidate in candidates])
        probabilities = softmax(scores)
        order = sorted(range(len(scores)), key=lambda index: -scores[index])
        return [
            Candidate(
                query=candidates[index].query,
                features=candidates[index].features,
                result=candidates[index].result,
                score=scores[index],
                probability=probabilities[index],
            )
            for index in order[:k]
        ]
