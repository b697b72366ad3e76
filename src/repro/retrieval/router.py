"""The shard router: deterministic scoring, pruning and the fallback contract.

The router turns the :class:`~repro.retrieval.corpus_index.CorpusIndex`'s
per-shard hits into a :class:`RoutingDecision`: which shards to parse,
in what order, and why.  Two guarantees the rest of the system builds
on:

* **Determinism** — shards are ranked by ``(retrieval score desc,
  registration order asc)``; the score itself is deterministic (see the
  index), so a fixed (catalog, question) pair always routes the same.
* **Guaranteed fallback** — when no shard scores a hit (an empty index,
  a question with no lexical anchor anywhere), the decision degrades to
  the full broadcast: every shard is a candidate, nothing is pruned, and
  answers are exactly what the pre-retrieval pipeline produced.  Pruning
  can therefore *narrow* work but never lose an answer that only a
  broadcast would have found ranked first — unless a trained model ranks
  a zero-hit shard's floating candidate above every anchored one, the
  case the property test in ``tests/test_retrieval.py`` carves out
  ("pruned top == broadcast top whenever the broadcast top shard is
  retrievable").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..tables.catalog import TableRef
from .corpus_index import CorpusIndex, RetrievalHit


@dataclass(frozen=True)
class ShardScore:
    """One shard's retrieval outcome for one question."""

    ref: TableRef
    score: float
    matched: Tuple[str, ...]

    @property
    def hit(self) -> bool:
        return self.score > 0.0


@dataclass(frozen=True)
class RoutingDecision:
    """Which shards a question will be parsed on, and why.

    ``scored`` ranks shards by (score desc, registration order asc):
    *every* registered shard on an uncapped or fallback route, or — when
    a ``max_candidates`` cap selected the top-N through the heap path —
    just the surviving candidates (a thousand-shard corpus must not pay
    for a thousand-entry explanation of a ten-shard decision).
    ``candidates`` are the shards that will actually parse — the hits,
    or on ``fallback`` every shard.  ``pruned`` is the complement:
    shards retrieval pruned, which stay untouched (evicted ones stay on
    disk).
    """

    question: str
    scored: Tuple[ShardScore, ...]
    candidates: Tuple[TableRef, ...]
    pruned: Tuple[TableRef, ...]
    fallback: bool

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_pruned(self) -> int:
        return len(self.pruned)

    def score_of(self, digest: str) -> float:
        for scored in self.scored:
            if scored.ref.digest == digest:
                return scored.score
        return 0.0

    def is_candidate(self, digest: str) -> bool:
        return any(ref.digest == digest for ref in self.candidates)


class ShardRouter:
    """Routes questions to catalog shards through a :class:`CorpusIndex`.

    Parameters
    ----------
    index:
        The corpus index to score against (owned by the catalog, which
        catches it up before every routing read).
    max_candidates:
        Optional cap on how many (highest-scoring) hit shards survive
        pruning.  ``None`` — the default, and what the fallback contract
        is stated for — keeps every hit: capping trades recall for work
        and can drop the broadcast winner, so it is strictly opt-in.
    """

    def __init__(
        self, index: CorpusIndex, max_candidates: Optional[int] = None
    ) -> None:
        if max_candidates is not None and max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1 (or None), got {max_candidates}"
            )
        self.index = index
        self.max_candidates = max_candidates

    def route(
        self,
        question: str,
        refs: Sequence[TableRef],
        max_candidates: Optional[int] = None,
    ) -> RoutingDecision:
        """The :class:`RoutingDecision` for ``question`` over ``refs``.

        ``refs`` must be in registration order (the deterministic
        tie-break); :meth:`TableCatalog.refs` provides exactly that.
        A per-call ``max_candidates`` overrides the router default
        (``None`` defers to it); any cap takes the heap-selection path,
        whose candidates are exactly the first N of the full ranking
        (property-tested in ``tests/test_retrieval.py``).
        """
        cap = self.max_candidates if max_candidates is None else max_candidates
        if cap is not None:
            if cap < 1:
                raise ValueError(f"max_candidates must be >= 1, got {cap}")
            return self._route_top(question, refs, cap)
        hits: Dict[str, RetrievalHit] = self.index.score_question(question)
        scored = [
            ShardScore(
                ref=ref,
                score=hits[ref.digest].score if ref.digest in hits else 0.0,
                matched=hits[ref.digest].matched if ref.digest in hits else (),
            )
            for ref in refs
        ]
        # Stable sort: equal scores keep registration order.
        ranked = sorted(scored, key=lambda shard: -shard.score)
        candidates: List[TableRef] = [
            shard.ref for shard in ranked if shard.hit
        ]
        fallback = not candidates
        if fallback:
            candidates = [ref for ref in refs]
        kept = {ref.digest for ref in candidates}
        pruned = [ref for ref in refs if ref.digest not in kept]
        return RoutingDecision(
            question=question,
            scored=tuple(ranked),
            candidates=tuple(candidates),
            pruned=tuple(pruned),
            fallback=fallback,
        )

    def _route_top(
        self, question: str, refs: Sequence[TableRef], cap: int
    ) -> RoutingDecision:
        """Capped routing: heap-select the top ``cap`` hits, skip the rest.

        The uncapped path scores, labels and fully sorts every shard —
        O(shards log shards) with per-shard matched-term lists — only to
        keep N of them.  Here scoring is label-free
        (:meth:`CorpusIndex.score_digests`), selection is
        ``heapq.nlargest`` over ``(score, -registration_position)`` keys
        — the exact ranking order of the full sort, so the survivors are
        precisely ``full_ranking[:cap]`` — and matched-term explanations
        are computed for the survivors alone.  Zero hits degrades to the
        identical full-broadcast decision the uncapped path produces.
        """
        scores = self.index.score_digests(question)
        entries = [
            (scores[ref.digest], -position, ref)
            for position, ref in enumerate(refs)
            if scores.get(ref.digest, 0.0) > 0.0
        ]
        if not entries:
            # Guaranteed fallback, byte-identical to the uncapped one:
            # every shard scored zero, ranked in registration order.
            scored = tuple(
                ShardScore(ref=ref, score=0.0, matched=()) for ref in refs
            )
            return RoutingDecision(
                question=question,
                scored=scored,
                candidates=tuple(refs),
                pruned=(),
                fallback=True,
            )
        # (score, -position) never ties across shards (positions are
        # unique), so the ref is never compared and nlargest's order is
        # exactly (score desc, registration order asc).
        top = heapq.nlargest(cap, entries, key=lambda entry: entry[:2])
        matched = self.index.matched_terms(
            question, [entry[2].digest for entry in top]
        )
        ranked = tuple(
            ShardScore(
                ref=ref, score=score, matched=matched.get(ref.digest, ())
            )
            for score, _neg_position, ref in top
        )
        kept = {shard.ref.digest for shard in ranked}
        return RoutingDecision(
            question=question,
            scored=ranked,
            candidates=tuple(shard.ref for shard in ranked),
            pruned=tuple(ref for ref in refs if ref.digest not in kept),
            fallback=False,
        )


@dataclass(frozen=True)
class ShardSetProposal:
    """One candidate shard *set*: jointly covers more than any member.

    ``covered`` / ``missing`` partition the question's coverable terms
    (the :meth:`CorpusIndex.term_coverage` keys); ``score`` is the sum
    of the members' individual retrieval scores — a tie-break, never a
    coverage substitute.
    """

    refs: Tuple[TableRef, ...]
    covered: Tuple[str, ...]
    missing: Tuple[str, ...]
    score: float

    @property
    def digests(self) -> Tuple[str, ...]:
        return tuple(ref.digest for ref in self.refs)

    @property
    def complete(self) -> bool:
        return not self.missing


@dataclass(frozen=True)
class SetRoutingDecision:
    """A single-shard :class:`RoutingDecision` plus shard-set proposals.

    ``single`` is the unchanged decision of the wrapped
    :class:`ShardRouter` — the single-shard path and the broadcast
    fallback are exactly what they were without set routing.
    ``proposals`` is non-empty only when the question has coverable
    terms, the route is not a fallback, and *no* candidate shard covers
    every coverable term on its own (``single_covered`` records that
    check): the situation where an answer may need two tables.
    """

    question: str
    single: RoutingDecision
    coverable: Tuple[str, ...]
    single_covered: bool
    proposals: Tuple[ShardSetProposal, ...]

    @property
    def proposed(self) -> bool:
        return bool(self.proposals)


class ShardSetRouter:
    """Proposes 2–3-shard candidate sets when no single shard suffices.

    A thin layer over a :class:`ShardRouter`: the wrapped router's
    decision is computed first and returned untouched (determinism and
    the fallback contract are inherited wholesale).  Only when that
    decision's candidates each leave some coverable question term
    uncovered does the set router enumerate small combinations of the
    top-``pool_size`` candidates, keep the non-redundant ones that cover
    strictly more terms than any single pool shard, and rank them by
    ``(fewest missing terms, smallest set, highest summed score,
    registration-rank order)`` — all deterministic, so a fixed (catalog,
    question) pair always proposes the same sets.

    Parameters
    ----------
    index:
        The corpus index (shared with the wrapped router).
    router:
        The single-shard router to delegate to; a default
        :class:`ShardRouter` over ``index`` when omitted.
    max_set_size:
        Largest proposed set (default 3, minimum 2).
    max_proposals:
        How many ranked proposals to keep (default 4).
    pool_size:
        How many top-ranked candidates combinations are drawn from
        (default 8) — bounds enumeration at C(8,2)+C(8,3) = 84 sets.
    """

    def __init__(
        self,
        index: CorpusIndex,
        router: Optional[ShardRouter] = None,
        max_set_size: int = 3,
        max_proposals: int = 4,
        pool_size: int = 8,
    ) -> None:
        if max_set_size < 2:
            raise ValueError(f"max_set_size must be >= 2, got {max_set_size}")
        if max_proposals < 1:
            raise ValueError(f"max_proposals must be >= 1, got {max_proposals}")
        if pool_size < 2:
            raise ValueError(f"pool_size must be >= 2, got {pool_size}")
        self.index = index
        self.router = router if router is not None else ShardRouter(index)
        self.max_set_size = max_set_size
        self.max_proposals = max_proposals
        self.pool_size = pool_size

    def route_sets(
        self,
        question: str,
        refs: Sequence[TableRef],
        max_candidates: Optional[int] = None,
    ) -> SetRoutingDecision:
        """The :class:`SetRoutingDecision` for ``question`` over ``refs``."""
        single = self.router.route(question, refs, max_candidates=max_candidates)
        coverage = self.index.term_coverage(question)
        coverable = tuple(sorted(coverage))
        if single.fallback or not coverable:
            return SetRoutingDecision(
                question=question,
                single=single,
                coverable=coverable,
                single_covered=False,
                proposals=(),
            )
        complete_digests = set(coverage[coverable[0]])
        for term in coverable[1:]:
            complete_digests &= coverage[term]
        if any(ref.digest in complete_digests for ref in single.candidates):
            # Some candidate covers the whole question alone: the
            # single-shard path handles it, no sets proposed.
            return SetRoutingDecision(
                question=question,
                single=single,
                coverable=coverable,
                single_covered=True,
                proposals=(),
            )
        pool = single.candidates[: self.pool_size]
        covered_by: Dict[str, FrozenSet[str]] = {
            ref.digest: frozenset(
                term for term in coverable if ref.digest in coverage[term]
            )
            for ref in pool
        }
        best_single = max(
            (len(covered) for covered in covered_by.values()), default=0
        )
        scores = {shard.ref.digest: shard.score for shard in single.scored}
        full = frozenset(coverable)
        ranked: List[Tuple[Tuple[int, int, float, Tuple[int, ...]], ShardSetProposal]] = []
        for size in range(2, min(self.max_set_size, len(pool)) + 1):
            for positions in combinations(range(len(pool)), size):
                members = tuple(pool[position] for position in positions)
                unions = [covered_by[member.digest] for member in members]
                union = frozenset().union(*unions)
                if len(union) <= best_single:
                    continue  # no better than the best shard alone
                redundant = any(
                    unions[i]
                    <= frozenset().union(
                        *(other for j, other in enumerate(unions) if j != i)
                    )
                    for i in range(len(unions))
                )
                if redundant:
                    continue  # a strict subset covers the same terms
                score = sum(scores.get(member.digest, 0.0) for member in members)
                ranked.append(
                    (
                        (len(full - union), len(members), -score, positions),
                        ShardSetProposal(
                            refs=members,
                            covered=tuple(sorted(union)),
                            missing=tuple(sorted(full - union)),
                            score=score,
                        ),
                    )
                )
        ranked.sort(key=lambda entry: entry[0])
        return SetRoutingDecision(
            question=question,
            single=single,
            coverable=coverable,
            single_covered=False,
            proposals=tuple(
                proposal for _key, proposal in ranked[: self.max_proposals]
            ),
        )
