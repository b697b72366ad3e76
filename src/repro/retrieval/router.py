"""The shard router: deterministic scoring, pruning, set proposals, the fallback.

:class:`ShardRouter` derives every routing decision from one
:meth:`~repro.retrieval.corpus_index.CorpusIndex.probe` of the question:
which shards to parse, in what order, and why (:class:`RoutingDecision`),
and, for :meth:`ShardRouter.route_sets`, which 2–3-shard sets jointly
cover the terms no single candidate covers (:class:`SetRoutingDecision`).
Two guarantees the rest of the system builds on:

* **Determinism** — shards are ranked by ``(retrieval score desc,
  registration order asc)``; the score itself is deterministic (see the
  index), so a fixed (catalog, question) pair always routes the same.
  A ``max_candidates`` cap keeps the first N of that same ranking.
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
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from ..tables.catalog import TableRef
from .corpus_index import CorpusIndex, TermHit

#: Largest proposed shard set.
MAX_SET_SIZE = 3
#: How many top-ranked candidates set proposals are drawn from: bounds
#: enumeration at C(8,2) + C(8,3) = 84 sets.
SET_POOL_SIZE = 8
#: How many ranked set proposals :meth:`ShardRouter.route_sets` keeps
#: unless the caller asks for another number.
MAX_PROPOSALS = 4


class ShardScore(NamedTuple):
    """One shard's retrieval outcome for one question.

    A named tuple, not a frozen dataclass: an uncapped or fallback
    decision reports one per registered shard, and a named tuple builds
    in under half the time (0.16 against 0.41 ms per 500, Python 3.11 on
    a 2-CPU host).  Its ``repr`` is the one the dataclass had.
    """

    ref: TableRef
    score: float
    matched: Tuple[str, ...]


@dataclass(frozen=True)
class RoutingDecision:
    """Which shards a question will be parsed on, and why.

    ``scored`` ranks shards by (score desc, registration order asc):
    *every* registered shard on an uncapped or fallback route, or — when
    a ``max_candidates`` cap kept the first N of that ranking — just the
    surviving candidates (a thousand-shard corpus must not pay for a
    thousand-entry explanation of a ten-shard decision).  Each entry's
    ``matched`` labels are the question terms that hit that shard's
    postings.
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

    def is_candidate(self, digest: str) -> bool:
        return any(ref.digest == digest for ref in self.candidates)


@dataclass(frozen=True)
class ShardSetProposal:
    """One candidate shard *set*: jointly covers more than any member.

    ``covered`` / ``missing`` partition the question's coverable terms
    (the labels of its :meth:`CorpusIndex.probe` hits); ``score`` is the sum
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

    ``single`` is exactly :meth:`ShardRouter.route`'s decision — the
    single-shard path and the broadcast fallback are what they are
    without set routing.
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


class ShardRouter:
    """Routes questions to catalog shards through a :class:`CorpusIndex`.

    Every decision reads the index once: :meth:`route` and
    :meth:`route_sets` each take one :meth:`CorpusIndex.probe` and derive
    scores, ranking, matched labels and term coverage from it.  ``refs``
    must be in registration order (the deterministic tie-break);
    :meth:`TableCatalog.refs` provides exactly that.
    """

    def __init__(self, index: CorpusIndex) -> None:
        self.index = index

    def route(
        self,
        question: str,
        refs: Sequence[TableRef],
        max_candidates: Optional[int] = None,
    ) -> RoutingDecision:
        """The :class:`RoutingDecision` for ``question`` over ``refs``.

        ``max_candidates`` keeps only the N highest-ranked hits; ``None``
        keeps every hit, which is what the fallback contract is stated
        for (a cap trades recall for work and can drop the broadcast
        winner).
        """
        hits = self.index.probe(question)
        return self._decide(question, refs, max_candidates, hits)

    def route_sets(
        self,
        question: str,
        refs: Sequence[TableRef],
        max_candidates: Optional[int] = None,
        max_proposals: Optional[int] = None,
    ) -> SetRoutingDecision:
        """The :class:`SetRoutingDecision` for ``question`` over ``refs``.

        Its ``single`` is exactly :meth:`route`'s decision, so the
        single-shard path and the broadcast fallback are what they are
        without set routing.  Only when every candidate leaves some
        coverable question term uncovered are small combinations of the
        top :data:`SET_POOL_SIZE` candidates enumerated: the
        non-redundant ones that cover strictly more terms than any single
        pool shard are kept, ranked by ``(fewest missing terms, smallest
        set, highest summed score, registration-rank order)``, and the
        first ``max_proposals`` (default :data:`MAX_PROPOSALS`) returned.
        """
        limit = MAX_PROPOSALS if max_proposals is None else max_proposals
        if limit < 1:
            raise ValueError(f"max_proposals must be >= 1, got {limit}")
        hits = self.index.probe(question)
        single = self._decide(question, refs, max_candidates, hits)
        coverage = {label: digests for label, _weight, digests in hits}
        coverable = tuple(sorted(coverage))
        if single.fallback or not coverable:
            return SetRoutingDecision(
                question=question,
                single=single,
                coverable=coverable,
                single_covered=False,
                proposals=(),
            )
        complete_digests = frozenset.intersection(*coverage.values())
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
        pool = single.candidates[:SET_POOL_SIZE]
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
        for size in range(2, min(MAX_SET_SIZE, len(pool)) + 1):
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
            proposals=tuple(proposal for _key, proposal in ranked[:limit]),
        )

    @staticmethod
    def _decide(
        question: str,
        refs: Sequence[TableRef],
        cap: Optional[int],
        hits: Sequence[TermHit],
    ) -> RoutingDecision:
        """One probe's :class:`RoutingDecision`: rank, keep the first ``cap``.

        ``heapq.nlargest`` over ``(score, -registration position)`` keys
        is the full ranking order (positions are unique, so the ref is
        never compared), so a capped decision's candidates are exactly
        the first N of the uncapped ranking (property-tested in
        ``tests/test_retrieval.py``).  Matched labels are built for the
        reported hits only: a thousand-shard corpus does not pay for a
        thousand-entry explanation of a ten-shard decision.  Zero hits
        degrade to the full broadcast, capped or not.
        """
        if cap is not None and cap < 1:
            raise ValueError(f"max_candidates must be >= 1, got {cap}")
        scores: Dict[str, float] = {}
        for _label, weight, digests in hits:
            for digest in digests:
                scores[digest] = scores.get(digest, 0.0) + weight
        entries = [
            (scores[ref.digest], -position, ref)
            for position, ref in enumerate(refs)
            if ref.digest in scores
        ]
        if not entries:
            # Guaranteed fallback: every shard scored zero, ranked in
            # registration order.
            return RoutingDecision(
                question=question,
                scored=tuple(ShardScore(ref, 0.0, ()) for ref in refs),
                candidates=tuple(refs),
                pruned=(),
                fallback=True,
            )
        top = heapq.nlargest(
            len(entries) if cap is None else cap,
            entries,
            key=lambda entry: entry[:2],
        )
        reported = {ref.digest for _score, _neg_position, ref in top}
        matched: Dict[str, List[str]] = {}
        for label, _weight, digests in hits:
            for digest in reported & digests:
                matched.setdefault(digest, []).append(label)
        ranked = [
            ShardScore(
                ref=ref, score=score, matched=tuple(sorted(matched[ref.digest]))
            )
            for score, _neg_position, ref in top
        ]
        candidates = tuple(shard.ref for shard in ranked)
        if cap is None:
            # Uncapped: every shard is reported, the zero-score ones last
            # in registration order.
            ranked.extend(
                ShardScore(ref, 0.0, ())
                for ref in refs
                if ref.digest not in scores
            )
        return RoutingDecision(
            question=question,
            scored=tuple(ranked),
            candidates=candidates,
            pruned=tuple(ref for ref in refs if ref.digest not in reported),
            fallback=False,
        )
