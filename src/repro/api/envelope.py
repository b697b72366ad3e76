"""The typed, versioned request/response envelope of the unified API.

One request shape in, one result shape out — across the library call
(:class:`~repro.api.engine.ReproEngine`), the CLI and the v2 wire
protocol.  Both sides are plain dataclasses with lossless JSON codecs:

* :class:`QueryRequest` — question + target spec (explicit table ref,
  corpus-wide, or auto) + the options every layer used to plumb by hand
  (``k``, ``prune``, ``request_id``, ``deadline_ms``, ``max_candidates``);
* :class:`QueryResult` — ranked candidates with utterance/answer/score,
  the routing decision, the answering shard, timing and cache counters,
  or a coded :class:`~repro.api.errors.ErrorCode` failure.

The codec contract (locked by ``tests/test_api.py``)::

    QueryResult.from_dict(result.to_dict()) == result

``to_dict`` always emits every key (a stable shape —
``schemas/query_result.v2.json`` is its committed JSON Schema), and
``from_dict`` restores the exact value, floats included.  Wall-clock
fields (``timing``) and run-dependent counters (``cache``) are the only
parts that differ between two executions of the same question;
:meth:`QueryResult.canonical_dict` strips them, which is how the test
suite asserts the TCP path bit-identical to the in-process engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .errors import ApiError, ErrorCode, bad_request

#: Version stamp of the serialized :class:`QueryResult` envelope.
ENVELOPE_VERSION = 2

#: How a request may name its target: unresolved string (table name,
#: digest, digest prefix) or an already-resolved ref/table object from
#: :mod:`repro.tables` (serialized as its content digest).
TargetLike = Union[str, "object", None]

#: The three target modes: ``"table"`` (explicit ref, required),
#: ``"any"`` (corpus-wide ranking), ``"auto"`` (table when a target is
#: given, corpus-wide otherwise).
TARGET_MODES = ("auto", "table", "any")


def _target_key(target: TargetLike) -> Optional[str]:
    """Serialize a target spec to its wire string (digest preferred)."""
    if target is None or isinstance(target, str):
        return target
    digest = getattr(target, "digest", None)
    if isinstance(digest, str):  # TableRef
        return digest
    fingerprint = getattr(target, "fingerprint", None)
    if fingerprint is not None:  # Table
        return fingerprint.digest
    raise bad_request(f"cannot use a {type(target).__name__} as a query target")


@dataclass(frozen=True)
class QueryRequest:
    """One question plus everything needed to route and rank it."""

    question: str
    target: TargetLike = None
    mode: str = "auto"
    k: Optional[int] = None
    prune: Optional[bool] = None
    request_id: Optional[str] = None
    #: Optional end-to-end budget in milliseconds.  The serving layer
    #: starts the clock when it accepts the request; a request whose
    #: budget expires — in the dispatcher queue or on a hung worker —
    #: returns a coded ``TIMEOUT`` error instead of an answer.
    deadline_ms: Optional[int] = None
    #: Optional top-N routing cap for corpus-wide requests: at most this
    #: many highest-ranked shards are parsed (the first N of the router's
    #: ranking).
    #: ``None`` keeps every retrieval hit — the default, and the only
    #: setting the no-lost-answers contract is unconditional for.
    max_candidates: Optional[int] = None

    def validate(self) -> None:
        """Raise a coded ``BAD_REQUEST`` on any malformed field."""
        if not isinstance(self.question, str) or not self.question.strip():
            raise bad_request("missing question")
        if self.k is not None and (isinstance(self.k, bool) or not isinstance(self.k, int)):
            raise bad_request("k must be an integer")
        if self.k is not None and self.k < 1:
            raise bad_request("k must be >= 1")
        if self.prune is not None and not isinstance(self.prune, bool):
            raise bad_request("prune must be a boolean")
        if self.mode not in TARGET_MODES:
            raise bad_request(
                f"mode must be one of {', '.join(TARGET_MODES)}, got {self.mode!r}"
            )
        if self.mode == "table" and self.target is None:
            raise bad_request("mode 'table' requires a target")
        if self.mode == "any" and self.target is not None:
            raise bad_request("mode 'any' does not take a target")
        if self.deadline_ms is not None and (
            isinstance(self.deadline_ms, bool)
            or not isinstance(self.deadline_ms, int)
        ):
            raise bad_request("deadline_ms must be an integer")
        if self.deadline_ms is not None and self.deadline_ms < 1:
            raise bad_request("deadline_ms must be >= 1")
        if self.max_candidates is not None and (
            isinstance(self.max_candidates, bool)
            or not isinstance(self.max_candidates, int)
        ):
            raise bad_request("max_candidates must be an integer")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise bad_request("max_candidates must be >= 1")

    @property
    def resolved_mode(self) -> str:
        """``"table"`` or ``"any"`` — the mode after ``auto`` resolution."""
        if self.mode == "auto":
            return "table" if self.target is not None else "any"
        return self.mode

    def to_dict(self) -> Dict[str, Any]:
        return {
            "question": self.question,
            "target": _target_key(self.target),
            "mode": self.mode,
            "k": self.k,
            "prune": self.prune,
            "request_id": self.request_id,
            "deadline_ms": self.deadline_ms,
            "max_candidates": self.max_candidates,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryRequest":
        """Decode a request dict; unknown keys raise ``BAD_REQUEST``."""
        if not isinstance(payload, Mapping):
            raise bad_request("expected a JSON object")
        known = {
            "question", "target", "table", "mode", "k", "prune", "request_id",
            "deadline_ms", "max_candidates",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise bad_request(f"unknown request fields: {', '.join(unknown)}")
        target = payload.get("target")
        if target is None:
            # ``table`` is accepted as an alias of ``target``: request
            # bodies written for the retired v1 wire still parse.
            target = payload.get("table")
        request = cls(
            question=payload.get("question"),
            target=target,
            mode=payload.get("mode", "auto"),
            k=payload.get("k"),
            prune=payload.get("prune"),
            request_id=payload.get("request_id"),
            deadline_ms=payload.get("deadline_ms"),
            max_candidates=payload.get("max_candidates"),
        )
        if request.mode is not None and not isinstance(request.mode, str):
            raise bad_request("mode must be a string")
        if request.target is not None and not isinstance(request.target, str):
            raise bad_request("target must be a string")
        if request.request_id is not None and not isinstance(request.request_id, str):
            raise bad_request("request_id must be a string")
        return request


@dataclass(frozen=True)
class ShardInfo:
    """The wire identity of one catalog shard (a serialized table ref)."""

    digest: str
    name: str
    rows: int
    columns: int

    @property
    def short(self) -> str:
        return self.digest[:12]

    @classmethod
    def from_ref(cls, ref) -> "ShardInfo":
        return cls(
            digest=ref.digest,
            name=ref.name,
            rows=ref.num_rows,
            columns=ref.num_columns,
        )

    @classmethod
    def from_table(cls, table) -> "ShardInfo":
        return cls(
            digest=table.fingerprint.digest,
            name=table.name,
            rows=table.num_rows,
            columns=table.num_columns,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "name": self.name,
            "rows": self.rows,
            "columns": self.columns,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ShardInfo":
        return cls(
            digest=payload["digest"],
            name=payload["name"],
            rows=payload["rows"],
            columns=payload["columns"],
        )


@dataclass(frozen=True)
class CandidateInfo:
    """One ranked candidate: answer, NL utterance, query, model score."""

    rank: int
    answer: Tuple[str, ...]
    utterance: Optional[str]
    sexpr: Optional[str]
    score: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "answer": list(self.answer),
            "utterance": self.utterance,
            "sexpr": self.sexpr,
            "score": self.score,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CandidateInfo":
        return cls(
            rank=payload["rank"],
            answer=tuple(payload["answer"]),
            utterance=payload["utterance"],
            sexpr=payload["sexpr"],
            score=payload["score"],
        )


@dataclass(frozen=True)
class RankedShard:
    """One parsed shard in a corpus-wide ranking (best first)."""

    shard: ShardInfo
    answer: Tuple[str, ...]
    score: Optional[float]
    retrieval_score: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard.to_dict(),
            "answer": list(self.answer),
            "score": self.score,
            "retrieval_score": self.retrieval_score,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RankedShard":
        return cls(
            shard=ShardInfo.from_dict(payload["shard"]),
            answer=tuple(payload["answer"]),
            score=payload["score"],
            retrieval_score=payload["retrieval_score"],
        )


@dataclass(frozen=True)
class ShardScoreInfo:
    """One shard's retrieval score in the routing decision."""

    digest: str
    name: str
    score: float
    matched: Tuple[str, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "name": self.name,
            "score": self.score,
            "matched": list(self.matched),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ShardScoreInfo":
        return cls(
            digest=payload["digest"],
            name=payload["name"],
            score=payload["score"],
            matched=tuple(payload["matched"]),
        )


@dataclass(frozen=True)
class RoutingInfo:
    """How the question reached its shard(s): the routing decision."""

    mode: str  # "table" | "any"
    pruned: bool
    fallback: bool
    shards_parsed: int
    shards_pruned: int
    scores: Tuple[ShardScoreInfo, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "pruned": self.pruned,
            "fallback": self.fallback,
            "shards_parsed": self.shards_parsed,
            "shards_pruned": self.shards_pruned,
            "scores": [scored.to_dict() for scored in self.scores],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RoutingInfo":
        return cls(
            mode=payload["mode"],
            pruned=payload["pruned"],
            fallback=payload["fallback"],
            shards_parsed=payload["shards_parsed"],
            shards_pruned=payload["shards_pruned"],
            scores=tuple(
                ShardScoreInfo.from_dict(scored) for scored in payload["scores"]
            ),
        )


@dataclass(frozen=True)
class ComposedInfo:
    """A cross-table composed answer with its join provenance.

    The wire face of :class:`~repro.compose.answer.ComposedAnswer`:
    the answer values, the composed query, and which rows of which
    shards produced it (primary answers, secondary restricts, joined on
    ``left_column = right_column``).  Additive v2 field — it appears
    only when the catalog actually composed, and the wall-clock
    ``seconds`` of the composition stays out (timing is run-dependent;
    the canonical projection keeps ``composed``).
    """

    answer: Tuple[str, ...]
    sexpr: str
    utterance: str
    primary: ShardInfo
    secondary: ShardInfo
    left_column: str
    right_column: str
    join_pairs: Tuple[Tuple[int, int], ...]
    retrieval_score: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "answer": list(self.answer),
            "sexpr": self.sexpr,
            "utterance": self.utterance,
            "provenance": {
                "primary": self.primary.to_dict(),
                "secondary": self.secondary.to_dict(),
                "on": {"left": self.left_column, "right": self.right_column},
                "join_pairs": [list(pair) for pair in self.join_pairs],
            },
            "retrieval_score": self.retrieval_score,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ComposedInfo":
        provenance = payload["provenance"]
        return cls(
            answer=tuple(payload["answer"]),
            sexpr=payload["sexpr"],
            utterance=payload["utterance"],
            primary=ShardInfo.from_dict(provenance["primary"]),
            secondary=ShardInfo.from_dict(provenance["secondary"]),
            left_column=provenance["on"]["left"],
            right_column=provenance["on"]["right"],
            join_pairs=tuple(
                (int(pair[0]), int(pair[1]))
                for pair in provenance["join_pairs"]
            ),
            retrieval_score=payload["retrieval_score"],
        )


@dataclass(frozen=True)
class TimingInfo:
    """Wall-clock accounting (excluded from canonical comparisons)."""

    parse_seconds: float
    explain_seconds: float
    total_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "parse_seconds": self.parse_seconds,
            "explain_seconds": self.explain_seconds,
            "total_seconds": self.total_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TimingInfo":
        return cls(
            parse_seconds=payload["parse_seconds"],
            explain_seconds=payload["explain_seconds"],
            total_seconds=payload["total_seconds"],
        )


@dataclass(frozen=True)
class ErrorInfo:
    """A coded failure inside a result envelope."""

    code: ErrorCode
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {"code": self.code.value, "message": self.message}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ErrorInfo":
        return cls(code=ErrorCode(payload["code"]), message=payload["message"])

    @classmethod
    def from_error(cls, error: ApiError) -> "ErrorInfo":
        return cls(code=error.code, message=error.message)

    def to_exception(self) -> ApiError:
        return ApiError(self.code, self.message)


@dataclass(frozen=True)
class QueryResult:
    """The one result envelope every query surface returns.

    ``ok`` is true iff ``error`` is ``None``.  Error results may still
    carry routing metadata (a ``PARSE_FAILURE`` reports which shards were
    tried); pure request errors (``BAD_REQUEST``, ``UNKNOWN_TABLE``) have
    empty payload fields.  ``raw`` holds the in-process
    :class:`~repro.interface.nl_interface.InterfaceResponse` /
    :class:`~repro.tables.catalog.CatalogAnswer` when the result was
    produced locally (rich rendering for the CLI); it never crosses the
    wire and never takes part in equality.
    """

    question: str
    ok: bool
    answer: Tuple[str, ...] = ()
    request_id: Optional[str] = None
    error: Optional[ErrorInfo] = None
    shard: Optional[ShardInfo] = None
    candidates: Tuple[CandidateInfo, ...] = ()
    ranked: Tuple[RankedShard, ...] = ()
    routing: Optional[RoutingInfo] = None
    timing: Optional[TimingInfo] = None
    cache: Optional[Dict[str, Any]] = None
    #: The catalog's monotonic corpus version this result was computed
    #: against (``None`` when no catalog was involved).  Additive v2
    #: wire field: stale reads — a result pinned to a version an update
    #: has since superseded — are observable over the wire.
    corpus_version: Optional[int] = None
    #: The cross-table composed answer, when the catalog's set router
    #: proposed shard sets and composition succeeded.  Additive v2 wire
    #: field; part of the answer, so :meth:`canonical_dict` keeps it.
    composed: Optional[ComposedInfo] = None
    raw: Optional[object] = field(default=None, compare=False, repr=False)

    @property
    def top(self) -> Optional[CandidateInfo]:
        return self.candidates[0] if self.candidates else None

    @property
    def error_code(self) -> Optional[ErrorCode]:
        return self.error.code if self.error is not None else None

    def raise_for_error(self) -> "QueryResult":
        """Raise the coded :class:`ApiError` when this is a failure."""
        if self.error is not None:
            raise self.error.to_exception()
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The versioned wire form — every key always present."""
        return {
            "v": ENVELOPE_VERSION,
            "question": self.question,
            "ok": self.ok,
            "request_id": self.request_id,
            "answer": list(self.answer),
            "error": self.error.to_dict() if self.error is not None else None,
            "shard": self.shard.to_dict() if self.shard is not None else None,
            "candidates": [candidate.to_dict() for candidate in self.candidates],
            "ranked": [ranked.to_dict() for ranked in self.ranked],
            "routing": self.routing.to_dict() if self.routing is not None else None,
            "timing": self.timing.to_dict() if self.timing is not None else None,
            "cache": self.cache,
            "corpus_version": self.corpus_version,
            "composed": self.composed.to_dict() if self.composed is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryResult":
        if not isinstance(payload, Mapping):
            raise bad_request("expected a JSON object")
        version = payload.get("v")
        if version != ENVELOPE_VERSION:
            raise ApiError(
                ErrorCode.UNSUPPORTED_VERSION,
                f"unsupported result envelope version {version!r} "
                f"(this codec speaks v{ENVELOPE_VERSION})",
            )
        error = payload.get("error")
        shard = payload.get("shard")
        routing = payload.get("routing")
        timing = payload.get("timing")
        composed = payload.get("composed")
        return cls(
            question=payload["question"],
            ok=payload["ok"],
            answer=tuple(payload.get("answer", ())),
            request_id=payload.get("request_id"),
            error=ErrorInfo.from_dict(error) if error is not None else None,
            shard=ShardInfo.from_dict(shard) if shard is not None else None,
            candidates=tuple(
                CandidateInfo.from_dict(candidate)
                for candidate in payload.get("candidates", ())
            ),
            ranked=tuple(
                RankedShard.from_dict(ranked) for ranked in payload.get("ranked", ())
            ),
            routing=RoutingInfo.from_dict(routing) if routing is not None else None,
            timing=TimingInfo.from_dict(timing) if timing is not None else None,
            cache=dict(payload["cache"]) if payload.get("cache") is not None else None,
            corpus_version=payload.get("corpus_version"),
            composed=(
                ComposedInfo.from_dict(composed) if composed is not None else None
            ),
        )

    def canonical_dict(self) -> Dict[str, Any]:
        """The run-independent projection of :meth:`to_dict`.

        Strips the fields two executions of the same deterministic
        question legitimately differ on — wall clock (``timing``),
        cache counters (``cache``), the caller-chosen ``request_id``
        and the acceptance-time ``corpus_version`` stamp (a property
        of *when* the request was observed, not of the answer) —
        leaving exactly what must be bit-identical between the
        in-process engine and the TCP path.
        """
        payload = self.to_dict()
        payload.pop("timing")
        payload.pop("cache")
        payload.pop("request_id")
        payload.pop("corpus_version")
        return payload

    def without_raw(self) -> "QueryResult":
        return replace(self, raw=None) if self.raw is not None else self
