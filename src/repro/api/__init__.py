"""The unified query API: one request in, one typed result out.

Everything the reproduction can be asked — a question over one table, a
corpus-wide ranked search, a batch, a TCP round trip — goes through the
same typed, versioned envelope:

* :class:`~repro.api.envelope.QueryRequest` /
  :class:`~repro.api.envelope.QueryResult` — the request/response pair
  with lossless ``to_dict``/``from_dict`` JSON codecs
  (``QueryResult.from_dict(r.to_dict()) == r``) and a committed JSON
  Schema (``schemas/query_result.v2.json``);
* :class:`~repro.api.errors.ErrorCode` /
  :class:`~repro.api.errors.ApiError` — the structured error taxonomy
  that replaced stringly errors across the library, the CLI and the
  wire;
* :class:`~repro.api.engine.ReproEngine` — the façade (sync ``query`` /
  ``query_many``, async ``aquery``) that
  :class:`~repro.interface.NLInterface`,
  :class:`~repro.tables.catalog.TableCatalog`,
  :class:`~repro.interface.InterfaceSession` and
  :class:`~repro.serving.AsyncServer` are wired through;
* :class:`~repro.api.client.ReproClient` — the same client surface over
  an in-process engine or the v2 JSON-lines TCP protocol
  (:mod:`repro.api.wire`), so tests and benches exercise the exact
  consumer path.

Quick start::

    from repro.api import ReproEngine

    engine = ReproEngine(tables=[table])
    result = engine.query("which country hosted in 2004", target=table.name)
    result.answer            # ('Greece',)
    result.top.utterance     # the NL explanation of the winning query
    result.to_dict()         # the versioned wire envelope
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        ".client": ["ReproClient"],
        ".engine": [
            "ReproEngine", "error_result", "result_from_catalog_answer",
            "result_from_response", "result_from_served",
        ],
        ".envelope": [
            "ENVELOPE_VERSION", "CandidateInfo", "ComposedInfo", "ErrorInfo",
            "QueryRequest", "QueryResult", "RankedShard", "RoutingInfo", "ShardInfo",
            "ShardScoreInfo", "TimingInfo",
        ],
        ".errors": ["ApiError", "ErrorCode", "ServerClosed", "classify_exception"],
    },
)

__all__ = [
    "ENVELOPE_VERSION",
    "ApiError",
    "CandidateInfo",
    "ComposedInfo",
    "ErrorCode",
    "ErrorInfo",
    "QueryRequest",
    "QueryResult",
    "RankedShard",
    "ReproClient",
    "ReproEngine",
    "RoutingInfo",
    "ServerClosed",
    "ShardInfo",
    "ShardScoreInfo",
    "TimingInfo",
    "classify_exception",
    "error_result",
    "result_from_catalog_answer",
    "result_from_response",
    "result_from_served",
    "schema",
    "wire",
]
