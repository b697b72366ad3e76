"""Async serving over a multi-table catalog (the deployment front end).

Builds the paper's interactive-service shape out of stdlib asyncio:

* :class:`~repro.serving.server.AsyncServer` — micro-batching dispatcher
  multiplexing concurrent sessions over the thread/process pool backends
  via ``run_in_executor``, plus a JSON-lines TCP endpoint speaking the
  versioned wire protocol of :mod:`repro.api.wire` (legacy v1 lines stay
  byte-compatible; v2 lines carry the typed
  :class:`~repro.api.QueryResult` envelope with per-connection version
  negotiation);
* :func:`~repro.serving.bench.run_serving_bench` — the serving bench
  harness (sequential vs concurrent sessions vs hot-set eviction, plus
  the ``route`` regime: pruned vs broadcast corpus-wide ``ask_any``).

The routing/eviction substrate lives in :mod:`repro.tables.catalog` and
:mod:`repro.retrieval`; the request/response envelope and the
:class:`~repro.api.ReproEngine` façade live in :mod:`repro.api`; this
package adds concurrency only.
"""

from .bench import (
    SERVE_MODES,
    RouteTiming,
    ServeBenchReport,
    ServeModeTiming,
    run_serving_bench,
    split_sessions,
)
from .server import (
    AsyncServer,
    ServedAnswer,
    ServerClosed,
    ServerStats,
)

__all__ = [
    "AsyncServer",
    "ServedAnswer",
    "ServerClosed",
    "ServerStats",
    "SERVE_MODES",
    "RouteTiming",
    "ServeBenchReport",
    "ServeModeTiming",
    "run_serving_bench",
    "split_sessions",
]
