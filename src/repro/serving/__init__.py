"""Async serving over a multi-table catalog (the deployment front end).

Builds the paper's interactive-service shape out of stdlib asyncio:
:class:`~repro.serving.server.AsyncServer` is a micro-batching
dispatcher multiplexing concurrent sessions over the thread/process
pool backends via ``run_in_executor``, plus a JSON-lines TCP endpoint
speaking the v2 wire protocol of :mod:`repro.api.wire`.  Every question
enters through :meth:`~repro.serving.server.AsyncServer.aquery` and
comes back as the typed :class:`~repro.api.QueryResult` envelope.

The routing/eviction substrate lives in :mod:`repro.tables.catalog` and
:mod:`repro.retrieval`; the request/response envelope and the
:class:`~repro.api.ReproEngine` façade live in :mod:`repro.api`; this
package adds concurrency only.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        ".server": ["AsyncServer", "ServerClosed", "ServerStats"],
    },
)

__all__ = [
    "AsyncServer",
    "ServerClosed",
    "ServerStats",
]
