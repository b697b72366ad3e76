"""The structured error taxonomy of the unified query API.

Before this module every layer reported failure its own way: the catalog
raised :class:`~repro.tables.catalog.CatalogError` with a free-form
message, the TCP endpoint shipped ``{"ok": false, "error": "<str>"}``,
and the CLI let tracebacks escape.  Clients had to match message
*strings* to tell "you typo'd the table name" from "the server is
broken".  :class:`ErrorCode` is the closed vocabulary every surface now
maps to; :class:`ApiError` carries a code + message pair across the
library boundary; :func:`classify_exception` is the single place an
arbitrary exception becomes a coded error.

The codes are stable wire strings (``error.code == "UNKNOWN_TABLE"`` on
the v2 protocol) — tests and clients assert on them, never on messages.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional


class ServerClosed(RuntimeError):
    """Raised by in-flight requests when the server shuts down under them.

    Defined here (not in :mod:`repro.serving`) so the error taxonomy can
    classify it without importing the serving layer; :mod:`repro.serving`
    re-exports it under the historical name.
    """


class ErrorCode(str, Enum):
    """Every way a query can fail, as a closed, wire-stable vocabulary."""

    #: The request itself is malformed: missing question, wrong option
    #: types, unparsable JSON, an oversized wire line.
    BAD_REQUEST = "BAD_REQUEST"
    #: The target spec names no registered table (name, digest or prefix).
    UNKNOWN_TABLE = "UNKNOWN_TABLE"
    #: The target spec matches more than one table (short digest prefix).
    AMBIGUOUS_TABLE = "AMBIGUOUS_TABLE"
    #: ``register()`` reused a taken name with different content; the
    #: caller who means "publish a new version" wants ``update()``.
    NAME_CONFLICT = "NAME_CONFLICT"
    #: The parser produced no executable candidate for the question.
    PARSE_FAILURE = "PARSE_FAILURE"
    #: The serving layer shut down while the request was in flight.
    SERVER_CLOSED = "SERVER_CLOSED"
    #: The request's deadline (``deadline_ms``) expired before an answer
    #: was produced — in the dispatcher queue or on a hung worker.
    TIMEOUT = "TIMEOUT"
    #: The server shed this request: its bounded dispatcher queue was
    #: full (``max_pending``).  Safe to retry with backoff.
    OVERLOADED = "OVERLOADED"
    #: The wire request's ``op`` is not in the protocol vocabulary.
    UNKNOWN_OP = "UNKNOWN_OP"
    #: The wire request asked for a protocol version the server lacks.
    UNSUPPORTED_VERSION = "UNSUPPORTED_VERSION"
    #: Anything else — a server-side invariant failed.
    INTERNAL = "INTERNAL"


class ApiError(Exception):
    """A coded failure crossing the API boundary.

    ``str(error)`` is the human message; :attr:`code` is what programs
    (and tests) branch on.
    """

    def __init__(self, code: ErrorCode, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message

    def to_dict(self) -> Dict[str, str]:
        return {"code": self.code.value, "message": self.message}

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "ApiError":
        return cls(ErrorCode(payload["code"]), str(payload.get("message", "")))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ApiError({self.code.value}, {self.message!r})"


def bad_request(message: str) -> ApiError:
    return ApiError(ErrorCode.BAD_REQUEST, message)


def timeout_error(message: str) -> ApiError:
    return ApiError(ErrorCode.TIMEOUT, message)


def overloaded_error(message: str) -> ApiError:
    return ApiError(ErrorCode.OVERLOADED, message)


#: Error codes a client may retry (with capped backoff + jitter): the
#: request never started executing, or re-executing it is side-effect
#: free.  ``TIMEOUT`` is deliberately absent — the caller's deadline is
#: already spent — and so is everything that would fail identically.
RETRYABLE_CODES = frozenset({ErrorCode.OVERLOADED, ErrorCode.SERVER_CLOSED})


def classify_exception(error: BaseException) -> ApiError:
    """Map an arbitrary exception onto the taxonomy.

    The one funnel through which stringly exceptions become coded
    errors — the engine, the wire protocol and the CLI all route their
    ``except`` clauses here so the mapping can never drift apart.

    Only exceptions that *name* a caller mistake classify as caller
    errors (the typed catalog refs, :class:`ApiError` itself).  A bare
    ``ValueError``/``TypeError`` escaping the parser or executor on a
    well-formed request is a server-side bug and reports ``INTERNAL`` —
    request-construction sites must raise coded ``BAD_REQUEST`` errors
    themselves (see :meth:`QueryRequest.validate`).  Non-catalog
    messages take the ``"TypeName: message"`` form.
    """
    # Imported lazily: repro.tables is a heavier import than this module
    # and the catalog itself imports nothing from repro.api.
    from ..perf.pool import DeadlineExceeded, WorkerFailed
    from ..tables.catalog import (
        AmbiguousTableError,
        CatalogError,
        NameConflictError,
        UnknownTableError,
    )

    if isinstance(error, ApiError):
        return error
    if isinstance(error, DeadlineExceeded):
        return ApiError(ErrorCode.TIMEOUT, str(error))
    if isinstance(error, WorkerFailed):
        return ApiError(ErrorCode.INTERNAL, str(error))
    if isinstance(error, UnknownTableError):
        return ApiError(ErrorCode.UNKNOWN_TABLE, str(error))
    if isinstance(error, AmbiguousTableError):
        return ApiError(ErrorCode.AMBIGUOUS_TABLE, str(error))
    if isinstance(error, NameConflictError):
        # A caller mistake with a precise remedy (use update()), unlike
        # the other CatalogErrors below.
        return ApiError(ErrorCode.NAME_CONFLICT, str(error))
    if isinstance(error, ServerClosed):
        return ApiError(ErrorCode.SERVER_CLOSED, f"{type(error).__name__}: {error}")
    if isinstance(error, TimeoutError):
        # socket.timeout is an alias of TimeoutError on 3.10+: a blocking
        # transport read ran out of budget.
        return ApiError(ErrorCode.TIMEOUT, f"{type(error).__name__}: {error}")
    if isinstance(error, ConnectionError):
        # Reset / refused / broken pipe: the peer is gone, not the request.
        return ApiError(ErrorCode.SERVER_CLOSED, f"{type(error).__name__}: {error}")
    if isinstance(error, CatalogError):
        # Registration collisions, unrehydratable shards: server-side
        # state problems, not something the caller spelled wrong.
        return ApiError(ErrorCode.INTERNAL, str(error))
    return ApiError(ErrorCode.INTERNAL, f"{type(error).__name__}: {error}")
