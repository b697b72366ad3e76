"""The JSON-lines wire protocol (v2, the typed envelope).

One request per line, one response line per request.  Requests carry
``{"v": 2, "id": ..., "op": ...}``; the ``query`` op (the default)
embeds the :class:`~repro.api.envelope.QueryRequest` fields and the
response carries the full serialized
:class:`~repro.api.envelope.QueryResult` (explanations, routing
decision, timing) under ``"result"``, plus a top-level coded
``"error"`` on failure::

    → {"v": 2, "id": 1, "op": "query", "question": "...", "target": "olympics"}
    ← {"v": 2, "id": 1, "ok": true, "result": {...QueryResult...}}
    ← {"v": 2, "id": 2, "ok": false, "error": {"code": "UNKNOWN_TABLE", ...}}

v2 is the only version.  A line without ``"v"`` is read as v2, any
other ``"v"`` is answered ``UNSUPPORTED_VERSION``, and ``{"op":
"hello"}`` reports ``versions: [2]`` to clients that negotiate.  Every
response — unparsable lines included — is a v2 envelope.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Union

from .envelope import ENVELOPE_VERSION, QueryRequest, QueryResult
from .errors import ApiError, ErrorCode, bad_request

#: Protocol versions the server answers.
PROTOCOL_VERSIONS = (2,)

#: Ops of the v2 vocabulary.
V2_OPS = ("hello", "ping", "list", "stats", "query")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Decode one raw wire line into a request object.

    Raises a coded ``BAD_REQUEST`` when the line is not a JSON object.
    """
    try:
        request = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise bad_request(f"bad request: {error}")
    if not isinstance(request, dict):
        raise bad_request("bad request: expected a JSON object")
    return request


def check_version(request: Dict[str, Any]) -> None:
    """Raise ``UNSUPPORTED_VERSION`` unless the line speaks v2.

    A line without ``"v"`` is read as v2.
    """
    version = request.get("v", 2)
    if not isinstance(version, int) or isinstance(version, bool) or (
        version not in PROTOCOL_VERSIONS
    ):
        raise ApiError(
            ErrorCode.UNSUPPORTED_VERSION,
            f"unsupported protocol version {version!r} "
            f"(supported: {', '.join(str(v) for v in PROTOCOL_VERSIONS)})",
        )


def query_request_from_wire(request: Dict[str, Any]) -> QueryRequest:
    """Decode the v2 ``query`` op's embedded :class:`QueryRequest`."""
    fields = {
        key: value
        for key, value in request.items()
        if key not in ("v", "id", "op")
    }
    return QueryRequest.from_dict(fields)


# -- payloads shared across transports ---------------------------------------


def table_listing(catalog) -> list:
    """The ``list`` op's per-shard entries (same shape on every surface)."""
    return [
        {
            "name": ref.name,
            "digest": ref.digest,
            "rows": ref.num_rows,
            "columns": ref.num_columns,
            "hot": catalog.is_hot(ref),
        }
        for ref in catalog.refs()
    ]


def stats_payload(catalog, server_stats: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The ``stats`` op's body: catalog counters + dispatcher counters.

    ``server_stats`` is ``None`` when no dispatcher fronts the catalog
    (the in-process client).
    """
    catalog_stats = dict(catalog.stats())
    catalog_stats.pop("parser", None)  # too verbose for the wire
    return {"catalog": catalog_stats, "server": server_stats}


# -- v2 response envelopes ---------------------------------------------------


def v2_result_response(
    result: QueryResult, request_id: Optional[Union[int, str]] = None
) -> Dict[str, Any]:
    """Wrap a :class:`QueryResult` in the v2 response envelope.

    ``ok`` mirrors ``result.ok``; error results surface their coded
    error at the top level *and* keep the full result (a
    ``PARSE_FAILURE`` still reports its routing metadata).
    """
    payload: Dict[str, Any] = {
        "v": ENVELOPE_VERSION,
        "id": request_id,
        "ok": result.ok,
        "result": result.to_dict(),
    }
    if result.error is not None:
        payload["error"] = result.error.to_dict()
    return payload


def v2_error_response(
    error: ApiError, request_id: Optional[Union[int, str]] = None
) -> Dict[str, Any]:
    """A v2 failure with no result (protocol-level errors)."""
    return {
        "v": ENVELOPE_VERSION,
        "id": request_id,
        "ok": False,
        "error": error.to_dict(),
    }


def v2_ok_response(
    request_id: Optional[Union[int, str]] = None, **fields: Any
) -> Dict[str, Any]:
    """A v2 success for the auxiliary ops (hello/ping/list/stats)."""
    payload: Dict[str, Any] = {"v": ENVELOPE_VERSION, "id": request_id, "ok": True}
    payload.update(fields)
    return payload
