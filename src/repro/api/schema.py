"""Wire-shape validation against the committed JSON Schemas.

The v2 :class:`~repro.api.envelope.QueryResult` envelope is committed as
``schemas/query_result.v2.json``; CI validates live ``repro serve
--self-test`` output and the recorded fixtures against it, so wire
drift fails the build instead of surprising a client.

Validation uses the ``jsonschema`` package when importable and falls
back to the bundled :func:`validate_subset` — a deliberately small
validator covering exactly the keywords our schemas use (``type``,
``properties``, ``required``, ``additionalProperties``, ``items``,
``enum``, ``anyOf``, ``const``) — so the check runs on bare-stdlib
environments too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List

#: schemas/ lives at the repository root, three levels above this file
#: (src/repro/api/schema.py); installed layouts fall back to a copy
#: shipped next to the package if one exists.
_SCHEMA_DIRS = (
    Path(__file__).resolve().parents[3] / "schemas",
    Path(__file__).resolve().parent / "schemas",
)


class SchemaValidationError(ValueError):
    """A payload does not conform to its schema (message lists paths)."""


def schema_path(name: str) -> Path:
    for root in _SCHEMA_DIRS:
        candidate = root / name
        if candidate.exists():
            return candidate
    raise FileNotFoundError(
        f"schema {name!r} not found under {', '.join(str(d) for d in _SCHEMA_DIRS)}"
    )


def load_schema(name: str) -> Dict[str, Any]:
    """Load a committed schema by file name (e.g. ``query_result.v2.json``)."""
    return json.loads(schema_path(name).read_text(encoding="utf-8"))


# -- the bundled subset validator --------------------------------------------

_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    ),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def _resolve_ref(ref: str, root: Dict[str, Any]) -> Dict[str, Any]:
    if not ref.startswith("#/"):
        raise SchemaValidationError(f"unsupported $ref {ref!r} (only #/ paths)")
    node: Any = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def _subset_errors(
    payload: Any, schema: Dict[str, Any], path: str, root: Dict[str, Any]
) -> List[str]:
    if "$ref" in schema:
        schema = _resolve_ref(schema["$ref"], root)
    errors: List[str] = []
    if "const" in schema and payload != schema["const"]:
        errors.append(f"{path}: expected const {schema['const']!r}, got {payload!r}")
    if "enum" in schema and payload not in schema["enum"]:
        errors.append(f"{path}: {payload!r} not in enum {schema['enum']!r}")
    if "anyOf" in schema:
        branches = [
            _subset_errors(payload, branch, path, root) for branch in schema["anyOf"]
        ]
        if not any(not branch for branch in branches):
            errors.append(f"{path}: matched no anyOf branch")
        return errors
    declared = schema.get("type")
    if declared is not None:
        types = declared if isinstance(declared, list) else [declared]
        if not any(_TYPE_CHECKS[t](payload) for t in types):
            errors.append(
                f"{path}: expected type {'/'.join(types)}, "
                f"got {type(payload).__name__}"
            )
            return errors
    if isinstance(payload, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in payload:
                errors.append(f"{path}: missing required key {key!r}")
        if schema.get("additionalProperties") is False:
            for key in payload:
                if key not in properties:
                    errors.append(f"{path}: unexpected key {key!r}")
        for key, sub_schema in properties.items():
            if key in payload:
                errors.extend(
                    _subset_errors(payload[key], sub_schema, f"{path}.{key}", root)
                )
    if isinstance(payload, list) and "items" in schema:
        for index, item in enumerate(payload):
            errors.extend(
                _subset_errors(item, schema["items"], f"{path}[{index}]", root)
            )
    return errors


def validate_subset(payload: Any, schema: Dict[str, Any]) -> None:
    """Validate with the bundled keyword subset; raise on the first report."""
    errors = _subset_errors(payload, schema, "$", schema)
    if errors:
        raise SchemaValidationError("; ".join(errors[:10]))


def validate_payload(payload: Any, schema: Dict[str, Any]) -> None:
    """Validate one payload, preferring ``jsonschema`` when installed."""
    try:
        import jsonschema
    except ImportError:
        validate_subset(payload, schema)
        return
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as error:
        raise SchemaValidationError(error.message) from error


def validate_query_result(payload: Dict[str, Any]) -> None:
    """Validate a serialized v2 :class:`QueryResult` against its schema."""
    validate_payload(payload, load_schema("query_result.v2.json"))


def validate_lines(
    lines: Iterable[str], schema: Dict[str, Any]
) -> int:
    """Validate a JSON-lines stream; returns the number of payloads checked."""
    checked = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise SchemaValidationError(f"line {number}: not JSON ({error})")
        try:
            validate_payload(payload, schema)
        except SchemaValidationError as error:
            raise SchemaValidationError(f"line {number}: {error}")
        checked += 1
    return checked
