#!/usr/bin/env python
"""Validate wire payloads against the committed JSON Schemas.

The CI wire-shape gate: any drift between what the server emits and the
committed schemas (``schemas/query_result.v2.json``,
``schemas/bench_parse.v3.json``, ``schemas/bench_churn.v1.json``,
``schemas/bench_discovery.v1.json``, ``schemas/bench_join.v1.json``)
fails the build.  The committed ``BENCH_parse.json``,
``BENCH_churn.json``, ``BENCH_discovery.json`` and ``BENCH_join.json``
artifacts are themselves fixtures: a bench payload that stops matching
its schema fails here before it ever lands.

Usage::

    # v2 QueryResult envelopes, one JSON object per line
    # (e.g. from `repro serve --self-test N --emit-results results.jsonl`)
    python scripts/validate_wire.py --schema v2 results.jsonl

    # a recorded v2 fixture (single JSON object per file)
    python scripts/validate_wire.py --schema v2 schemas/fixtures/*.v2.json

    # no arguments: validate the committed fixtures
    python scripts/validate_wire.py

    # validate, then require the same answers envelope by envelope
    # (e.g. one self-test per pool backend)
    python scripts/validate_wire.py --schema v2 --identical thread.jsonl process.jsonl

Files ending in ``.jsonl`` are treated as JSON lines; anything else as a
single JSON document.  Uses the ``jsonschema`` package when installed,
else the bundled subset validator in :mod:`repro.api.schema`.
``--identical`` compares v2 envelopes under
:meth:`~repro.api.QueryResult.canonical_dict`, which drops the fields two
runs may differ on (``timing``, ``cache``, ``request_id``,
``corpus_version``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import QueryResult  # noqa: E402
from repro.api import schema as wire_schema  # noqa: E402

SCHEMAS = {
    "v2": "query_result.v2.json",
    "bench-parse-v3": "bench_parse.v3.json",
    "bench-churn-v1": "bench_churn.v1.json",
    "bench-discovery-v1": "bench_discovery.v1.json",
    "bench-join-v1": "bench_join.v1.json",
}

FIXTURES = [
    ("v2", REPO_ROOT / "schemas" / "fixtures" / "query_result.v2.json"),
    ("v2", REPO_ROOT / "schemas" / "fixtures" / "query_result_composed.v2.json"),
    ("bench-parse-v3", REPO_ROOT / "BENCH_parse.json"),
    ("bench-churn-v1", REPO_ROOT / "BENCH_churn.json"),
    ("bench-discovery-v1", REPO_ROOT / "BENCH_discovery.json"),
    ("bench-join-v1", REPO_ROOT / "BENCH_join.json"),
]


def validate_file(path: Path, schema_name: str) -> int:
    """Validate one file; returns the number of payloads checked."""
    schema = wire_schema.load_schema(SCHEMAS[schema_name])
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        return wire_schema.validate_lines(text.splitlines(), schema)
    wire_schema.validate_payload(json.loads(text), schema)
    return 1


def canonical_envelopes(path: Path) -> list:
    """A JSON-lines file's v2 envelopes, run-dependent fields dropped."""
    return [
        QueryResult.from_dict(json.loads(line)).canonical_dict()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def first_difference(paths) -> str:
    """Where the files' canonical envelopes part ways ('' if nowhere)."""
    reference = canonical_envelopes(paths[0])
    for path in paths[1:]:
        other = canonical_envelopes(path)
        if len(other) != len(reference):
            return f"{path} has {len(other)} envelopes, {paths[0]} has {len(reference)}"
        for number, (left, right) in enumerate(zip(reference, other), start=1):
            if left != right:
                return f"envelope {number} of {path} differs from {paths[0]}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--schema", choices=sorted(SCHEMAS), help="which schema the files follow"
    )
    parser.add_argument(
        "--identical", action="store_true",
        help="also require every file's v2 envelopes to equal the first "
        "file's, envelope by envelope, under QueryResult.canonical_dict",
    )
    parser.add_argument(
        "files", nargs="*", type=Path,
        help="payload files (.jsonl = JSON lines); default: committed fixtures",
    )
    args = parser.parse_args(argv)

    targets = (
        [(args.schema, path) for path in args.files] if args.files else FIXTURES
    )
    if args.files and not args.schema:
        parser.error("--schema is required when files are given")
    if args.identical and (args.schema != "v2" or len(args.files) < 2):
        parser.error("--identical needs --schema v2 and at least two files")

    failures = 0
    for schema_name, path in targets:
        try:
            checked = validate_file(path, schema_name)
        except (wire_schema.SchemaValidationError, OSError, json.JSONDecodeError) as error:
            print(f"FAIL {path} [{schema_name}]: {error}")
            failures += 1
            continue
        print(f"ok   {path} [{schema_name}]: {checked} payload(s)")
    if args.identical and not failures:
        difference = first_difference(args.files)
        if difference:
            print(f"FAIL answers differ: {difference}")
            failures += 1
        else:
            print(f"ok   {len(args.files)} files carry identical answers")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
