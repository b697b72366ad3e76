"""The committed wire schema gates the envelope shape.

Live engine output, live server output and the recorded fixtures must
all validate against ``schemas/query_result.v2.json`` — the same check
CI runs via ``scripts/validate_wire.py``, so wire drift fails tier-1
before it fails the build.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import ReproEngine, schema as wire_schema

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def engine(olympics_table, medals_table):
    return ReproEngine(tables=[olympics_table, medals_table])


@pytest.fixture
def v2_schema():
    return wire_schema.load_schema("query_result.v2.json")


class TestLivePayloads:
    def test_v2_results_validate(self, engine, v2_schema):
        question = "which country hosted in 2004"
        results = [
            engine.query(question, target="olympics"),
            engine.query(question),
            engine.query(question, prune=False),
            engine.query("q", target="atlantis"),
            engine.query(""),
        ]
        for result in results:
            wire_schema.validate_payload(result.to_dict(), v2_schema)
            # The bundled subset validator agrees with jsonschema.
            wire_schema.validate_subset(result.to_dict(), v2_schema)

    def test_drift_is_caught(self, engine, v2_schema):
        payload = engine.query("which country hosted in 2004").to_dict()
        payload["surprise"] = 1
        with pytest.raises(wire_schema.SchemaValidationError):
            wire_schema.validate_payload(payload, v2_schema)
        with pytest.raises(wire_schema.SchemaValidationError):
            wire_schema.validate_subset(payload, v2_schema)
        missing = engine.query("which country hosted in 2004").to_dict()
        del missing["routing"]
        with pytest.raises(wire_schema.SchemaValidationError):
            wire_schema.validate_subset(missing, v2_schema)


class TestRecordedFixtures:
    """The committed fixtures are the frozen-shape regression corpus."""

    @pytest.mark.parametrize(
        "fixture,schema_name",
        [
            ("query_result.v2.json", "query_result.v2.json"),
            ("query_result_composed.v2.json", "query_result.v2.json"),
        ],
    )
    def test_fixture_validates(self, fixture, schema_name):
        path = REPO_ROOT / "schemas" / "fixtures" / fixture
        payload = json.loads(path.read_text(encoding="utf-8"))
        schema = wire_schema.load_schema(schema_name)
        wire_schema.validate_payload(payload, schema)
        wire_schema.validate_subset(payload, schema)

    def test_validate_lines_counts_and_reports(self, engine, v2_schema):
        lines = [
            json.dumps(engine.query("which country hosted in 2004").to_dict()),
            "",
            json.dumps(engine.query("q", target="atlantis").to_dict()),
        ]
        assert wire_schema.validate_lines(lines, v2_schema) == 2
        with pytest.raises(wire_schema.SchemaValidationError, match="line 1"):
            wire_schema.validate_lines(["{bad"], v2_schema)


@pytest.fixture
def validate_wire():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "validate_wire", REPO_ROOT / "scripts" / "validate_wire.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestValidateWireScript:
    def test_script_validates_the_committed_fixtures(self, validate_wire):
        assert validate_wire.main([]) == 0

    def test_script_fails_on_drift(self, tmp_path, engine, validate_wire):
        payload = engine.query("which country hosted in 2004").to_dict()
        payload["drifted"] = True
        drifted = tmp_path / "drifted.jsonl"
        drifted.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        assert validate_wire.main(["--schema", "v2", str(drifted)]) == 1

    def test_identical_ignores_run_fields_but_not_answers(
        self, tmp_path, engine, validate_wire
    ):
        questions = ["which country hosted in 2004", "what is the total of fiji"]
        payloads = [engine.query(question).to_dict() for question in questions]

        def write(name, envelopes):
            path = tmp_path / name
            path.write_text(
                "".join(json.dumps(payload) + "\n" for payload in envelopes),
                encoding="utf-8",
            )
            return str(path)

        first = write("first.jsonl", payloads)
        rerun = [dict(payload) for payload in payloads]
        rerun[0]["request_id"] = "another-run"
        rerun[1]["corpus_version"] += 1
        same = write("same.jsonl", rerun)
        args = ["--schema", "v2", "--identical", first]
        assert validate_wire.main(args + [same]) == 0
        assert validate_wire.main(args + [write("short.jsonl", payloads[:1])]) == 1
        swapped = write("swapped.jsonl", payloads[::-1])
        assert validate_wire.main(args + [swapped]) == 1
