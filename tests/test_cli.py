"""Unit tests for the command-line interface."""

import ast
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_argument_parser, main
from repro.tables import table_to_csv

WEIGHTS = Path(__file__).resolve().parent.parent / "perfbench" / "weights.json"
SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def schema_descriptions(node):
    """Every ``description`` string anywhere in a JSON schema."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "description" and isinstance(value, str):
                yield value
            else:
                yield from schema_descriptions(value)
    elif isinstance(node, list):
        for value in node:
            yield from schema_descriptions(value)


@pytest.fixture
def table_csv(tmp_path, olympics_table):
    path = tmp_path / "olympics.csv"
    table_to_csv(olympics_table, path)
    return path


class TestArgumentParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_argument_parser().parse_args([])

    def test_explain_arguments(self):
        args = build_argument_parser().parse_args(
            ["explain", "--table", "t.csv", "--query", "(all-records)"]
        )
        assert args.command == "explain"
        assert args.table == "t.csv"

    @pytest.mark.parametrize(
        "command", ["bench-parse", "bench-churn", "bench-discovery", "bench-join"]
    )
    def test_bench_commands_are_suites_of_one_command(self, command):
        with pytest.raises(SystemExit):
            build_argument_parser().parse_args([command])
        suite = command.split("-", 1)[1]
        args = build_argument_parser().parse_args(["bench", suite])
        assert (args.command, args.suite, args.seed, args.output) == (
            "bench", suite, 2019, None
        )


    def test_schema_descriptions_name_commands_the_parser_accepts(self, capsys):
        """A backticked ``repro ...`` command in a schema description names
        a sub-command (and, under ``bench``, a suite) the parser accepts."""
        commands = [
            (path.name, command)
            for path in sorted(SCHEMAS.glob("*.json"))
            for text in schema_descriptions(json.loads(path.read_text()))
            for command in re.findall(r"`repro ([^`]*)`", text)
        ]
        assert commands
        for schema, command in commands:
            words = []
            for token in command.split():
                if token.startswith("-"):
                    break
                words.append(token)
            if words[:1] == ["bench"]:
                assert len(words) > 1, f"{schema}: `repro {command}` names no suite"
            with pytest.raises(SystemExit) as exit:
                build_argument_parser().parse_args(words + ["--help"])
            capsys.readouterr()
            assert exit.value.code == 0, f"{schema}: `repro {command}` is not a command"


class TestExplainCommand:
    def test_explains_a_query(self, table_csv):
        out = io.StringIO()
        code = main(
            [
                "explain",
                "--table", str(table_csv),
                "--query", '(aggregate max (column-values "Year" (column-records "Country" (value "Greece"))))',
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "maximum of values in column Year" in text
        assert "answer: 2004" in text

    def test_html_output(self, table_csv):
        out = io.StringIO()
        main(
            ["explain", "--table", str(table_csv), "--query", '(most-common argmax "City" (column-values "City" (all-records)))', "--html"],
            out=out,
        )
        assert out.getvalue().startswith("<table")


class TestAskCommand:
    def test_ask_prints_candidates(self, table_csv):
        out = io.StringIO()
        code = main(
            ["ask", "--table", str(table_csv), "--question", "When did Greece host the games?", "--k", "3"],
            out=out,
        )
        assert code == 0
        assert "candidate 1" in out.getvalue()

    def test_missing_table_file_is_one_coded_line(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["ask", "--table", str(tmp_path / "nope.csv"), "--question", "x"],
            out=out,
        )
        assert code == 1
        text = out.getvalue()
        assert text.startswith("error[")
        assert "Traceback" not in text
        assert len(text.strip().splitlines()) == 1

    def test_ask_shows_the_rows_explain_shows(self, tmp_path, large_table):
        """Over 50 rows a candidate shows only its sampled rows (Section 5.3).

        ``ask`` must show, for each candidate, what ``explain`` of the
        candidate's s-expression shows.
        """
        path = tmp_path / "growth.csv"
        table_to_csv(large_table, path)
        ask = ["ask", "--table", str(path), "--question",
               "what is the highest growth rate of madagascar", "--k", "3",
               "--model", str(WEIGHTS)]
        out = io.StringIO()
        assert main(ask + ["--json"], out=out) == 0
        sexprs = [candidate["sexpr"] for candidate in json.loads(out.getvalue())["candidates"]]
        out = io.StringIO()
        assert main(ask, out=out) == 0
        blocks = out.getvalue().split("--- candidate ")[1:]
        assert len(blocks) == len(sexprs) == 3
        for block, sexpr in zip(blocks, sexprs):
            shown = block.split(" ---\n", 1)[1].strip()
            out = io.StringIO()
            assert main(["explain", "--table", str(path), "--query", sexpr], out=out) == 0
            assert shown == out.getvalue().split("\nanswer:", 1)[0].strip()

    def test_ask_json_emits_v2_envelope(self, table_csv):
        out = io.StringIO()
        code = main(
            ["ask", "--table", str(table_csv), "--question",
             "When did Greece host the games?", "--k", "3", "--json"],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["v"] == 2
        assert payload["ok"] is True
        assert payload["routing"]["mode"] == "table"
        assert payload["candidates"]

    def test_ask_with_saved_model(self, table_csv, tmp_path):
        from repro.parser import LogLinearModel

        model = LogLinearModel()
        model.weights = {"overlap:recall": 2.0}
        model_path = tmp_path / "model.json"
        model.save(model_path)
        out = io.StringIO()
        code = main(
            ["ask", "--table", str(table_csv), "--question", "When did Greece host?",
             "--model", str(model_path)],
            out=out,
        )
        assert code == 0


class TestBadInput:
    """A malformed caller-named file or s-expression is one BAD_REQUEST line."""

    RAGGED = "Year,Country\n1896,Greece\n2004\n"

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch, olympics_table):
        (tmp_path / "flat").mkdir()
        table_to_csv(olympics_table, tmp_path / "flat" / "olympics.csv")
        (tmp_path / "ragged.csv").write_text(self.RAGGED, encoding="utf-8")
        (tmp_path / "ragged_corpus").mkdir()
        (tmp_path / "ragged_corpus" / "ragged.csv").write_text(self.RAGGED, encoding="utf-8")
        (tmp_path / "garbled.json").write_text("not json", encoding="utf-8")
        (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["explain", "--table", "ragged.csv", "--query", "(all-records)"],
                id="explain-ragged-csv",
            ),
            pytest.param(
                ["explain", "--table", "flat/olympics.csv", "--query", "(bogus"],
                id="explain-unbalanced-sexpr",
            ),
            pytest.param(
                ["explain", "--table", "flat/olympics.csv", "--query",
                 '(column-records "Nope" (value "x"))'],
                id="explain-missing-column",
            ),
            pytest.param(
                ["ask", "--table", "missing.csv", "--question", "x"],
                id="ask-missing-csv",
            ),
            pytest.param(
                ["ask", "--table", "flat/olympics.csv", "--question", "x",
                 "--model", "missing.json"],
                id="ask-missing-model",
            ),
            pytest.param(
                ["ask", "--table", "flat/olympics.csv", "--question", "x",
                 "--model", "garbled.json"],
                id="ask-garbled-model",
            ),
            pytest.param(
                ["ask", "--table", "flat/olympics.csv", "--question", "x",
                 "--model", "list.json"],
                id="ask-non-object-model",
            ),
            pytest.param(
                ["bench", "parse", "--tables", "1", "--questions", "1",
                 "--model", "missing.json"],
                id="bench-parse-missing-model",
            ),
            pytest.param(["catalog", "--corpus", "ragged_corpus"], id="catalog-ragged-corpus"),
            pytest.param(
                ["catalog", "--corpus", "flat", "--model", "garbled.json"],
                id="catalog-garbled-model",
            ),
            pytest.param(
                ["update", "--corpus", "flat", "--name", "olympics", "--table", "ragged.csv"],
                id="update-ragged-csv",
            ),
        ],
    )
    def test_exits_one_with_one_coded_line(self, inputs, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        lines = out.getvalue().strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith("error[BAD_REQUEST]: ")

    def test_malformed_bench_scale_is_one_coded_line(self, monkeypatch):
        # Read as 1.0 it would run the suite at full scale.
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0,1")
        out = io.StringIO()
        code = main(["bench", "discovery"], out=out)
        lines = out.getvalue().strip().splitlines()
        assert code == 1
        assert lines == [
            "error[BAD_REQUEST]: bad REPRO_BENCH_SCALE: ValueError: "
            "REPRO_BENCH_SCALE must be a number, got '0,1'"
        ]


class TestDatasetCommand:
    def test_writes_tables_and_questions(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["dataset", "--output", str(tmp_path / "corpus"), "--tables", "4", "--questions", "3"],
            out=out,
        )
        assert code == 0
        questions = (tmp_path / "corpus" / "questions.jsonl").read_text().splitlines()
        assert len(questions) >= 6
        record = json.loads(questions[0])
        assert {"id", "question", "query", "answer"} <= set(record)
        tables = list((tmp_path / "corpus" / "tables").glob("*.json"))
        assert len(tables) == 4


class TestStudyCommand:
    def test_study_runs_end_to_end(self):
        out = io.StringIO()
        code = main(
            ["study", "--tables", "8", "--questions", "3", "--k", "5", "--epochs", "1"],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "hybrid correctness" in text
        assert "correctness bound" in text


class TestBenchParseCommand:
    def test_bench_parse_prints_modes_and_writes_artifact(self, tmp_path):
        out = io.StringIO()
        artifact = tmp_path / "BENCH_parse.json"
        code = main(
            ["bench", "parse", "--tables", "2", "--questions", "2", "--repeats", "2",
             "--workers", "2", "--output", str(artifact)],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        for mode in ("sequential", "memoized", "indexed", "batched", "process"):
            assert mode in text
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == "repro-bench-parse-v3"
        assert set(payload["modes"]) == {
            "sequential", "memoized", "indexed", "batched", "process"
        }
        assert payload["questions"] == 8  # 2 tables x 2 questions x 2 repeats
        for mode_payload in payload["modes"].values():
            assert mode_payload["questions"] == 8
            assert "indexes" in mode_payload["cache_stats"]
            assert "disk" in mode_payload["cache_stats"]
        # Timing fields live segregated (and quantized) under "timings".
        assert set(payload["timings"]["modes"]) == set(payload["modes"])
        for timing in payload["timings"]["modes"].values():
            assert timing["total_seconds"] > 0
            assert set(timing["per_question"]) == {"min_ms", "p50_ms", "max_ms"}

    def test_bench_parse_thread_backend_only(self, tmp_path):
        out = io.StringIO()
        artifact = tmp_path / "BENCH_parse.json"
        code = main(
            ["bench", "parse", "--tables", "2", "--questions", "1", "--repeats", "1",
             "--workers", "2", "--backend", "thread", "--output", str(artifact)],
            out=out,
        )
        assert code == 0
        payload = json.loads(artifact.read_text())
        assert set(payload["modes"]) == {"sequential", "memoized", "indexed", "batched"}

    def test_bench_parse_disk_cache_flag_creates_store(self, tmp_path):
        out = io.StringIO()
        store = tmp_path / "cache"
        code = main(
            ["bench", "parse", "--tables", "2", "--questions", "1", "--repeats", "1",
             "--workers", "1", "--backend", "thread", "--disk-cache", str(store)],
            out=out,
        )
        assert code == 0
        # The indexed/batched modes persisted their candidate lists.
        assert list(store.rglob("*.pkl"))

    def test_bench_parse_without_output_file(self):
        out = io.StringIO()
        code = main(
            ["bench", "parse", "--tables", "2", "--questions", "1", "--repeats", "1",
             "--workers", "1", "--backend", "thread"],
            out=out,
        )
        assert code == 0
        assert "speedup" in out.getvalue()


#: Each gated suite at a small scale, its committed schema, and the
#: module and name its run function is looked up under.
GATED_SUITES = {
    "churn": (
        ["--tables", "2", "--questions", "2", "--edits", "4"],
        "bench_churn.v1.json",
        "repro.perf.churn.run_churn_bench",
    ),
    "discovery": (
        ["--tables", "8", "--questions", "8", "--identity-sample", "1", "--repeats", "1"],
        "bench_discovery.v1.json",
        "repro.perf.discovery.run_discovery_bench",
    ),
    "join": (
        ["--pairs", "4", "--questions", "8"],
        "bench_join.v1.json",
        "repro.perf.join.run_join_bench",
    ),
}


def _failing_report(suite):
    from repro.perf import ChurnReport, DiscoveryReport, JoinReport

    if suite == "churn":
        return ChurnReport(
            tables=1, questions=1, edits=1, identical_answers=True, identical_index=False
        )
    if suite == "discovery":
        return DiscoveryReport(shards=1, questions=1, max_candidates=1, identical=False)
    return JoinReport(
        pairs=1, shards=2, questions=1, max_proposals=1, compose_attempted=1,
        failures=["no composition: 'q' (fact + dim)"],
    )


@pytest.mark.parametrize("suite", sorted(GATED_SUITES))
class TestBenchGates:
    def test_suite_passes_and_writes_a_schema_valid_payload(self, suite, tmp_path):
        from repro.api import schema as wire_schema

        argv, schema, _ = GATED_SUITES[suite]
        artifact = tmp_path / f"BENCH_{suite}.json"
        out = io.StringIO()
        code = main(["bench", suite, *argv, "--output", str(artifact)], out=out)
        assert code == 0, out.getvalue()
        payload = json.loads(artifact.read_text())
        wire_schema.validate_payload(payload, wire_schema.load_schema(schema))
        assert f"schema: {payload['schema']}" in out.getvalue().splitlines()

    def test_a_failed_gate_exits_one(self, suite, monkeypatch):
        argv, _, run_function = GATED_SUITES[suite]
        report = _failing_report(suite)
        monkeypatch.setattr(run_function, lambda *args, **kwargs: report)
        out = io.StringIO()
        assert main(["bench", suite, *argv], out=out) == 1
        if suite == "join":
            assert "  ! no composition: 'q' (fact + dim)" in out.getvalue().splitlines()


@pytest.fixture
def corpus_dir(tmp_path):
    """A tiny `repro dataset`-layout corpus for catalog/serve tests."""
    out = io.StringIO()
    code = main(
        ["dataset", "--output", str(tmp_path / "corpus"), "--tables", "3",
         "--questions", "2", "--seed", "11"],
        out=out,
    )
    assert code == 0
    return tmp_path / "corpus"


class TestCatalogCommand:
    def test_lists_shards(self, corpus_dir):
        out = io.StringIO()
        code = main(["catalog", "--corpus", str(corpus_dir)], out=out)
        text = out.getvalue()
        assert code == 0
        assert "digest" in text and "hot" in text
        assert text.count("hot") >= 3  # header + >= 3 shards

    def test_routes_a_question_corpus_wide(self, corpus_dir):
        out = io.StringIO()
        code = main(
            ["catalog", "--corpus", str(corpus_dir), "--question",
             "which entry is first", "--any"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        payload = json.loads(text[text.index("{"):])
        # The catalog command now prints the typed v2 QueryResult envelope.
        assert payload["v"] == 2
        assert payload["ok"] is True
        assert payload["routing"]["mode"] == "any"
        assert len(payload["ranked"]) >= 3

    def test_loads_flat_csv_directory(self, tmp_path, olympics_table):
        flat = tmp_path / "flat"
        flat.mkdir()
        table_to_csv(olympics_table, flat / "olympics.csv")
        out = io.StringIO()
        code = main(
            ["catalog", "--corpus", str(flat), "--question",
             "which country hosted in 2004", "--table", "olympics"],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue()[out.getvalue().index("{"):])
        assert payload["answer"] == ["Greece"]
        assert payload["routing"]["mode"] == "table"
        assert payload["shard"]["name"] == "olympics"

    def test_empty_corpus_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = io.StringIO()
        assert main(["catalog", "--corpus", str(empty)], out=out) == 1

    def test_unknown_table_exits_nonzero_with_coded_line(self, corpus_dir):
        """A CatalogError mid-run: one coded line, non-zero exit, no
        traceback (the error-taxonomy unification in cli.main)."""
        out = io.StringIO()
        code = main(
            ["catalog", "--corpus", str(corpus_dir), "--question", "x",
             "--table", "atlantis"],
            out=out,
        )
        assert code == 1
        text = out.getvalue()
        payload = json.loads(text[text.index("{"):])
        assert payload["ok"] is False
        assert payload["error"]["code"] == "UNKNOWN_TABLE"
        assert "Traceback" not in text

    def test_no_prune_broadcasts(self, tmp_path, olympics_table):
        flat = tmp_path / "flat"
        flat.mkdir()
        table_to_csv(olympics_table, flat / "olympics.csv")
        out = io.StringIO()
        code = main(
            ["catalog", "--corpus", str(flat), "--question",
             "which country hosted in 2004", "--any", "--no-prune"],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue()[out.getvalue().index("{"):])
        assert payload["routing"]["pruned"] is False
        assert payload["answer"] == ["Greece"]


class TestRouteCommand:
    def test_route_inspects_the_decision(self, corpus_dir):
        out = io.StringIO()
        code = main(
            ["route", "--corpus", str(corpus_dir), "--question",
             "which country hosted in 2004"],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "routing: parse" in text
        assert "decision" in text and "score" in text

    def test_route_json_payload(self, corpus_dir):
        out = io.StringIO()
        code = main(
            ["route", "--corpus", str(corpus_dir), "--question",
             "which country hosted in 2004", "--json"],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert set(payload) == {
            "question", "fallback", "candidates", "pruned", "scored"
        }
        assert len(payload["scored"]) == 3
        assert len(payload["candidates"]) + len(payload["pruned"]) == 3

    def test_closed_stdout_ends_quietly(self, corpus_dir):
        """``repro route ... | head -n 1``: the reader is gone before the
        command writes, so it exits 1 with nothing on stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(__file__).resolve().parent.parent / "src"
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "route", "--corpus", str(corpus_dir),
                 "--question", "which country hosted in 2004", "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(src)},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert completed.stderr == b""
        assert completed.returncode == 1

    def test_route_sets_matches_the_engine_decision(self, tmp_path):
        """``--sets`` reports the engine's set decision: on the medals/regions
        pair no single shard covers the question, and the pair does."""
        from repro.api import ReproEngine
        from repro.tables import Table, table_from_csv

        tables = [
            Table(
                columns=["Nation", "Total", "Golds"],
                rows=[["Fiji", "120", "40"], ["Samoa", "80", "20"],
                      ["Tonga", "95", "30"], ["Greece", "town", "10"],
                      ["Norway", "300", "90"]],
                name="medals",
            ),
            Table(
                columns=["Nation", "Continent"],
                rows=[["Fiji", "Oceania"], ["Samoa", "Oceania"], ["Tonga", "Oceania"],
                      ["Greece", "Europe"], ["Norway", "Europe"]],
                name="regions",
            ),
        ]
        for table in tables:
            table_to_csv(table, tmp_path / f"{table.name}.csv")
        question = "what is the total for nations in Oceania"
        argv = ["route", "--corpus", str(tmp_path), "--question", question, "--sets"]
        out = io.StringIO()
        assert main([*argv, "--json"], out=out) == 0
        sets = json.loads(out.getvalue())["sets"]

        engine = ReproEngine(
            tables=[table_from_csv(path) for path in sorted(tmp_path.glob("*.csv"))]
        )
        decision = engine.routing_sets(question)
        assert sets == {
            "coverable": list(decision.coverable),
            "single_covered": decision.single_covered,
            "proposals": [
                {
                    "tables": [ref.name for ref in proposal.refs],
                    "covered": list(proposal.covered),
                    "missing": list(proposal.missing),
                    "score": proposal.score,
                }
                for proposal in decision.proposals
            ],
        }
        assert sets["coverable"] == ["entity:oceania", "header:total", "token:oceania"]
        assert sets["single_covered"] is False
        assert [(p["tables"], p["missing"], p["score"]) for p in sets["proposals"]] == [
            (["regions", "medals"], [], 5.5)
        ]

        out = io.StringIO()
        assert main(argv, out=out) == 0
        assert "set 1: regions + medals (covers 3/3, complete, score 5.5)" in (
            out.getvalue().splitlines()
        )

    def test_route_empty_corpus_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = io.StringIO()
        assert main(
            ["route", "--corpus", str(empty), "--question", "x"], out=out
        ) == 1


class TestServeCommand:
    def test_self_test_runs_concurrent_sessions(self, corpus_dir):
        out = io.StringIO()
        code = main(
            ["serve", "--corpus", str(corpus_dir), "--self-test", "4",
             "--workers", "2"],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "concurrent sessions answered" in text
        assert "dispatcher:" in text

    def test_self_test_prints_fresh_dispatcher_counters(self, corpus_dir):
        """The counters mirrored from the catalog refresh before printing
        (they used to print 0 retrieval shards on a 3-table corpus)."""
        out = io.StringIO()
        code = main(
            ["serve", "--corpus", str(corpus_dir), "--self-test", "2",
             "--workers", "2"],
            out=out,
        )
        assert code == 0
        line = next(
            line for line in out.getvalue().splitlines()
            if line.startswith("dispatcher: ")
        )
        stats = ast.literal_eval(line[len("dispatcher: "):])
        assert stats["retrieval_shards"] == 3
        assert stats["retrieval_terms"] > 0
        assert stats["pinned_requests"] == stats["requests"] == 6

    def test_self_test_exits_nonzero_on_a_serving_error(self, corpus_dir):
        """A question whose table is missing is a coded failure of the
        run, not a silently emitted error envelope."""
        questions = corpus_dir / "questions.jsonl"
        with questions.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"question": "x", "table": "atlantis"}) + "\n")
        out = io.StringIO()
        code = main(
            ["serve", "--corpus", str(corpus_dir), "--self-test", "2",
             "--workers", "2"],
            out=out,
        )
        assert code == 1
        assert "error[UNKNOWN_TABLE]" in out.getvalue()

    def test_self_test_emits_schema_valid_results(self, corpus_dir, tmp_path):
        from repro.api import schema as wire_schema

        emitted = tmp_path / "results.jsonl"
        out = io.StringIO()
        code = main(
            ["serve", "--corpus", str(corpus_dir), "--self-test", "2",
             "--workers", "2", "--emit-results", str(emitted)],
            out=out,
        )
        assert code == 0
        lines = emitted.read_text(encoding="utf-8").splitlines()
        assert lines
        schema = wire_schema.load_schema("query_result.v2.json")
        assert wire_schema.validate_lines(lines, schema) == len(lines)

    def test_process_self_test_leaves_no_worker_process(self, corpus_dir):
        """The command closes the engine it built, so the worker processes
        of its pool are reaped before it returns instead of being left to
        multiprocessing's exit hook."""
        import multiprocessing

        before = set(multiprocessing.active_children())
        out = io.StringIO()
        code = main(
            ["serve", "--corpus", str(corpus_dir), "--self-test", "2",
             "--workers", "2", "--backend", "process"],
            out=out,
        )
        assert code == 0
        assert set(multiprocessing.active_children()) - before == set()

    def test_pool_flags_reach_the_engine(self):
        """--workers and --backend build the engine's pool, the one the
        server parses on (they used to size only the server's threads)."""
        from repro.cli import _build_engine

        args = build_argument_parser().parse_args(
            ["serve", "--corpus", "unused", "--workers", "1", "--backend", "process"]
        )
        engine = _build_engine(args)
        assert (engine.workers, engine.backend) == (1, "process")

    def test_self_test_without_questions_fails(self, tmp_path, olympics_table):
        flat = tmp_path / "flat"
        flat.mkdir()
        table_to_csv(olympics_table, flat / "olympics.csv")
        out = io.StringIO()
        code = main(["serve", "--corpus", str(flat), "--self-test", "2"], out=out)
        assert code == 1
        assert "questions.jsonl" in out.getvalue()
