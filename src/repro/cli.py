"""Command-line interface for the reproduction.

Nine sub-commands cover the workflows a downstream user needs::

    python -m repro explain --table table.csv --query '(aggregate max (column-values "Year" (column-records "Country" (value "Greece"))))'
    python -m repro ask     --table table.csv --question "When did Greece last host?" --k 5
    python -m repro dataset --output corpus/ --tables 20 --questions 6
    python -m repro study   --tables 20 --questions 6 --k 7
    python -m repro catalog --corpus corpus/ --question "which country hosted in 2004" --any
    python -m repro route   --corpus corpus/ --question "which country hosted in 2004"
    python -m repro serve   --corpus corpus/ --port 8765
    python -m repro update  --corpus corpus/ --name olympics --table new_olympics.csv
    python -m repro bench parse --tables 4 --questions 4 --repeats 2 --workers 4 --output BENCH_parse.json
    python -m repro bench churn --tables 4 --questions 4 --edits 12 --output BENCH_churn.json
    python -m repro bench discovery --output BENCH_discovery.json
    python -m repro bench join --output BENCH_join.json

* ``explain`` — parse a lambda DCS s-expression, execute it on a CSV table
  and print the utterance + provenance highlights (Section 5).
* ``ask`` — run the semantic parser on an NL question over a CSV table and
  print the explained top-k candidates (Section 6.3); the parser is
  untrained unless ``--model`` points at a saved weight file.
* ``dataset`` — generate a synthetic WikiTableQuestions-like corpus and
  write its tables (JSON) plus a ``questions.jsonl`` file.
* ``study`` — run the end-to-end deployment experiment on a freshly
  generated corpus with simulated workers and print the Table 6 scenario
  summary.
* ``catalog`` — load a table corpus into a fingerprint-addressed
  :class:`~repro.tables.catalog.TableCatalog`, list the shards, and
  optionally route one question (``--table REF`` or corpus-wide
  ``--any``; ``--no-prune`` forces the full broadcast).
* ``route`` — inspect the corpus-retrieval routing decision for a
  question: every shard's retrieval score, the matched terms, which
  shards ``ask_any`` would parse versus prune, and whether the broadcast
  fallback fires.  Pure inspection: nothing is parsed.
* ``serve`` — serve a corpus over the JSON-lines TCP endpoint (the v2
  typed envelope, see :mod:`repro.api.wire`), or run an in-process
  ``--self-test`` of N concurrent sessions through
  :meth:`~repro.serving.AsyncServer.aquery` (``--emit-results`` writes
  the ``QueryResult`` envelopes the server returned as JSON lines for
  schema validation).
* ``update`` — publish new content under a registered table name
  (versioned lineage: the catalog diffs the snapshots, patches the
  retrieval index and per-column structures in place, and retires the
  superseded version once no query holds it).
* ``bench`` — run one bench suite (``parse``, ``churn``, ``discovery``
  or ``join``, see :mod:`repro.perf`), print its payload as
  ``dotted.key: value`` lines, optionally write it (``--output``), and
  exit 1 when the suite's integrity gate fails.

The question-answering commands (``ask``, ``catalog``, ``serve``,
``route``) are thin faces over :class:`repro.api.ReproEngine` — the same
façade library users call — and failures exit non-zero with a one-line
coded message (the :class:`repro.api.ErrorCode` taxonomy), never a
traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

from .api import ApiError, ErrorCode, ReproEngine, classify_exception
from .api.errors import bad_request
from .tables import CatalogError, Table, TableError, save_tables, table_from_csv
from .dcs import DCSError, SexprError, from_sexpr, to_sexpr
from .core import explain as explain_query
from .parser import LogLinearModel, SemanticParser
from .interface import NLInterface


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Explaining Queries over Web Tables to Non-Experts — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    explain_cmd = subparsers.add_parser("explain", help="explain a lambda DCS query over a CSV table")
    explain_cmd.add_argument("--table", required=True, help="path to a CSV table (first row = header)")
    explain_cmd.add_argument("--query", required=True, help="lambda DCS query as an s-expression")
    explain_cmd.add_argument("--html", action="store_true", help="emit HTML instead of text")

    ask_cmd = subparsers.add_parser("ask", help="ask an NL question over a CSV table")
    ask_cmd.add_argument("--table", required=True, help="path to a CSV table")
    ask_cmd.add_argument("--question", required=True, help="the NL question")
    ask_cmd.add_argument("--k", type=int, default=7, help="number of candidates to explain")
    ask_cmd.add_argument("--model", help="path to a saved LogLinearModel JSON file")
    ask_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the typed v2 QueryResult envelope instead of rendered text",
    )

    dataset_cmd = subparsers.add_parser("dataset", help="generate a synthetic corpus")
    dataset_cmd.add_argument("--output", required=True, help="output directory")
    dataset_cmd.add_argument("--tables", type=int, default=20)
    dataset_cmd.add_argument("--questions", type=int, default=6, help="questions per table")
    dataset_cmd.add_argument("--seed", type=int, default=7)

    study_cmd = subparsers.add_parser("study", help="run the deployment experiment end to end")
    study_cmd.add_argument("--tables", type=int, default=20)
    study_cmd.add_argument("--questions", type=int, default=6, help="questions per table")
    study_cmd.add_argument("--k", type=int, default=7)
    study_cmd.add_argument("--epochs", type=int, default=2)
    study_cmd.add_argument("--seed", type=int, default=7)

    catalog_cmd = subparsers.add_parser(
        "catalog", help="inspect and query a multi-table catalog"
    )
    catalog_cmd.add_argument(
        "--corpus",
        required=True,
        help="corpus directory: JSON tables (a 'tables/' subdir or the directory "
        "itself) and/or CSV files",
    )
    catalog_cmd.add_argument("--cache-dir", help="content-addressed disk cache root")
    catalog_cmd.add_argument(
        "--max-hot", type=int, help="keep at most N shards hot (LRU auto-eviction)"
    )
    catalog_cmd.add_argument("--question", help="a question to route")
    catalog_cmd.add_argument("--table", help="table name/digest to route --question to")
    catalog_cmd.add_argument(
        "--any",
        action="store_true",
        help="score --question across every shard instead of one table",
    )
    catalog_cmd.add_argument("--k", type=int, default=7)
    catalog_cmd.add_argument("--model", help="path to a saved LogLinearModel JSON file")
    catalog_cmd.add_argument(
        "--prune",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="corpus-wide asks: parse only retrieved shards (--no-prune "
        "forces the full broadcast)",
    )
    catalog_cmd.add_argument(
        "--top",
        type=int,
        metavar="N",
        help="corpus-wide asks: parse at most the N highest-ranked shards "
        "(the first N of the router's ranking)",
    )

    route_cmd = subparsers.add_parser(
        "route",
        help="inspect the corpus-retrieval routing decision for a question",
    )
    route_cmd.add_argument(
        "--corpus", required=True, help="corpus directory (see catalog)"
    )
    route_cmd.add_argument("--question", required=True, help="the question to route")
    route_cmd.add_argument("--cache-dir", help="content-addressed disk cache root")
    route_cmd.add_argument(
        "--max-hot", type=int, help="keep at most N shards hot (LRU auto-eviction)"
    )
    route_cmd.add_argument(
        "--top",
        type=int,
        metavar="N",
        help="cap candidates at the N highest-ranked shards (the first N of "
        "the router's ranking; scored rows then cover only the survivors)",
    )
    route_cmd.add_argument(
        "--sets",
        action="store_true",
        help="also show the shard-set proposals (the 2-3-shard candidate "
        "sets cross-table composition would try when no single shard "
        "covers every anchored question term)",
    )
    route_cmd.add_argument(
        "--json", action="store_true", help="emit the decision as JSON"
    )

    serve_cmd = subparsers.add_parser(
        "serve", help="serve a table corpus over asyncio (JSON-lines TCP)"
    )
    serve_cmd.add_argument("--corpus", required=True, help="corpus directory (see catalog)")
    serve_cmd.add_argument("--cache-dir", help="content-addressed disk cache root")
    serve_cmd.add_argument("--max-hot", type=int, help="keep at most N shards hot")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8765)
    serve_cmd.add_argument(
        "--workers", type=int, default=8,
        help="worker processes (--backend process) and concurrent corpus-wide "
        "jobs (at most one per core on the thread backend, which parses "
        "routed reads on the dispatcher thread)",
    )
    serve_cmd.add_argument(
        "--backend", choices=["thread", "process"], default="thread",
        help="worker pool backend",
    )
    serve_cmd.add_argument(
        "--max-pending", type=int, default=1024,
        help="bound on queued requests before the server sheds new asks "
        "with OVERLOADED (0 = unbounded)",
    )
    serve_cmd.add_argument(
        "--call-timeout", type=float, default=None, metavar="SECONDS",
        help="watchdog budget for a single worker parse call; a worker "
        "exceeding it is presumed hung and respawned (process backend)",
    )
    serve_cmd.add_argument(
        "--self-test",
        type=int,
        metavar="SESSIONS",
        help="run SESSIONS concurrent in-process sessions over the corpus "
        "questions (questions.jsonl) instead of listening on a socket",
    )
    serve_cmd.add_argument(
        "--emit-results",
        metavar="PATH",
        help="with --self-test: write every answer as a v2 QueryResult "
        "envelope (JSON lines) for schema validation",
    )
    serve_cmd.add_argument("--model", help="path to a saved LogLinearModel JSON file")

    update_cmd = subparsers.add_parser(
        "update",
        help="publish new content under a registered table name (versioned lineage)",
    )
    update_cmd.add_argument(
        "--corpus", required=True, help="corpus directory (see catalog)"
    )
    update_cmd.add_argument(
        "--name", required=True, help="registered table name (or digest) to update"
    )
    update_cmd.add_argument(
        "--table", required=True, help="path to the new content (CSV or JSON table)"
    )
    update_cmd.add_argument("--cache-dir", help="content-addressed disk cache root")
    update_cmd.add_argument(
        "--max-hot", type=int, help="keep at most N shards hot (LRU auto-eviction)"
    )
    update_cmd.add_argument(
        "--question", help="optionally ask a question against the updated corpus"
    )
    update_cmd.add_argument("--k", type=int, default=7)
    update_cmd.add_argument("--model", help="path to a saved LogLinearModel JSON file")

    bench_cmd = subparsers.add_parser(
        "bench", help="run one bench suite, print its payload and gate on it"
    )
    suites = bench_cmd.add_subparsers(dest="suite", required=True)
    # Options every suite takes, declared once; each suite's run_suite
    # turns its arguments into its report.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=2019)
    common.add_argument("--output", help="write the suite's JSON payload to this file")

    parse_cmd = suites.add_parser(
        "parse",
        parents=[common],
        help="sequential vs memoized vs indexed vs batched vs process parsing",
    )
    parse_cmd.set_defaults(run_suite=_bench_parse)
    parse_cmd.add_argument("--tables", type=int, default=4)
    parse_cmd.add_argument("--questions", type=int, default=4, help="questions per table")
    parse_cmd.add_argument("--repeats", type=int, default=2, help="workload replays (warm-cache traffic)")
    parse_cmd.add_argument("--workers", type=int, default=4, help="batch parser pool size")
    parse_cmd.add_argument(
        "--backend",
        choices=["thread", "process", "both"],
        default="both",
        help="which pool backends to bench (thread -> 'batched' mode, process -> 'process' mode)",
    )
    parse_cmd.add_argument(
        "--disk-cache",
        help="enable the content-addressed on-disk cache under this directory "
        "(one sub-directory per mode; rerun with the same path for a warm start)",
    )
    parse_cmd.add_argument("--model", help="path to a saved LogLinearModel JSON file")

    churn_cmd = suites.add_parser(
        "churn",
        parents=[common],
        help="delta index maintenance vs full rebuild under table churn "
        "(exit 1 unless both are identical)",
    )
    churn_cmd.set_defaults(run_suite=_bench_churn)
    churn_cmd.add_argument("--tables", type=int, default=4)
    churn_cmd.add_argument("--questions", type=int, default=4, help="questions per table")
    churn_cmd.add_argument(
        "--edits",
        type=int,
        default=None,
        help="length of the random edit script (default: 12, scaled by "
        "REPRO_BENCH_SCALE)",
    )

    discovery_cmd = suites.add_parser(
        "discovery",
        parents=[common],
        help="table-discovery recall and corpus-scale routing over a synthetic "
        "many-shard corpus (exit 1 when pruning changes an answer)",
    )
    discovery_cmd.set_defaults(run_suite=_bench_discovery)
    discovery_cmd.add_argument(
        "--tables", type=int, default=500, help="corpus size before REPRO_BENCH_SCALE scaling"
    )
    discovery_cmd.add_argument(
        "--questions",
        type=int,
        default=300,
        help="gold-labeled questions before REPRO_BENCH_SCALE scaling",
    )
    discovery_cmd.add_argument(
        "--top", type=int, default=10, help="max_candidates cap of the routed hot path under test"
    )
    discovery_cmd.add_argument(
        "--identity-sample",
        type=int,
        default=8,
        help="questions to check pruned-vs-broadcast answer identity on "
        "(each check broadcasts over the whole corpus)",
    )
    discovery_cmd.add_argument(
        "--repeats",
        type=int,
        default=9,
        help="alternating pairs the two build-timing arms run in; each arm "
        "reports its median (default: 9)",
    )

    join_cmd = suites.add_parser(
        "join",
        parents=[common],
        help="cross-table shard-set routing and the composed-answer SQL "
        "oracle (exit 1 on any divergence)",
    )
    join_cmd.set_defaults(run_suite=_bench_join)
    join_cmd.add_argument(
        "--pairs",
        type=int,
        default=12,
        help="fact/dimension shard pairs before REPRO_BENCH_SCALE scaling",
    )
    join_cmd.add_argument(
        "--questions",
        type=int,
        default=36,
        help="gold-labeled questions before REPRO_BENCH_SCALE scaling",
    )
    join_cmd.add_argument(
        "--proposals",
        type=int,
        default=8,
        help="max shard-set proposals the router may return (recall@5 "
        "needs more than the serving default of 4)",
    )
    return parser


# ---------------------------------------------------------------------------
# sub-commands
# ---------------------------------------------------------------------------


@contextmanager
def _caller_input(what: str) -> Iterator[None]:
    """Report a failure to read a caller-named file or s-expression as
    ``BAD_REQUEST``: that input is the request, so the fault is the
    caller's, never a traceback or ``INTERNAL``."""
    try:
        yield
    except (OSError, ValueError, TypeError, KeyError, AttributeError, csv.Error,
            TableError, SexprError) as error:
        raise bad_request(f"bad {what}: {type(error).__name__}: {error}") from error


def _load_table(path: str) -> Table:
    with _caller_input(f"table {path}"):
        return table_from_csv(Path(path))


def _load_model(path: str) -> LogLinearModel:
    with _caller_input(f"model {path}"):
        return LogLinearModel.load(path)


def run_explain(args: argparse.Namespace, out) -> int:
    table = _load_table(args.table)
    with _caller_input("query"):
        query = from_sexpr(args.query)
    try:
        explanation = explain_query(query, table)
        # Rendering builds the highlight, so it can fail on the query too.
        rendered = explanation.as_html() if args.html else explanation.as_text()
    except DCSError as error:
        # A well-formed --query this table cannot run (a missing column,
        # an empty operand) is the caller's request failing.
        raise bad_request(f"bad query: {type(error).__name__}: {error}") from error
    print(rendered, file=out)
    if not args.html:
        print(file=out)
        print("answer:", ", ".join(explanation.answer), file=out)
    return 0


def run_ask(args: argparse.Namespace, out) -> int:
    table = _load_table(args.table)
    parser = SemanticParser()
    if args.model:
        parser.model = _load_model(args.model)
    with ReproEngine(
        interface=NLInterface(parser=parser, k=args.k), tables=[table], k=args.k
    ) as engine:
        result = engine.query(args.question, target=table.name, k=args.k)
    if args.json:
        # JSON mode always emits the envelope — a PARSE_FAILURE is
        # structured output (coded error + routing), not a text apology.
        print(json.dumps(result.to_dict(), ensure_ascii=False, indent=2), file=out)
        return 0 if result.ok else 1
    if result.error_code is ErrorCode.PARSE_FAILURE:
        print("no executable candidate queries were generated", file=out)
        return 1
    result.raise_for_error()
    print(result.raw.as_text(), file=out)
    return 0


def run_dataset(args: argparse.Namespace, out) -> int:
    from .dataset import DatasetConfig, build_dataset, dataset_statistics

    config = DatasetConfig(
        num_tables=args.tables, questions_per_table=args.questions, seed=args.seed
    )
    dataset = build_dataset(config)
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    save_tables(dataset.tables, output / "tables")
    questions_path = output / "questions.jsonl"
    with questions_path.open("w", encoding="utf-8") as handle:
        for example in dataset.examples:
            handle.write(
                json.dumps(
                    {
                        "id": example.example_id,
                        "table": example.table.name,
                        "question": example.question,
                        "query": to_sexpr(example.gold_query),
                        "answer": [value.display() for value in example.gold_answer],
                        "domain": example.domain,
                        "template": example.template,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    stats = dataset_statistics(dataset)
    print(f"wrote {int(stats['tables'])} tables and {int(stats['examples'])} questions "
          f"to {output}", file=out)
    return 0


def run_study(args: argparse.Namespace, out) -> int:
    from .dataset import DatasetConfig, build_dataset, split_by_tables
    from .parser import train_parser
    from .users import StudyConfig, UserStudy, worker_pool

    config = DatasetConfig(
        num_tables=args.tables, questions_per_table=args.questions, seed=args.seed
    )
    dataset = build_dataset(config)
    split = split_by_tables(dataset, test_fraction=0.25, seed=args.seed)
    print(f"corpus: {len(split.train)} train / {len(split.test)} test questions", file=out)

    parser = train_parser(
        split.train.training_examples(annotated=False),
        epochs=args.epochs,
        use_annotations=False,
        seed=args.seed,
    )
    examples = split.test.evaluation_examples()
    study = UserStudy(parser, StudyConfig(k=args.k, questions_per_worker=20, seed=args.seed))
    workers = worker_pool(max(2, len(examples) // 20 + 1), seed=args.seed)
    result = study.run(examples, workers)

    print(f"questions answered : {result.distinct_questions}", file=out)
    print(f"explanations shown : {result.explanations_shown}", file=out)
    print(f"success rate       : {result.question_success_rate:.1%}", file=out)
    print(f"parser correctness : {result.parser_correctness:.1%}", file=out)
    print(f"user correctness   : {result.user_correctness:.1%}", file=out)
    print(f"hybrid correctness : {result.hybrid_correctness:.1%}", file=out)
    print(f"correctness bound  : {result.correctness_bound:.1%}", file=out)
    return 0


def _load_corpus(corpus: str):
    """Load a corpus directory: tables (JSON and/or CSV) + optional questions.

    Accepts both the ``repro dataset`` layout (``DIR/tables/*.json`` +
    ``DIR/questions.jsonl``) and a flat directory of table files.
    Returns ``(tables, questions)`` where questions are
    ``(question, table_name)`` pairs (empty when no questions.jsonl).
    """
    from .tables import load_tables

    root = Path(corpus)
    tables_dir = root / "tables" if (root / "tables").is_dir() else root
    with _caller_input(f"corpus {corpus}"):
        tables = load_tables(tables_dir)
        for csv_path in sorted(tables_dir.glob("*.csv")):
            tables.append(table_from_csv(csv_path))
        questions = []
        questions_path = root / "questions.jsonl"
        if questions_path.exists():
            with questions_path.open(encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    payload = json.loads(line)
                    questions.append((payload["question"], payload["table"]))
    return tables, questions


def _build_engine(args, k: int = 7) -> ReproEngine:
    """An engine honouring the shared --cache-dir/--max-hot/--model flags
    and, for ``serve``, its --workers/--backend pool flags."""
    from .parser import ParserConfig

    model_path = getattr(args, "model", None)
    cache_dir = getattr(args, "cache_dir", None)
    max_hot = getattr(args, "max_hot", None)
    interface = None
    if model_path:
        parser = SemanticParser(
            model=_load_model(model_path),
            config=ParserConfig(disk_cache_dir=cache_dir or None),
        )
        interface = NLInterface(parser=parser, k=k)
    return ReproEngine(
        interface=interface, cache_dir=cache_dir, max_hot_shards=max_hot, k=k,
        workers=getattr(args, "workers", 4),
        backend=getattr(args, "backend", "thread"),
        call_timeout=getattr(args, "call_timeout", None),
    )


def _corpus_engine(args, out, k: int = 7) -> Optional[ReproEngine]:
    """Load --corpus into a fresh engine; None (after a message) if empty."""
    tables, _ = _load_corpus(args.corpus)
    if not tables:
        print(f"no tables found under {args.corpus}", file=out)
        return None
    engine = _build_engine(args, k=k)
    engine.register_all(tables)
    return engine


def run_catalog(args: argparse.Namespace, out) -> int:
    engine = _corpus_engine(args, out, k=args.k)
    if engine is None:
        return 1
    with engine:
        catalog = engine.catalog
        print(f"{'digest':<14} {'shape':>9}  {'hot':<4} name", file=out)
        for ref in engine.refs():
            shape = f"{ref.num_rows}x{ref.num_columns}"
            hot = "hot" if catalog.is_hot(ref) else "cold"
            print(f"{ref.short:<14} {shape:>9}  {hot:<4} {ref.name}", file=out)
        if not args.question:
            return 0
        result = engine.query(
            args.question,
            target=args.table if not args.any else None,
            k=args.k,
            prune=args.prune if (args.any or not args.table) else None,
            max_candidates=args.top if (args.any or not args.table) else None,
        )
        print(json.dumps(result.to_dict(), ensure_ascii=False, indent=2), file=out)
        return 0 if result.ok else 1


def run_route(args: argparse.Namespace, out) -> int:
    engine = _corpus_engine(args, out)
    if engine is None:
        return 1
    sets = None
    with engine:
        if args.sets:
            sets = engine.routing_sets(args.question, max_candidates=args.top)
            decision = sets.single
        else:
            decision = engine.routing(args.question, max_candidates=args.top)
    if args.json:
        payload = {
            "question": decision.question,
            "fallback": decision.fallback,
            "candidates": [ref.name for ref in decision.candidates],
            "pruned": [ref.name for ref in decision.pruned],
            "scored": [
                {
                    "table": scored.ref.name,
                    "digest": scored.ref.short,
                    "score": scored.score,
                    "matched": list(scored.matched),
                }
                for scored in decision.scored
            ],
        }
        if sets is not None:
            payload["sets"] = {
                "coverable": list(sets.coverable),
                "single_covered": sets.single_covered,
                "proposals": [
                    {
                        "tables": [ref.name for ref in proposal.refs],
                        "covered": list(proposal.covered),
                        "missing": list(proposal.missing),
                        "score": proposal.score,
                    }
                    for proposal in sets.proposals
                ],
            }
        print(json.dumps(payload, ensure_ascii=False, indent=2), file=out)
        return 0
    print(f"question: {decision.question}", file=out)
    kept = {ref.digest for ref in decision.candidates}
    # Under --top the decision only scores the survivors, so the corpus
    # size is candidates + pruned, not len(scored).
    total_shards = len(decision.candidates) + len(decision.pruned)
    print(
        f"routing: parse {len(decision.candidates)}/{total_shards} shards"
        + (" (fallback: no retrieval hits, broadcasting)" if decision.fallback else ""),
        file=out,
    )
    print(f"{'decision':<8} {'score':>7}  {'digest':<14} {'name':<20} matched", file=out)
    for scored in decision.scored:
        verdict = "parse" if scored.ref.digest in kept else "prune"
        matched = ", ".join(scored.matched[:6])
        if len(scored.matched) > 6:
            matched += f", ... ({len(scored.matched)} terms)"
        print(
            f"{verdict:<8} {scored.score:>7.1f}  {scored.ref.short:<14} "
            f"{scored.ref.name:<20} {matched}",
            file=out,
        )
    if sets is not None:
        terms = ", ".join(sets.coverable) if sets.coverable else "(none)"
        print(f"coverable terms: {terms}", file=out)
        if sets.single_covered:
            print("sets: a single candidate covers every term", file=out)
        elif not sets.proposals:
            print("sets: no multi-shard set improves coverage", file=out)
        for position, proposal in enumerate(sets.proposals, start=1):
            names = " + ".join(ref.name for ref in proposal.refs)
            missing = (
                "complete"
                if proposal.complete
                else f"missing {', '.join(proposal.missing)}"
            )
            print(
                f"set {position}: {names} "
                f"(covers {len(proposal.covered)}/{len(sets.coverable)}, "
                f"{missing}, score {proposal.score:.1f})",
                file=out,
            )
    return 0


def run_serve(args: argparse.Namespace, out) -> int:
    tables, questions = _load_corpus(args.corpus)
    if not tables:
        print(f"no tables found under {args.corpus}", file=out)
        return 1
    if args.self_test is not None and not questions:
        print(
            f"--self-test needs {Path(args.corpus) / 'questions.jsonl'} "
            "(generate one with `repro dataset`)",
            file=out,
        )
        return 1
    with _build_engine(args) as engine:
        engine.register_all(tables)
        if args.self_test is not None:
            return _serve_self_test(args, engine, questions, out)
        return _serve_socket(args, engine, out)


def _serve_self_test(args: argparse.Namespace, engine, questions, out) -> int:
    import asyncio
    import time

    from .api import QueryRequest

    # Round-robin the questions into per-session streams.
    sessions = max(1, args.self_test)
    streams = [questions[start::sessions] for start in range(sessions)]
    streams = [stream for stream in streams if stream]

    async def _session(server, stream):
        # One user session: each question awaits the previous answer.
        return [
            await server.aquery(QueryRequest(question=question, target=table))
            for question, table in stream
        ]

    async def _self_test():
        async with engine.server(max_pending=args.max_pending) as server:
            started = time.perf_counter()
            answered = await asyncio.gather(
                *(_session(server, stream) for stream in streams)
            )
            elapsed = time.perf_counter() - started
            return answered, elapsed, server.stats_payload()["server"]

    answered, elapsed, stats = asyncio.run(_self_test())
    results = [result for session in answered for result in session]
    if args.emit_results:
        # The envelopes the server returned, one JSON line per
        # question, validated against schemas/query_result.v2.json by
        # scripts/validate_wire.py (CI runs exactly that pipeline).
        emit_path = Path(args.emit_results)
        emit_path.parent.mkdir(parents=True, exist_ok=True)
        with emit_path.open("w", encoding="utf-8") as handle:
            for result in results:
                handle.write(json.dumps(result.to_dict(), ensure_ascii=False) + "\n")
        print(f"wrote {len(results)} v2 result envelopes to {emit_path}", file=out)
    rate = f" ({len(results) / elapsed:.1f} q/s)" if elapsed > 0 else ""
    print(
        f"{len(streams)} concurrent sessions answered {len(results)} questions "
        f"in {elapsed:.2f}s{rate}",
        file=out,
    )
    print(f"dispatcher: {stats}", file=out)
    # An untrained parser may find no executable candidate; any other
    # coded error means the serving path itself failed.
    for result in results:
        if result.error_code not in (None, ErrorCode.PARSE_FAILURE):
            print(f"error[{result.error_code.value}]: {result.error.message}", file=out)
            return 1
    return 0


def _serve_socket(args: argparse.Namespace, engine, out) -> int:
    import asyncio

    async def _serve_forever():
        async with engine.server(max_pending=args.max_pending) as server:
            tcp = await server.serve(host=args.host, port=args.port)
            address = tcp.sockets[0].getsockname()
            print(
                f"serving {len(engine)} tables on {address[0]}:{address[1]} "
                "(JSON lines, protocol v2; send {\"op\": \"list\"} to "
                "enumerate, {\"question\": ..., \"target\": ...} to ask)",
                file=out,
            )
            out.flush()
            async with tcp:
                await tcp.serve_forever()

    try:
        asyncio.run(_serve_forever())
    except KeyboardInterrupt:
        print("stopped", file=out)
    return 0


def run_update(args: argparse.Namespace, out) -> int:
    from .tables import diff_tables, table_from_json

    engine = _corpus_engine(args, out, k=args.k)
    if engine is None:
        return 1
    with engine:
        catalog = engine.catalog
        old_ref = catalog.resolve(args.name)
        path = Path(args.table)
        with _caller_input(f"table {path}"):
            if path.suffix.lower() == ".json":
                new_table = table_from_json(path.read_text(encoding="utf-8"))
            else:
                new_table = table_from_csv(path)
        diff = diff_tables(catalog.table(old_ref), new_table)
        new_ref = engine.update(old_ref, new_table)
        if new_ref.digest == old_ref.digest:
            print(
                f"{old_ref.name}: content unchanged ({old_ref.short}); nothing to do",
                file=out,
            )
            return 0
        print(
            f"{old_ref.name}: v{old_ref.version} {old_ref.short} -> "
            f"v{new_ref.version} {new_ref.short}",
            file=out,
        )
        print(
            f"  columns: {len(diff.changed_columns)} changed, "
            f"{len(diff.added_columns)} added, {len(diff.removed_columns)} removed",
            file=out,
        )
        print(
            f"  rows   : {len(diff.changed_rows)} changed"
            + (" (row count changed)" if diff.row_count_changed else ""),
            file=out,
        )
        stats = catalog.stats()
        print(
            f"  catalog: version {stats['version']}, {stats['updates']} updates, "
            f"{stats['retired']} retired",
            file=out,
        )
        if args.question:
            result = engine.query(args.question, target=args.name, k=args.k)
            print(json.dumps(result.to_dict(), ensure_ascii=False, indent=2), file=out)
            return 0 if result.ok else 1
        return 0


def _bench_parse(args: argparse.Namespace):
    from .perf.bench import bench_pairs_from_dataset, run_parse_bench

    model = _load_model(args.model) if args.model else None
    pairs = bench_pairs_from_dataset(
        num_tables=args.tables, questions_per_table=args.questions, seed=args.seed
    )
    return run_parse_bench(
        pairs,
        model=model,
        repeats=args.repeats,
        workers=args.workers,
        backends=("thread", "process") if args.backend == "both" else (args.backend,),
        disk_cache_dir=args.disk_cache,
    )


def _bench_churn(args: argparse.Namespace):
    from .perf.bench import bench_pairs_from_dataset
    from .perf.churn import run_churn_bench

    pairs = bench_pairs_from_dataset(
        num_tables=args.tables, questions_per_table=args.questions, seed=args.seed
    )
    return run_churn_bench(pairs, edits=args.edits, seed=args.seed)


def _bench_discovery(args: argparse.Namespace):
    from .dataset.corpus import CorpusConfig
    from .perf.discovery import run_discovery_bench

    return run_discovery_bench(
        config=CorpusConfig(
            num_tables=args.tables, num_questions=args.questions, seed=args.seed
        ),
        max_candidates=args.top,
        identity_sample=args.identity_sample,
        build_repeats=args.repeats,
    )


def _bench_join(args: argparse.Namespace):
    from .dataset.join_corpus import JoinCorpusConfig
    from .perf.join import run_join_bench

    return run_join_bench(
        config=JoinCorpusConfig(
            num_pairs=args.pairs, num_questions=args.questions, seed=args.seed
        ),
        max_proposals=args.proposals,
    )


def run_bench(args: argparse.Namespace, out) -> int:
    from .perf.bench import BENCH_SCALE_ENV, bench_scale, summary_lines, write_payload

    with _caller_input(BENCH_SCALE_ENV):
        bench_scale()
    report = args.run_suite(args)
    payload = report.to_payload()
    for line in summary_lines(payload):
        print(line, file=out)
    # Join names each gold pair that failed to compose or to match SQL.
    for line in getattr(report, "failures", ()):
        print(f"  ! {line}", file=out)
    if args.output:
        print(f"wrote payload to {write_payload(args.output, payload)}", file=out)
    # Exit 1 exactly when the suite's integrity gate (``report.ok``) fails.
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_argument_parser().parse_args(argv)
    handlers = {
        "explain": run_explain,
        "ask": run_ask,
        "dataset": run_dataset,
        "study": run_study,
        "catalog": run_catalog,
        "route": run_route,
        "serve": run_serve,
        "update": run_update,
        "bench": run_bench,
    }
    try:
        status = handlers[args.command](args, out)
        out.flush()  # a closed stdout raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader closed stdout early (``repro route ... | head -n 1``),
        # so nothing more can reach it: end quietly.  Pointing stdout at
        # devnull keeps the exit-time flush from raising again (the Python
        # docs' SIGPIPE recipe).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ApiError, CatalogError, OSError, ValueError) as error:
        # One coded line, no traceback: every catalog/API failure — and
        # the mundane ones the input sites do not code themselves (an
        # unwritable --output) — funnels through the repro.api taxonomy.
        coded = classify_exception(error)
        print(f"error[{coded.code.value}]: {coded.message}", file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
