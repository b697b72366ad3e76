"""Unit tests for feature extraction."""

import weakref
from collections import Counter

import pytest

from repro.dataset import DatasetConfig, build_dataset
from repro.dcs import MemoizedExecutor, ast, builder as q, execute, to_sexpr, validate
from repro.dcs.ast import AggregateFunction, SuperlativeKind
from repro.dcs.errors import DCSError
from repro.parser import Lexicon, SemanticParser, extract_features
from repro.parser import features as feature_module
from repro.parser.features import NodeFacts
from repro.parser.grammar import CandidateGrammar
from repro.parser.lexicon import content_tokens, tokenize
from repro.core.utterance import utterance
from repro.tables import Table
from repro.tables.schema import infer_schema


def features_for(question, table, query, with_result=True, with_analysis=True):
    analysis = Lexicon(table).analyze(question) if with_analysis else None
    result = execute(query, table) if with_result else None
    return extract_features(question, table, query, analysis=analysis, result=result)


class TestOverlapFeatures:
    def test_matching_query_has_higher_overlap(self, medals_table):
        question = "What was the total of Fiji?"
        good = q.column_values("Total", q.column_records("Nation", "Fiji"))
        bad = q.column_values("Silver", q.column_records("Nation", "Tonga"))
        good_features = features_for(question, medals_table, good)
        bad_features = features_for(question, medals_table, bad)
        assert good_features["overlap:recall"] > bad_features["overlap:recall"]

    def test_overlap_f1_between_zero_and_one(self, medals_table):
        features = features_for(
            "total of Fiji", medals_table,
            q.column_values("Total", q.column_records("Nation", "Fiji")),
        )
        assert 0.0 <= features.get("overlap:f1", 0.0) <= 1.0


class TestTriggerFeatures:
    def test_count_trigger_match(self, shipwrecks_table):
        query = q.count(q.column_records("Lake", "Lake Huron"))
        features = features_for("How many ships sank in Lake Huron?", shipwrecks_table, query)
        assert features.get("trigger:count:match") == 1.0

    def test_count_trigger_missing_operator(self, shipwrecks_table):
        query = q.column_values("Ship", q.column_records("Lake", "Lake Huron"))
        features = features_for("How many ships sank in Lake Huron?", shipwrecks_table, query)
        assert features.get("trigger:count:missing_op") == 1.0

    def test_spurious_difference_operator(self, medals_table):
        query = q.value_difference("Total", "Nation", "Fiji", "Tonga")
        features = features_for("What was the total of Fiji?", medals_table, query)
        assert features.get("trigger:difference:spurious_op") == 1.0

    def test_max_trigger_match(self, medals_table):
        query = q.column_values("Nation", q.argmax_records("Gold"))
        features = features_for("Which nation had the highest gold?", medals_table, query)
        assert features.get("trigger:max:match") == 1.0

    def test_average_trigger(self, roster_table):
        query = q.avg(q.column_values("Games", q.all_records()))
        features = features_for("What is the average games played?", roster_table, query)
        assert features.get("trigger:avg:match") == 1.0


class TestColumnAndEntityFeatures:
    def test_mentioned_column_fraction(self, medals_table):
        query = q.column_values("Gold", q.column_records("Nation", "Fiji"))
        features = features_for("How much gold did Fiji win?", medals_table, query)
        assert features["columns:mentioned_fraction"] > 0.0

    def test_unused_entity_penalised(self, medals_table):
        question = "difference between Fiji and Tonga?"
        partial = q.column_values("Total", q.column_records("Nation", "Fiji"))
        features = features_for(question, medals_table, partial)
        assert features["entities:unused"] >= 1.0

    def test_all_entities_used(self, medals_table):
        question = "difference between Fiji and Tonga?"
        full = q.value_difference("Total", "Nation", "Fiji", "Tonga")
        features = features_for(question, medals_table, full)
        assert features["entities:used_fraction"] == 1.0


class TestDenotationFeatures:
    def test_numeric_answer_for_how_many(self, shipwrecks_table):
        query = q.count(q.column_records("Lake", "Lake Huron"))
        features = features_for("How many ships sank in Lake Huron?", shipwrecks_table, query)
        assert features.get("answer:number_match") == 1.0

    def test_text_answer_for_how_many_is_mismatch(self, shipwrecks_table):
        query = q.column_values("Ship", q.column_records("Lake", "Lake Erie"))
        features = features_for("How many ships sank?", shipwrecks_table, query)
        assert features.get("answer:number_mismatch") == 1.0

    def test_singleton_answer_flag(self, medals_table):
        query = q.column_values("Total", q.column_records("Nation", "Fiji"))
        features = features_for("total of Fiji", medals_table, query)
        assert features.get("answer:singleton") == 1.0

    def test_no_result_no_denotation_features(self, medals_table):
        query = q.column_values("Total", q.column_records("Nation", "Fiji"))
        features = features_for("total of Fiji", medals_table, query, with_result=False)
        assert "answer:size" not in features


class TestStructureFeatures:
    def test_size_and_depth_present(self, medals_table):
        query = q.count(q.column_records("Nation", "Fiji"))
        features = features_for("how many?", medals_table, query)
        assert features["structure:size"] == 3.0
        assert features["structure:depth"] == 3.0

    def test_operator_counts(self, medals_table):
        query = q.count_difference("Nation", "Fiji", "Tonga")
        features = features_for("how many more", medals_table, query)
        assert features["op:Aggregate"] == 2.0
        assert features["op:Difference"] == 1.0


# ---------------------------------------------------------------------------
# the shared vocabulary
# ---------------------------------------------------------------------------


def reference_features(question, table, query, analysis, result):
    """φ(x, T, z) with every key formatted and every count converted afresh.

    An independent restatement of the feature definitions: the shared key
    vocabulary and count constants must never change a key, a value or
    the insertion order.
    """
    features = {}
    question_lower = question.lower()
    question_tokens = set(content_tokens(question))

    query_tokens = set(content_tokens(utterance(query)))
    if not query_tokens or not question_tokens:
        features["overlap:empty"] = 1.0
    else:
        common = question_tokens & query_tokens
        precision = len(common) / len(query_tokens)
        recall = len(common) / len(question_tokens)
        features["overlap:precision"] = precision
        features["overlap:recall"] = recall
        if precision + recall > 0:
            features["overlap:f1"] = 2 * precision * recall / (precision + recall)

    columns = query.columns()
    if columns:
        mentioned = 0
        for column in columns:
            tokens = set(content_tokens(column)) or set(tokenize(column))
            if tokens and tokens & question_tokens:
                mentioned += 1
        features["columns:mentioned_fraction"] = mentioned / len(columns)
        features["columns:unmentioned"] = float(len(columns) - mentioned)

    nodes = list(query.walk())
    for operator, count in Counter(type(node).__name__ for node in nodes).items():
        features[f"op:{operator}"] = float(count)

    def has(kinds, test=lambda node: True):
        return any(isinstance(node, kinds) and test(node) for node in nodes)

    def aggregate(function):
        return has(ast.Aggregate, lambda node: node.function == function)

    def superlative(kind):
        return has(
            (ast.SuperlativeRecords, ast.FirstLastRecords, ast.IndexSuperlative,
             ast.CompareValues, ast.MostCommonValue),
            lambda node: node.kind == kind,
        )

    groups = [
        ("count", feature_module._COUNT_TRIGGERS, aggregate(AggregateFunction.COUNT)),
        ("difference", feature_module._DIFFERENCE_TRIGGERS, has(ast.Difference)),
        ("max", feature_module._MAX_TRIGGERS,
         superlative(SuperlativeKind.ARGMAX) or aggregate(AggregateFunction.MAX)),
        ("min", feature_module._MIN_TRIGGERS,
         superlative(SuperlativeKind.ARGMIN) or aggregate(AggregateFunction.MIN)),
        ("avg", feature_module._AVG_TRIGGERS, aggregate(AggregateFunction.AVG)),
        ("sum", feature_module._SUM_TRIGGERS, aggregate(AggregateFunction.SUM)),
        ("neighbor", feature_module._NEIGHBOR_TRIGGERS,
         has((ast.PrevRecords, ast.NextRecords))),
        ("union", feature_module._UNION_TRIGGERS, has(ast.Union)),
    ]
    for name, triggers, has_operator in groups:
        has_trigger = any(trigger in question_lower for trigger in triggers)
        if has_trigger and has_operator:
            features[f"trigger:{name}:match"] = 1.0
        elif has_trigger:
            features[f"trigger:{name}:missing_op"] = 1.0
        elif has_operator:
            features[f"trigger:{name}:spurious_op"] = 1.0

    features["structure:size"] = float(query.size())
    features["structure:depth"] = float(query.depth())
    features["structure:columns"] = float(len(query.columns()))

    answer = result.answer_values()
    features["answer:size"] = float(len(answer))
    if not answer:
        features["answer:empty"] = 1.0
    else:
        if len(answer) == 1:
            features["answer:singleton"] = 1.0
        elif len(answer) > 5:
            features["answer:large"] = 1.0
        numeric = all(value.is_numeric for value in answer)
        expects_number = any(
            trigger in question_lower
            for trigger in ("how many", "how much", "what year", "difference",
                            "what is the number")
        )
        if expects_number and numeric:
            features["answer:number_match"] = 1.0
        elif expects_number:
            features["answer:number_mismatch"] = 1.0
        elif numeric:
            features["answer:unexpected_number"] = 1.0

    matched = set(analysis.matched_entities())
    if matched:
        used = {
            (column, value)
            for node in query.walk()
            if isinstance(node, ast.ValueLiteral)
            for column, value in matched
            if value == node.value
        }
        features["entities:used_fraction"] = len(used) / len(matched)
        features["entities:unused"] = float(len(matched) - len(used))
    return features


def exact(features):
    """Keys in order, with each value's type and exact bits."""
    return [(key, type(value), value.hex()) for key, value in features.items()]


#: Features whose value is an integral count (the rest are flags or ratios).
COUNT_KEYS = ("op:", "structure:", "answer:size", "columns:unmentioned", "entities:unused")


@pytest.fixture(scope="module")
def generated():
    """Every (question, table, candidates, analysis) of a small corpus."""
    dataset = build_dataset(DatasetConfig(num_tables=6, questions_per_table=4, seed=0))
    parser = SemanticParser()
    out = []
    for example in dataset.examples:
        candidates, analysis = parser.generate_candidates(example.question, example.table)
        out.append((example.question, example.table, candidates, analysis))
    return out


class TestSharedVocabulary:
    def test_vectors_equal_the_afresh_reference(self, generated):
        checked = 0
        for question, table, candidates, analysis in generated:
            for candidate in candidates:
                expected = reference_features(
                    question, table, candidate.query, analysis, candidate.result
                )
                assert exact(candidate.features) == exact(expected), candidate.sexpr
                checked += 1
        assert checked > 1000

    def test_equal_keys_and_counts_are_shared_objects(self, generated):
        keys = {}
        counts = {}
        for _, _, candidates, _ in generated:
            for candidate in candidates:
                for key, value in candidate.features.items():
                    assert keys.setdefault(key, key) is key, key
                    if key.startswith(COUNT_KEYS):
                        assert counts.setdefault(value, value) is value, (key, value)
        assert any(key.startswith("op:") for key in keys)
        assert any(key.startswith("trigger:") for key in keys)
        assert len(counts) > 3

    def test_unknown_node_class_and_large_counts_fall_back(self):
        class Unlisted(ast.AllRecords):
            pass

        # Utterance rendering has no rule for an unlisted class, so only the
        # operator group is run.
        features = {}
        feature_module._operator_features(features, "how many?", q.count(Unlisted()))
        assert features["op:Aggregate"] == 1.0
        assert features["op:Unlisted"] == 1.0
        assert feature_module._count(10**6) == 1e6
        assert feature_module._count(-1) == -1.0


# ---------------------------------------------------------------------------
# the per-call node facts against the from-scratch path
# ---------------------------------------------------------------------------


def distinct_nodes(queries):
    """Every distinct node (by identity) of ``queries``, children first."""
    seen = {}
    for query in queries:
        for node in query.walk():
            seen.setdefault(id(node), node)
    return list(seen.values())


class TestNodeFacts:
    """A generation call's facts equal what walking each node afresh gives."""

    def test_generated_vectors_equal_the_from_scratch_path(self, generated):
        checked = 0
        for question, table, candidates, analysis in generated:
            for candidate in candidates:
                scratch = extract_features(
                    question, table, candidate.query, analysis=analysis,
                    result=candidate.result,
                )
                assert exact(candidate.features) == exact(scratch), candidate.sexpr
                checked += 1
        assert checked > 1000

    def test_every_node_fact_equals_the_reference(self, generated):
        checked = 0
        for question, table, _, analysis in generated:
            schema = infer_schema(table)
            facts = NodeFacts(question, analysis, table, schema)
            grammar = CandidateGrammar(table)
            raw = grammar.keyed(facts.sexpr).generate(analysis)
            assert [to_sexpr(query) for query in raw] == [
                to_sexpr(query) for query in grammar.generate(analysis)
            ]
            facts.retain(raw)
            for node in distinct_nodes(raw):
                assert facts.sexpr(node) == to_sexpr(node)
                assert facts.valid(node) == bool(validate(node, table, schema))
                # The profile is the node's own, not only what a vector reads.
                entry = facts._facts(node)
                assert entry[feature_module._COLUMNS] == node.columns()
                assert entry[feature_module._SIZE] == node.size()
                assert entry[feature_module._DEPTH] == node.depth()
                result = None
                if node.result_kind != ast.ResultKind.RECORDS:
                    try:
                        result = execute(node, table)
                    except DCSError:
                        pass
                assert exact(facts.features(node, result)) == exact(
                    extract_features(question, table, node, analysis, result)
                ), to_sexpr(node)
                checked += 1
        assert checked > 1000

    def test_verdicts_cover_invalid_nodes_and_empty_tables(self, medals_table):
        question = "which nation has the highest gold"
        query = q.column_values("Nation", q.argmax_records("Nation"))
        analysis = Lexicon(medals_table).analyze(question)
        facts = NodeFacts(question, analysis, medals_table, infer_schema(medals_table))
        assert not validate(query, medals_table)
        assert facts.valid(query) is False
        assert facts.valid(query.records.records) is True
        empty = Table(columns=medals_table.columns, rows=[], name="empty")
        facts = NodeFacts(question, analysis, empty, infer_schema(medals_table))
        assert not validate(q.all_records(), empty)
        assert facts.valid(q.all_records()) is False

    def test_a_dropped_node_keeps_its_id_until_retained_away(self, medals_table):
        question = "total of Fiji"
        analysis = Lexicon(medals_table).analyze(question)
        facts = NodeFacts(question, analysis, medals_table, infer_schema(medals_table))
        kept = q.column_values("Total", q.column_records("Nation", "Fiji"))
        dropped = q.count(q.column_records("Nation", "Tonga"))
        facts.sexpr(kept)
        facts.sexpr(dropped)
        alive = weakref.ref(dropped)
        del dropped
        # The table holds the dropped node, so no new node can take its id.
        assert alive() is not None
        facts.retain([kept])
        assert alive() is None
        assert facts.sexpr(kept) == to_sexpr(kept)
        fresh = [q.count(q.column_records("Nation", "Samoa")) for _ in range(8)]
        for node in fresh:
            assert facts.sexpr(node) == to_sexpr(node)

    def test_execution_memo_counts_equal_to_sexpr_keys(self, generated):
        """The memo keyed by composed strings hits and misses exactly as one
        keyed by ``to_sexpr`` over the same candidates."""
        parser = SemanticParser()
        for question, table, _, _ in generated:
            before = dict(parser.cache_stats()["execution"])
            parser.generate_candidates(question, table, store=False)
            after = parser.cache_stats()["execution"]
            lexicon = Lexicon(table)
            analysis = lexicon.analyze(question)
            grammar = CandidateGrammar(table)
            reference = MemoizedExecutor(table)
            for query in grammar.generate(analysis):
                if not validate(query, table, grammar.schema):
                    continue
                try:
                    reference.execute(query)
                except DCSError:
                    pass
            assert after["hits"] - before["hits"] == reference.hits
            assert after["misses"] - before["misses"] == reference.misses
