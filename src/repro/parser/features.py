"""Feature extraction φ(x, T, z) for the log-linear ranker (paper Eq. 4).

Features connect the NL question ``x`` with a candidate query ``z`` over
table ``T``.  They are sparse string-keyed counts, in the spirit of the
lexicalised / denotation features of the Pasupat & Liang and Zhang et al.
parsers:

* utterance overlap — precision/recall of the query-utterance content
  tokens against the question tokens,
* column linkage — are the query's columns mentioned in the question?
* trigger words — does the question contain the phrase that usually
  signals the query's top operator ("how many" → count, "difference" →
  sub, superlative adjectives → argmax/argmin, ...),
* denotation features — answer size, emptiness, answer type vs. the
  question's expected answer type,
* structural features — operator counts, query size.

A cold question builds one vector per candidate (a few hundred) and,
after a full parse, the parser's candidate cache keeps them, so the
vectors share what they can.
Every key that is not a literal comes from a vocabulary built once at
import: ``op:<node class>`` for each query class of :mod:`repro.dcs.ast`
and the three outcome keys of each trigger group.  Every integral count
below 256 is one shared float.  Keys, insertion order and values are
exactly those of formatting each key and converting each count afresh,
so every score is unchanged.  A node class outside the vocabulary gets
its key formatted per vector; nothing here is mutated at run time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..tables.table import Table
from ..tables.values import DateValue, NumberValue
from ..dcs import ast
from ..dcs.ast import AggregateFunction, Query, SuperlativeKind
from ..dcs.executor import ExecutionResult
from ..core.utterance import utterance
from .lexicon import LexicalAnalysis, content_tokens, tokenize

FeatureVector = Dict[str, float]

#: Trigger phrases signalling specific operators.
_COUNT_TRIGGERS = ("how many", "number of", "total number", "how much")
_DIFFERENCE_TRIGGERS = ("difference", "how many more", "how much more", "more than in")
_MAX_TRIGGERS = ("highest", "most", "largest", "biggest", "maximum", "last", "latest", "best", "top")
_MIN_TRIGGERS = ("lowest", "least", "smallest", "minimum", "first", "earliest", "fewest", "worst")
_AVG_TRIGGERS = ("average", "mean")
_SUM_TRIGGERS = ("total", "sum", "combined", "altogether")
_NEIGHBOR_TRIGGERS = ("after", "before", "next", "previous", "above", "below", "following")
_UNION_TRIGGERS = (" or ",)

#: ``op:<class name>`` for every query node class, by class name.
_OP_KEYS: Dict[str, str] = {
    name: f"op:{name}"
    for name, node_class in vars(ast).items()
    if isinstance(node_class, type) and issubclass(node_class, Query)
}
#: The (match, missing_op, spurious_op) keys of each trigger group.
_TRIGGER_KEYS: Dict[str, Tuple[str, str, str]] = {
    name: (f"trigger:{name}:match", f"trigger:{name}:missing_op",
           f"trigger:{name}:spurious_op")
    for name in ("count", "difference", "max", "min", "avg", "sum", "neighbor", "union")
}
#: ``float(n)`` for the small counts vectors hold: operator counts, query
#: size and depth, column and entity counts, answer sizes.
_COUNTS: Tuple[float, ...] = tuple(float(n) for n in range(256))


def _count(n: int) -> float:
    """``float(n)``, one shared object per value for small ``n``."""
    return _COUNTS[n] if 0 <= n < len(_COUNTS) else float(n)


def extract_features(
    question: str,
    table: Table,
    query: Query,
    analysis: Optional[LexicalAnalysis] = None,
    result: Optional[ExecutionResult] = None,
) -> FeatureVector:
    """Compute the sparse feature vector for one (question, table, query) triple."""
    features: FeatureVector = {}
    question_lower = question.lower()
    question_tokens = _content_token_set(question)

    _utterance_overlap_features(features, question_tokens, query)
    _column_features(features, question_tokens, query)
    _operator_features(features, question_lower, query)
    _structure_features(features, query)
    if result is not None:
        _denotation_features(features, question_lower, result)
    if analysis is not None:
        _entity_features(features, analysis, query)
    return features


# ---------------------------------------------------------------------------
# feature groups
# ---------------------------------------------------------------------------


def clear_token_caches() -> None:
    """Drop the memoised token sets (benchmarks use this so each measured
    mode starts cold)."""
    _content_token_set.cache_clear()
    _column_token_set.cache_clear()


@lru_cache(maxsize=8192)
def _content_token_set(text: str) -> FrozenSet[str]:
    """Cached content-token set: the same question (and the same column
    headers) are tokenised for every one of the ~600 candidates."""
    return frozenset(content_tokens(text))


@lru_cache(maxsize=8192)
def _column_token_set(column: str) -> FrozenSet[str]:
    """Cached token set of a column header, with the stop-word fallback."""
    return _content_token_set(column) or frozenset(tokenize(column))


def _utterance_overlap_features(
    features: FeatureVector, question_tokens: Set[str], query: Query
) -> None:
    query_tokens = set(content_tokens(utterance(query)))
    if not query_tokens or not question_tokens:
        features["overlap:empty"] = 1.0
        return
    common = question_tokens & query_tokens
    precision = len(common) / len(query_tokens)
    recall = len(common) / len(question_tokens)
    features["overlap:precision"] = precision
    features["overlap:recall"] = recall
    if precision + recall > 0:
        features["overlap:f1"] = 2 * precision * recall / (precision + recall)


def _column_features(
    features: FeatureVector, question_tokens: Set[str], query: Query
) -> None:
    columns = query.columns()
    if not columns:
        return
    mentioned = 0
    for column in columns:
        column_tokens = _column_token_set(column)
        if column_tokens and column_tokens & question_tokens:
            mentioned += 1
    features["columns:mentioned_fraction"] = mentioned / len(columns)
    features["columns:unmentioned"] = _count(len(columns) - mentioned)


def _operator_features(features: FeatureVector, question_lower: str, query: Query) -> None:
    # One walk for everything: the feature values are identical to probing
    # the query once per flag, but ~600 candidates per question made the
    # repeated traversals one of the hottest paths of a cold parse.
    nodes = list(query.walk())
    for operator, count in Counter(type(node).__name__ for node in nodes).items():
        features[_OP_KEYS.get(operator) or f"op:{operator}"] = _count(count)

    has_count = any(
        isinstance(node, ast.Aggregate) and node.function == AggregateFunction.COUNT
        for node in nodes
    )
    has_difference = any(isinstance(node, ast.Difference) for node in nodes)
    has_max = _has_superlative(nodes, SuperlativeKind.ARGMAX) or _has_aggregate(
        nodes, AggregateFunction.MAX
    )
    has_min = _has_superlative(nodes, SuperlativeKind.ARGMIN) or _has_aggregate(
        nodes, AggregateFunction.MIN
    )
    has_avg = _has_aggregate(nodes, AggregateFunction.AVG)
    has_sum = _has_aggregate(nodes, AggregateFunction.SUM)
    has_neighbor = any(
        isinstance(node, (ast.PrevRecords, ast.NextRecords)) for node in nodes
    )
    has_union = any(isinstance(node, ast.Union) for node in nodes)

    _trigger_feature(features, "count", question_lower, _COUNT_TRIGGERS, has_count)
    _trigger_feature(features, "difference", question_lower, _DIFFERENCE_TRIGGERS, has_difference)
    _trigger_feature(features, "max", question_lower, _MAX_TRIGGERS, has_max)
    _trigger_feature(features, "min", question_lower, _MIN_TRIGGERS, has_min)
    _trigger_feature(features, "avg", question_lower, _AVG_TRIGGERS, has_avg)
    _trigger_feature(features, "sum", question_lower, _SUM_TRIGGERS, has_sum)
    _trigger_feature(features, "neighbor", question_lower, _NEIGHBOR_TRIGGERS, has_neighbor)
    _trigger_feature(features, "union", question_lower, _UNION_TRIGGERS, has_union)


def _trigger_feature(
    features: FeatureVector,
    name: str,
    question_lower: str,
    triggers: Sequence[str],
    query_has_operator: bool,
) -> None:
    question_has_trigger = any(trigger in question_lower for trigger in triggers)
    match, missing_op, spurious_op = _TRIGGER_KEYS[name]
    if question_has_trigger and query_has_operator:
        features[match] = 1.0
    elif question_has_trigger and not query_has_operator:
        features[missing_op] = 1.0
    elif query_has_operator and not question_has_trigger:
        features[spurious_op] = 1.0


def _structure_features(features: FeatureVector, query: Query) -> None:
    features["structure:size"] = _count(query.size())
    features["structure:depth"] = _count(query.depth())
    features["structure:columns"] = _count(len(query.columns()))


def _denotation_features(
    features: FeatureVector, question_lower: str, result: ExecutionResult
) -> None:
    answer = result.answer_values()
    features["answer:size"] = _count(len(answer))
    if not answer:
        features["answer:empty"] = 1.0
        return
    if len(answer) == 1:
        features["answer:singleton"] = 1.0
    elif len(answer) > 5:
        features["answer:large"] = 1.0
    numeric = all(value.is_numeric for value in answer)
    expects_number = any(
        trigger in question_lower
        for trigger in ("how many", "how much", "what year", "difference", "what is the number")
    )
    if expects_number and numeric:
        features["answer:number_match"] = 1.0
    elif expects_number and not numeric:
        features["answer:number_mismatch"] = 1.0
    elif numeric and not expects_number:
        features["answer:unexpected_number"] = 1.0


def _entity_features(
    features: FeatureVector, analysis: LexicalAnalysis, query: Query
) -> None:
    matched = {(column, value) for column, value in analysis.matched_entities()}
    if not matched:
        return
    used = set()
    for node in query.walk():
        if isinstance(node, ast.ValueLiteral):
            for column, value in matched:
                if value == node.value:
                    used.add((column, value))
    features["entities:used_fraction"] = len(used) / len(matched)
    features["entities:unused"] = _count(len(matched) - len(used))


def _has_superlative(nodes: Sequence[Query], kind: SuperlativeKind) -> bool:
    for node in nodes:
        if isinstance(node, (ast.SuperlativeRecords, ast.FirstLastRecords,
                             ast.IndexSuperlative, ast.CompareValues)):
            if node.kind == kind:
                return True
        if isinstance(node, ast.MostCommonValue) and node.kind == kind:
            return True
    return False


def _has_aggregate(nodes: Sequence[Query], function: AggregateFunction) -> bool:
    return any(
        isinstance(node, ast.Aggregate) and node.function == function
        for node in nodes
    )
