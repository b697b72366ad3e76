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

A candidate's vector is built in one of two ways, with the same keys,
insertion order and value bits.  A generation call builds one
:class:`NodeFacts` table and reads every candidate's vector from it:
each distinct node's facts (its s-expression, its validity, its
operator counts and flags, size, depth, columns, the question entities
its literals use and its utterance) are composed once from its
children's, and the question-only facts (content tokens, the trigger
groups it mentions, whether it expects a number, its matched entities)
once per call, in a :class:`QuestionProfile`.  Called without a table,
:func:`extract_features` walks the query afresh and re-derives the
question facts: the slow reference the fast path is tested against.  No
fact outlives its call; there is no process-wide per-question cache.

Every key that is not a literal comes from a vocabulary built once at
import: ``op:<node class>`` for each query class of :mod:`repro.dcs.ast`
and the three outcome keys of each trigger group.  Every integral count
below 256 is one shared float.  Keys, insertion order and values are
exactly those of formatting each key and converting each count afresh,
so every score is unchanged.  A node class outside the vocabulary gets
its key formatted per vector (per node on the fast path); nothing here
is mutated at run time.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..tables.schema import TableSchema
from ..tables.table import Table
from ..tables.values import Value
from ..dcs import ast
from ..dcs.ast import AggregateFunction, Query, SuperlativeKind
from ..dcs.executor import ExecutionResult
from ..dcs.sexpr import compose_sexpr
from ..dcs.typing import node_issues
from ..core.utterance import compose_utterance, utterance
from .lexicon import LexicalAnalysis, column_matchable_tokens, content_tokens

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
#: The trigger phrases of each operator group, by group name.
_TRIGGER_GROUPS: Dict[str, Tuple[str, ...]] = {
    "count": _COUNT_TRIGGERS,
    "difference": _DIFFERENCE_TRIGGERS,
    "max": _MAX_TRIGGERS,
    "min": _MIN_TRIGGERS,
    "avg": _AVG_TRIGGERS,
    "sum": _SUM_TRIGGERS,
    "neighbor": _NEIGHBOR_TRIGGERS,
    "union": _UNION_TRIGGERS,
}
#: Phrases that make a question expect a numeric answer.
_NUMBER_TRIGGERS = ("how many", "how much", "what year", "difference", "what is the number")

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
    for name in _TRIGGER_GROUPS
}
#: ``float(n)`` for the small counts vectors hold: operator counts, query
#: size and depth, column and entity counts, answer sizes.
_COUNTS: Tuple[float, ...] = tuple(float(n) for n in range(256))

#: One bit per trigger group, in group order: a node's operator flags.
_FLAG: Dict[str, int] = {name: 1 << bit for bit, name in enumerate(_TRIGGER_GROUPS)}
#: Each group's name, flag bit and outcome keys, in group (insertion) order.
_TRIGGERS: Tuple[Tuple[str, int, Tuple[str, str, str]], ...] = tuple(
    (name, _FLAG[name], _TRIGGER_KEYS[name]) for name in _TRIGGER_GROUPS
)
_AGGREGATE_FLAGS: Dict[AggregateFunction, int] = {
    AggregateFunction.COUNT: _FLAG["count"],
    AggregateFunction.MAX: _FLAG["max"],
    AggregateFunction.MIN: _FLAG["min"],
    AggregateFunction.AVG: _FLAG["avg"],
    AggregateFunction.SUM: _FLAG["sum"],
}
_SUPERLATIVE_FLAGS: Dict[SuperlativeKind, int] = {
    SuperlativeKind.ARGMAX: _FLAG["max"],
    SuperlativeKind.ARGMIN: _FLAG["min"],
}
#: The features whose value is a ratio, not a count or a flag.
_RATIO_KEYS = (
    "overlap:precision", "overlap:recall", "overlap:f1",
    "columns:mentioned_fraction", "entities:used_fraction",
)
#: The nodes whose ``kind`` makes a query an argmax or an argmin.
_SUPERLATIVE_NODES = (
    ast.SuperlativeRecords, ast.FirstLastRecords, ast.IndexSuperlative,
    ast.CompareValues, ast.MostCommonValue,
)


def _count(n: int) -> float:
    """``float(n)``, one shared object per value for small ``n``."""
    return _COUNTS[n] if 0 <= n < len(_COUNTS) else float(n)


def extract_features(
    question: str,
    table: Table,
    query: Query,
    analysis: Optional[LexicalAnalysis] = None,
    result: Optional[ExecutionResult] = None,
    facts: Optional["NodeFacts"] = None,
) -> FeatureVector:
    """Compute the sparse feature vector for one (question, table, query) triple.

    With ``facts`` (the generation call's table, built for this
    ``question`` and ``analysis`` over this ``table``), the vector
    combines the root's composed facts, the call's question profile and
    ``result``.  Without it, everything is computed from scratch.
    """
    if facts is not None:
        return facts.features(query, result)
    features: FeatureVector = {}
    question_lower = question.lower()
    question_tokens = _content_token_set(question)

    _utterance_overlap_features(features, question_tokens, utterance(query))
    _column_features(features, question_tokens, query)
    _operator_features(features, question_lower, query)
    _structure_features(features, query)
    if result is not None:
        _denotation_features(features, _expects_number(question_lower), result)
    if analysis is not None:
        _entity_features(features, analysis, query)
    return features


# ---------------------------------------------------------------------------
# the question and node facts of one generation call
# ---------------------------------------------------------------------------


class QuestionProfile:
    """The question-only facts every candidate's vector reads.

    Built once per generation call (one per question), never shared
    between calls.  A column header is checked for a mention the first
    time a node names it (:meth:`classify`), and a set of operator flags
    gets its trigger features the first time a vector reads them.
    """

    __slots__ = ("tokens", "triggers", "expects_number", "entities", "mentioned",
                 "_classified", "_trigger_items")

    def __init__(self, question: str, analysis: Optional[LexicalAnalysis]) -> None:
        question_lower = question.lower()
        self.tokens = _content_token_set(question)
        self.triggers = _mentioned_trigger_groups(question_lower)
        self.expects_number = _expects_number(question_lower)
        #: The distinct (column, value) pairs the question matched.
        self.entities: Tuple[Tuple[str, Value], ...] = (
            tuple(dict.fromkeys(analysis.matched_entities())) if analysis else ()
        )
        #: The classified column headers the question mentions.
        self.mentioned: Set[str] = set()
        self._classified: Set[str] = set()
        self._trigger_items: Dict[int, Dict[str, float]] = {}

    def classify(self, columns: Sequence[str]) -> None:
        """Record which of ``columns`` the question mentions."""
        for column in columns:
            if column not in self._classified:
                self._classified.add(column)
                tokens = column_matchable_tokens(column)
                if tokens and tokens & self.tokens:
                    self.mentioned.add(column)

    def used_entities(self, literal: ast.ValueLiteral) -> int:
        """The bit mask of the matched entities whose value equals ``literal``'s."""
        return sum(
            1 << index
            for index, (_, value) in enumerate(self.entities)
            if value == literal.value
        )

    def trigger_items(self, flags: int) -> Dict[str, float]:
        """The trigger features of a query whose operators set ``flags``."""
        items = self._trigger_items.get(flags)
        if items is None:
            items = self._trigger_items[flags] = {}
            for name, flag, (match, missing_op, spurious_op) in _TRIGGERS:
                if name in self.triggers:
                    items[match if flags & flag else missing_op] = 1.0
                elif flags & flag:
                    items[spurious_op] = 1.0
        return items


#: Slots of a node's facts tuple; a ``(node, sexpr)`` entry has only
#: the first two.
_SEXPR, _VALID, _OPS, _FLAGS, _SIZE, _DEPTH, _COLUMNS, _ENTITIES, _TEXT = range(1, 10)


class NodeFacts:
    """One generation call's facts about each distinct query node.

    Every fact is composed from the node's children's, so each distinct
    node is worked on once however many candidates embed it.  Entries
    are keyed by node identity and are tuples that hold their node: a
    node the call drops (a deduplicated duplicate) keeps its id until
    :meth:`retain` or the end of the call, so no later node can alias it.

    An entry is ``(node, sexpr)`` while only its s-expression was read
    (grammar deduplication and execution memo keys read :meth:`sexpr`).
    The first :meth:`valid` or :meth:`features` read replaces it with
    ``(node, sexpr, valid, ops, flags, size, depth, columns, entities,
    text)``:

    * ``valid`` — no issue at the node or below it
      (:func:`~repro.dcs.typing.validate`'s verdict, bar the table's
      empty-rows check);
    * ``ops`` — its ``op:<class>`` keys and their counts (shared
      floats), flattened, in first pre-order occurrence;
    * ``flags`` — the trigger-group bits of its operators;
    * ``size``, ``depth`` and ``columns`` (in traversal order), as
      :class:`~repro.dcs.ast.Query` reports them;
    * ``entities`` — the bit mask of the question's matched entities its
      literals use;
    * ``text`` — its utterance, kept only once it is some node's child
      (``None`` until then): a candidate's own utterance is read once.

    Equal ``ops`` and ``columns`` tuples are one object, and so are equal
    ratio values across the call's vectors: most nodes repeat a few dozen
    operator profiles, and most vectors a few dozen ratios.
    """

    __slots__ = ("question", "_table", "_schema", "_has_rows", "_entries", "_interned", "_ratios")

    def __init__(
        self,
        question: str,
        analysis: Optional[LexicalAnalysis],
        table: Table,
        schema: TableSchema,
    ) -> None:
        self.question = QuestionProfile(question, analysis)
        self._table = table
        self._schema = schema
        self._has_rows = table.num_rows > 0
        self._entries: Dict[int, tuple] = {}
        self._interned: Dict[tuple, tuple] = {}
        self._ratios: Dict[float, float] = {}

    def sexpr(self, node: Query) -> str:
        """``to_sexpr(node)``, composed once per distinct node."""
        entry = self._entries.get(id(node))
        if entry is not None:
            return entry[_SEXPR]
        sexpr = compose_sexpr(node, [self.sexpr(child) for child in node.children()])
        self._entries[id(node)] = (node, sexpr)
        return sexpr

    def retain(self, roots: Sequence[Query]) -> None:
        """Drop every entry no node of ``roots`` reaches.

        Deduplication keys every query the grammar builds, duplicates
        and queries past its cap included; once the candidate list is
        final they would only pin those dropped nodes for the rest of
        the call.
        """
        entries = self._entries
        kept: Dict[int, tuple] = {}
        stack = list(roots)
        while stack:
            node = stack.pop()
            key = id(node)
            if key not in kept and key in entries:
                kept[key] = entries[key]
                stack.extend(node.children())
        self._entries = kept

    def valid(self, node: Query) -> bool:
        """Whether ``validate(node, table, schema)`` passes."""
        return self._has_rows and self._facts(node)[_VALID]

    def features(self, node: Query, result: Optional[ExecutionResult]) -> FeatureVector:
        """``extract_features`` of ``node`` for this call's question and table."""
        facts = self._facts(node)
        question = self.question
        features: FeatureVector = {}
        _utterance_overlap_features(
            features, question.tokens, self._utterance(node, facts, keep=False)
        )
        columns = facts[_COLUMNS]
        if columns:
            mentioned = len(question.mentioned.intersection(columns))
            features["columns:mentioned_fraction"] = mentioned / len(columns)
            features["columns:unmentioned"] = _count(len(columns) - mentioned)
        ops = facts[_OPS]
        for index in range(0, len(ops), 2):
            features[ops[index]] = ops[index + 1]
        features.update(question.trigger_items(facts[_FLAGS]))
        features["structure:size"] = _count(facts[_SIZE])
        features["structure:depth"] = _count(facts[_DEPTH])
        features["structure:columns"] = _count(len(columns))
        if result is not None:
            _denotation_features(features, question.expects_number, result)
        matched = len(question.entities)
        if matched:
            used = facts[_ENTITIES].bit_count()
            features["entities:used_fraction"] = used / matched
            features["entities:unused"] = _count(matched - used)
        # A call's few hundred vectors hold a few dozen distinct ratios:
        # one float object per value (the key keeps its place).
        ratios = self._ratios
        for key in _RATIO_KEYS:
            value = features.get(key)
            if value is not None:
                features[key] = ratios.setdefault(value, value)
        return features

    def _facts(self, node: Query) -> tuple:
        entry = self._entries.get(id(node))
        if entry is not None and len(entry) > 2:
            return entry
        children = [self._facts(child) for child in node.children()]
        sexpr = (
            entry[_SEXPR]
            if entry is not None
            else compose_sexpr(node, [child[_SEXPR] for child in children])
        )
        own_columns = node._own_columns()
        self.question.classify(own_columns)
        flags = _own_flags(node)
        entities = (
            self.question.used_entities(node) if isinstance(node, ast.ValueLiteral) else 0
        )
        for child in children:
            flags |= child[_FLAGS]
            entities |= child[_ENTITIES]
        ops = _merge_ops(node, children)
        columns = _merge_columns(own_columns, children)
        interned = self._interned
        entry = (
            node,
            sexpr,
            not node_issues(node, self._table, self._schema)
            and all(child[_VALID] for child in children),
            interned.setdefault(ops, ops),
            flags,
            1 + sum(child[_SIZE] for child in children),
            1 + max((child[_DEPTH] for child in children), default=0),
            interned.setdefault(columns, columns),
            entities,
            None,
        )
        self._entries[id(node)] = entry
        return entry

    def _utterance(self, node: Query, entry: tuple, keep: bool) -> str:
        """``utterance(node)`` from its children's, which are kept."""
        text = entry[_TEXT]
        if text is None:
            entries = self._entries
            text = compose_utterance(
                node,
                [
                    self._utterance(child, entries[id(child)], keep=True)
                    for child in node.children()
                ],
            )
            if keep:
                entries[id(node)] = entry[:_TEXT] + (text,)
        return text


def _merge_ops(node: Query, children: Sequence[tuple]) -> Tuple[object, ...]:
    """``node``'s ``op:<class>`` keys and counts, flattened, in first pre-order occurrence."""
    name = type(node).__name__
    counts: Dict[str, int] = {_OP_KEYS.get(name) or f"op:{name}": 1}
    for child in children:
        ops = child[_OPS]
        for index in range(0, len(ops), 2):
            counts[ops[index]] = counts.get(ops[index], 0) + int(ops[index + 1])
    return tuple(chain.from_iterable((key, _count(count)) for key, count in counts.items()))


def _own_flags(node: Query) -> int:
    """The trigger-group bits of ``node``'s own operator."""
    if isinstance(node, ast.Aggregate):
        return _AGGREGATE_FLAGS[node.function]
    if isinstance(node, _SUPERLATIVE_NODES):
        return _SUPERLATIVE_FLAGS[node.kind]
    if isinstance(node, ast.Difference):
        return _FLAG["difference"]
    if isinstance(node, (ast.PrevRecords, ast.NextRecords)):
        return _FLAG["neighbor"]
    if isinstance(node, ast.Union):
        return _FLAG["union"]
    return 0


def _merge_columns(own: Tuple[str, ...], children: Sequence[tuple]) -> Tuple[str, ...]:
    """``Query.columns()`` from the node's own columns and its children's.

    A node adding nothing to its only child's columns shares the child's
    tuple.
    """
    if not own and len(children) == 1:
        return children[0][_COLUMNS]
    return tuple(dict.fromkeys(chain(own, *(child[_COLUMNS] for child in children))))


# ---------------------------------------------------------------------------
# feature groups (the from-scratch path; the fast path reuses the
# utterance-overlap and denotation groups)
# ---------------------------------------------------------------------------


def _content_token_set(text: str) -> FrozenSet[str]:
    """``frozenset(content_tokens(text))``."""
    return frozenset(content_tokens(text))


def _mentioned_trigger_groups(question_lower: str) -> FrozenSet[str]:
    """The trigger groups whose phrases occur in the lowered question."""
    return frozenset(
        name
        for name, triggers in _TRIGGER_GROUPS.items()
        if any(trigger in question_lower for trigger in triggers)
    )


def _expects_number(question_lower: str) -> bool:
    """Whether the lowered question asks for a number."""
    return any(trigger in question_lower for trigger in _NUMBER_TRIGGERS)


def _utterance_overlap_features(
    features: FeatureVector, question_tokens: FrozenSet[str], text: str
) -> None:
    query_tokens = set(content_tokens(text))
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
        column_tokens = column_matchable_tokens(column)
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

    mentioned = _mentioned_trigger_groups(question_lower)
    _trigger_feature(features, "count", mentioned, has_count)
    _trigger_feature(features, "difference", mentioned, has_difference)
    _trigger_feature(features, "max", mentioned, has_max)
    _trigger_feature(features, "min", mentioned, has_min)
    _trigger_feature(features, "avg", mentioned, has_avg)
    _trigger_feature(features, "sum", mentioned, has_sum)
    _trigger_feature(features, "neighbor", mentioned, has_neighbor)
    _trigger_feature(features, "union", mentioned, has_union)


def _trigger_feature(
    features: FeatureVector,
    name: str,
    mentioned: FrozenSet[str],
    query_has_operator: bool,
) -> None:
    question_has_trigger = name in mentioned
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
    features: FeatureVector, expects_number: bool, result: ExecutionResult
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
