"""Lexical analysis of NL questions against a table.

The first stage of the semantic parser links phrases of the question to
table constants: column headers, cell values, numbers and dates.  This is
the table-specific "lexicon" used by the floating grammar to anchor its
derivations (the equivalent of entity/predicate linking in the Pasupat &
Liang / Zhang et al. parsers).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..tables.table import Table
from ..tables.values import (
    DateValue,
    NumberValue,
    StringValue,
    Value,
    parse_date,
    parse_number,
)

_TOKEN_RE = re.compile(r"[A-Za-z]+|\d+(?:[.,]\d+)*|\S")

#: Tokens carrying no lexical content; ignored when matching spans.
STOP_WORDS: FrozenSet[str] = frozenset(
    """a an and are at been by did do does for from had has have how in is it of on or
    s than that the their there this to was were what when where which who whose with
    many much more most least last first next only total number value""".split()
)


def tokenize(text: str) -> List[str]:
    """Lower-cased word/number/punctuation tokens of a question."""
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def content_tokens(text: str) -> List[str]:
    """Tokens with stop words removed (used by overlap features)."""
    return [token for token in tokenize(text) if token not in STOP_WORDS and token.isalnum()]


# -- shared normalization (lexicon <-> corpus retrieval) ----------------------
#
# The corpus-level retrieval layer (:mod:`repro.retrieval`) prunes shards
# *before* the parser runs, so its recall must cover everything the
# lexicon below could anchor on.  That guarantee only holds if both
# layers derive their terms through the same functions — these three are
# that shared surface.  Changing any of them changes what the lexicon
# matches AND what retrieval indexes, in lockstep.


def normalize_value_key(value: Value) -> str:
    """The normalized phrase key of one cell value.

    Exactly the key :class:`Lexicon` indexes entity values under (and
    matches question spans against): the value's display form, tokenized
    and re-joined.  Empty when the display form has no tokens.
    """
    return " ".join(tokenize(value.display()))


def column_matchable_tokens(column: str) -> Set[str]:
    """The token set a column header can be matched through.

    Content tokens of the header; for headers made entirely of stop words
    (for example a column literally named "of"), the raw tokens — the same
    fallback :meth:`Lexicon._match_columns` applies, so a header matchable
    by the lexicon is never invisible to retrieval.
    """
    return set(content_tokens(column)) or set(tokenize(column))


def question_phrases(
    tokens: Sequence[str], max_span_length: int = 5
) -> Set[str]:
    """Every contiguous token span of a question, joined into phrase keys.

    The phrase inventory entity linking draws from: a span can only
    become an :class:`EntityMatch` if its joined form appears here, so a
    retrieval index probed with this set can never miss a shard the
    lexicon could anchor an entity on.
    """
    phrases: Set[str] = set()
    for length in range(1, min(max_span_length, len(tokens)) + 1):
        for start in range(0, len(tokens) - length + 1):
            phrases.add(" ".join(tokens[start:start + length]))
    return phrases


@dataclass(frozen=True)
class EntityMatch:
    """A question span linked to a table cell value."""

    span: Tuple[int, int]
    text: str
    column: str
    value: Value

    @property
    def length(self) -> int:
        return self.span[1] - self.span[0]


@dataclass(frozen=True)
class ColumnMatch:
    """A question span linked to a column header."""

    span: Tuple[int, int]
    text: str
    column: str
    overlap: float


@dataclass(frozen=True)
class NumberMatch:
    """A literal number (or year / date) mentioned in the question."""

    span: Tuple[int, int]
    text: str
    value: Value


@dataclass(frozen=True)
class LexicalAnalysis:
    """All lexicon matches for one question over one table."""

    question: str
    tokens: Tuple[str, ...]
    entities: Tuple[EntityMatch, ...]
    columns: Tuple[ColumnMatch, ...]
    numbers: Tuple[NumberMatch, ...]

    def matched_columns(self) -> List[str]:
        ordered: List[str] = []
        for match in self.columns:
            if match.column not in ordered:
                ordered.append(match.column)
        return ordered

    def matched_entities(self) -> List[Tuple[str, Value]]:
        ordered: List[Tuple[str, Value]] = []
        for match in self.entities:
            key = (match.column, match.value)
            if key not in ordered:
                ordered.append(key)
        return ordered


class Lexicon:
    """Builds :class:`LexicalAnalysis` objects for questions over one table."""

    def __init__(self, table: Table, max_span_length: int = 5) -> None:
        self.table = table
        self.max_span_length = max_span_length
        self._value_index = self._build_value_index()
        self._column_tokens = {
            column: column_matchable_tokens(column) for column in table.columns
        }

    # -- index construction -----------------------------------------------------
    def _build_value_index(self) -> Dict[str, List[Tuple[str, Value]]]:
        """Phrase key -> ``(column, value)`` pairs, in table order.

        Each column's distinct values are walked in row order, so two
        values sharing one key (``St. Louis`` and ``St.Louis``) keep the
        table's order in every process, whatever its hash seed. Headers
        are unique and values distinct per column, so no pair repeats.
        """
        index: Dict[str, List[Tuple[str, Value]]] = {}
        for column in self.table.columns:
            for value in dict.fromkeys(self.table.column_values(column)):
                key = normalize_value_key(value)
                if key:
                    index.setdefault(key, []).append((column, value))
        return index

    # -- analysis ------------------------------------------------------------------
    def analyze(self, question: str) -> LexicalAnalysis:
        tokens = tokenize(question)
        entities = self._match_entities(tokens)
        columns = self._match_columns(tokens)
        numbers = self._match_numbers(tokens)
        return LexicalAnalysis(
            question=question,
            tokens=tuple(tokens),
            entities=tuple(entities),
            columns=tuple(columns),
            numbers=tuple(numbers),
        )

    def _match_entities(self, tokens: Sequence[str]) -> List[EntityMatch]:
        matches: List[EntityMatch] = []
        taken: Set[Tuple[int, int]] = set()
        # Longest spans first so "New Caledonia" wins over "Caledonia".
        for length in range(min(self.max_span_length, len(tokens)), 0, -1):
            for start in range(0, len(tokens) - length + 1):
                span = (start, start + length)
                if any(_overlaps(span, existing) for existing in taken):
                    continue
                phrase = " ".join(tokens[start:start + length])
                if length == 1 and phrase in STOP_WORDS:
                    continue
                for column, value in self._value_index.get(phrase, ()):
                    matches.append(
                        EntityMatch(span=span, text=phrase, column=column, value=value)
                    )
                if phrase in self._value_index:
                    taken.add(span)
        matches.sort(key=lambda match: (match.span, match.column))
        return matches

    def _match_columns(self, tokens: Sequence[str]) -> List[ColumnMatch]:
        question_tokens = set(tokens)
        matches: List[ColumnMatch] = []
        for column, column_tokens in self._column_tokens.items():
            if not column_tokens:
                continue
            common = question_tokens & column_tokens
            if not common:
                continue
            overlap = len(common) / len(column_tokens)
            if overlap < 0.5:
                continue
            positions = [i for i, token in enumerate(tokens) if token in common]
            span = (min(positions), max(positions) + 1)
            matches.append(
                ColumnMatch(
                    span=span,
                    text=" ".join(sorted(common)),
                    column=column,
                    overlap=overlap,
                )
            )
        matches.sort(key=lambda match: (-match.overlap, match.column))
        return matches

    def _match_numbers(self, tokens: Sequence[str]) -> List[NumberMatch]:
        matches: List[NumberMatch] = []
        for i, token in enumerate(tokens):
            number = parse_number(token)
            if number is None:
                continue
            matches.append(
                NumberMatch(span=(i, i + 1), text=token, value=NumberValue(number))
            )
        return matches


def _overlaps(left: Tuple[int, int], right: Tuple[int, int]) -> bool:
    return left[0] < right[1] and right[0] < left[1]
