"""Unit tests for the question lexicon (entity/column/number linking)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parser import Lexicon, content_tokens, tokenize
from repro.tables import KnowledgeBase
from repro.tables.values import NumberValue, StringValue


class TestTokenisation:
    def test_tokenize_lowercases(self):
        assert tokenize("What was the Total of Fiji?") == [
            "what", "was", "the", "total", "of", "fiji", "?",
        ]

    def test_tokenize_keeps_numbers(self):
        assert "150" in tokenize("the $150 category")

    def test_content_tokens_drop_stop_words(self):
        tokens = content_tokens("What was the total of Fiji?")
        assert "fiji" in tokens
        assert "the" not in tokens
        assert "?" not in tokens


class TestEntityMatching:
    def test_single_token_entity(self, medals_table):
        analysis = Lexicon(medals_table).analyze("What was the total of Fiji?")
        assert ("Nation", StringValue("Fiji")) in analysis.matched_entities()

    def test_multi_token_entity(self, medals_table):
        analysis = Lexicon(medals_table).analyze("How many golds did New Caledonia win?")
        assert ("Nation", StringValue("New Caledonia")) in analysis.matched_entities()

    def test_longest_span_wins(self, shipwrecks_table):
        analysis = Lexicon(shipwrecks_table).analyze("ships wrecked in Lake Huron")
        matched = analysis.matched_entities()
        assert ("Lake", StringValue("Lake Huron")) in matched

    def test_two_entities_matched(self, medals_table):
        analysis = Lexicon(medals_table).analyze("difference between Fiji and Tonga")
        nations = {value.display() for column, value in analysis.matched_entities()}
        assert {"Fiji", "Tonga"} <= nations

    def test_no_entity_match(self, medals_table):
        analysis = Lexicon(medals_table).analyze("Who won the race?")
        assert analysis.matched_entities() == []

    def test_case_insensitive(self, olympics_table):
        analysis = Lexicon(olympics_table).analyze("when did greece host?")
        assert ("Country", StringValue("Greece")) in analysis.matched_entities()


class TestColumnMatching:
    def test_exact_header_match(self, medals_table):
        analysis = Lexicon(medals_table).analyze("Who won the most gold?")
        assert "Gold" in analysis.matched_columns()

    def test_multi_word_header_partial_match(self, shipwrecks_table):
        analysis = Lexicon(shipwrecks_table).analyze("How many lives were lost?")
        assert "Lives lost" in analysis.matched_columns()

    def test_unrelated_headers_not_matched(self, medals_table):
        analysis = Lexicon(medals_table).analyze("Who had the most gold?")
        assert "Silver" not in analysis.matched_columns()


class TestNumberMatching:
    def test_number_extracted(self, roster_table):
        analysis = Lexicon(roster_table).analyze("players with more than 4 games")
        assert any(match.value == NumberValue(4) for match in analysis.numbers)

    def test_year_extracted(self, olympics_table):
        analysis = Lexicon(olympics_table).analyze("what happened in 2004?")
        assert any(match.value == NumberValue(2004) for match in analysis.numbers)

    def test_no_numbers(self, olympics_table):
        analysis = Lexicon(olympics_table).analyze("which city hosted first?")
        assert analysis.numbers == ()


class TestSharedNormalization:
    """The term-extraction surface shared with repro.retrieval (ISSUE 4):
    the lexicon must consume the exact helpers the corpus index builds
    its postings from, or the retrieval recall-superset contract breaks."""

    def test_normalize_value_key_is_the_value_index_key(self, olympics_table):
        from repro.parser.lexicon import normalize_value_key

        # The knowledge base (Section 3.1) is the reference for the
        # values the lexicon indexes straight from the table.
        lexicon = Lexicon(olympics_table)
        for column in olympics_table.columns:
            for value in KnowledgeBase(olympics_table).column_entities(column):
                key = normalize_value_key(value)
                if key:
                    assert (column, value) in lexicon._value_index[key]

    def test_column_matchable_tokens_match_lexicon_columns(self, medals_table):
        from repro.parser.lexicon import column_matchable_tokens

        lexicon = Lexicon(medals_table)
        for column in medals_table.columns:
            assert lexicon._column_tokens[column] == column_matchable_tokens(column)

    def test_stop_word_only_header_falls_back_to_raw_tokens(self):
        from repro.parser.lexicon import column_matchable_tokens

        assert column_matchable_tokens("of") == {"of"}
        assert column_matchable_tokens("Lives lost") == {"lives", "lost"}

    def test_question_phrases_cover_every_entity_span(self, olympics_table):
        from repro.parser.lexicon import question_phrases

        lexicon = Lexicon(olympics_table)
        question = "did Rio de Janeiro host after Greece"
        tokens = tokenize(question)
        phrases = question_phrases(tokens)
        analysis = lexicon.analyze(question)
        assert analysis.entities  # the premise: something anchors
        for match in analysis.entities:
            assert match.text in phrases


#: Parses the two-spellings table in a fresh interpreter and prints the
#: lexicon's entries for the shared phrase key and the candidates' s-expressions.
_PARSE_TWO_SPELLINGS = """
import json
from repro.parser import Lexicon, SemanticParser
from repro.tables import Table

table = Table(
    columns=["City", "Year"],
    rows=[["St. Louis", 1904], ["St.Louis", 1905], ["Paris", 1900]],
    name="games",
)
entries = Lexicon(table)._value_index["st . louis"]
parse = SemanticParser().parse("which year was st. louis", table)
print(json.dumps({
    "entries": [value.display() for _, value in entries],
    "sexprs": [candidate.sexpr for candidate in parse.candidates],
}))
"""


class TestValueIndex:
    """The value index holds the knowledge base's values, in table order
    whatever the process's hash seed."""

    def test_value_index_holds_exactly_the_knowledge_base_values(self, olympics_table):
        from repro.parser.lexicon import normalize_value_key

        kb = KnowledgeBase(olympics_table)
        indexed = {
            (column, value)
            for pairs in Lexicon(olympics_table)._value_index.values()
            for column, value in pairs
        }
        expected = {
            (column, value)
            for column in olympics_table.columns
            for value in kb.column_entities(column)
            if normalize_value_key(value)
        }
        assert indexed == expected

    def test_candidates_do_not_depend_on_the_hash_seed(self):
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for seed in range(8):
            completed = subprocess.run(
                [sys.executable, "-c", _PARSE_TWO_SPELLINGS],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)},
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(json.loads(completed.stdout))
        first = outputs[0]
        assert first["entries"] == ["St. Louis", "St.Louis"]
        mentions = [sexpr for sexpr in first["sexprs"] if "St" in sexpr]
        assert mentions and '(value "St. Louis")' in mentions[0]
        for seed, output in enumerate(outputs):
            assert output == first, f"PYTHONHASHSEED={seed} parsed differently"
