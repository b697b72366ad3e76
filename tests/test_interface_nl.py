"""Unit tests for the NL interface (parse + explain)."""

import pytest

from repro.interface import NLInterface
from repro.parser import SemanticParser


class TestAsk:
    def test_returns_explained_candidates(self, medals_table):
        interface = NLInterface(k=5)
        response = interface.ask("What was the Total of Fiji?", medals_table)
        assert 0 < len(response.explained) <= 5
        assert response.top is not None
        assert response.top.utterance
        assert response.top.answer

    def test_ranks_match_parser_order(self, medals_table):
        interface = NLInterface(k=7)
        response = interface.ask("Who had the most gold?", medals_table)
        for rank, item in enumerate(response.explained):
            assert item.rank == rank
            assert item.candidate.sexpr == response.parse.candidates[rank].sexpr

    def test_explanations_have_highlights(self, medals_table):
        interface = NLInterface(k=3)
        response = interface.ask("What was the Total of Fiji?", medals_table)
        for item in response.explained:
            assert item.explanation.highlighted.summary()["colored"] >= 1

    def test_timing_fields_populated(self, medals_table):
        interface = NLInterface(k=3)
        response = interface.ask("What was the Total of Fiji?", medals_table)
        assert response.parse_seconds > 0
        assert response.explain_seconds > 0

    def test_k_override(self, medals_table):
        interface = NLInterface(k=7)
        response = interface.ask("What was the Total of Fiji?", medals_table, k=2)
        assert len(response.explained) <= 2

    def test_as_text_contains_question_and_utterances(self, medals_table):
        interface = NLInterface(k=3)
        response = interface.ask("What was the Total of Fiji?", medals_table)
        text = response.as_text()
        assert "What was the Total of Fiji?" in text
        assert "candidate 1" in text

    def test_custom_parser_injected(self, medals_table):
        parser = SemanticParser()
        parser.model.weights = {"trigger:count:match": 3.0}
        interface = NLInterface(parser=parser, k=3)
        response = interface.ask("How many nations are there?", medals_table)
        assert response.parse.top is not None
