"""Unit tests for combined query explanations (utterance + highlights)."""

import pytest

from repro.api import QueryRequest, result_from_response
from repro.core import (
    LARGE_TABLE_THRESHOLD,
    ExplanationGenerator,
    explain,
    explain_candidates,
    sample_highlights,
)
from repro.core.highlights import Highlighter
from repro.core.utterance import derive
from repro.dcs import builder as q, to_sexpr
from repro.interface import NLInterface
from repro.perf import serving_pool


class TestSingleExplanation:
    def test_explanation_bundles_everything(self, medals_table):
        query = q.value_difference("Total", "Nation", "Fiji", "Tonga")
        explanation = explain(query, medals_table)
        assert explanation.utterance.startswith("difference in values of column Total")
        assert explanation.answer == ("110",)
        assert explanation.sexpr == to_sexpr(query)
        assert explanation.highlighted.summary()["colored"] == 2

    def test_small_table_shows_every_row(self, medals_table):
        query = q.count(q.column_records("Nation", "Fiji"))
        explanation = explain(query, medals_table)
        assert not explanation.uses_sampling
        assert explanation.display_rows() == list(range(medals_table.num_rows))

    def test_large_table_falls_back_to_sampling(self, large_table):
        assert large_table.num_rows > LARGE_TABLE_THRESHOLD
        query = q.max_(
            q.column_values("Growth Rate", q.column_records("Country", "Madagascar"))
        )
        explanation = explain(query, large_table)
        assert explanation.uses_sampling
        assert 0 < len(explanation.display_rows()) <= 3

    def test_sample_is_drawn_on_first_read(self, medals_table):
        """A small table displays every row, so rendering its explanation
        draws no sample; a later read draws the sampler's own rows."""
        query = q.value_difference("Total", "Nation", "Fiji", "Tonga")
        explanation = explain(query, medals_table)
        explanation.as_text()
        assert "sample" not in vars(explanation)
        expected = sample_highlights(query, medals_table)
        assert explanation.sample.row_indices == expected.row_indices
        assert explanation.sample.output_rows == expected.output_rows

    def test_memoized_small_table_explanations_hold_no_sample(self, olympics_table):
        interface = NLInterface(k=3)
        with serving_pool("thread", interface.parser) as pool:
            [response] = interface.ask_many(
                [("which country hosted in 2004", olympics_table)], pool=pool
            )
            response.as_text()
            memoized = pool.explanations.items_for(olympics_table.fingerprint.digest)
        assert len(memoized) == len(response.explained) > 0
        assert all("sample" not in vars(item) for item in memoized.values())

    def test_highlight_derivation_and_sexpr_are_built_on_first_read(self, medals_table):
        query = q.value_difference("Total", "Nation", "Fiji", "Tonga")
        explanation = explain(query, medals_table)
        assert not {"highlighted", "derivation", "sexpr"} & set(vars(explanation))
        expected = Highlighter(medals_table).highlight(query)
        assert explanation.highlighted.levels == expected.levels
        assert explanation.highlighted.header_markers == expected.header_markers
        assert explanation.derivation == derive(query).derivation
        assert explanation.sexpr == to_sexpr(query)

    def test_served_explanations_share_the_candidate_result(self, olympics_table):
        """Serving reads only the utterance: a memoized explanation holds
        no highlight or derivation, and keeps the ranked candidate's own
        execution result instead of running the query again."""
        interface = NLInterface(k=3)
        question = "which country hosted in 2004"
        with serving_pool("thread", interface.parser) as pool:
            [response] = interface.ask_many([(question, olympics_table)], pool=pool)
            result = result_from_response(QueryRequest(question=question), response)
            memoized = pool.explanations.items_for(olympics_table.fingerprint.digest)
        assert result.ok and len(result.candidates) == len(response.explained) > 0
        assert len(memoized) == len(response.explained)
        for item in response.explained:
            explanation = memoized[(olympics_table.fingerprint, item.candidate.sexpr)]
            assert explanation is item.explanation
            assert not {"highlighted", "derivation"} & set(vars(explanation))
            assert explanation.result is item.candidate.result

    def test_text_rendering_contains_utterance(self, olympics_table):
        query = q.column_values("Year", q.column_records("Country", "Greece"))
        explanation = explain(query, olympics_table)
        text = explanation.as_text()
        assert text.startswith("utterance: values in column Year")
        assert "Athens" in text

    def test_html_rendering_contains_caption(self, olympics_table):
        query = q.most_common("City")
        explanation = explain(query, olympics_table)
        assert "<caption>" in explanation.as_html()

    def test_derivation_matches_utterance(self, olympics_table):
        query = q.count(q.column_records("City", "Athens"))
        explanation = explain(query, olympics_table)
        assert explanation.derivation.text == explanation.utterance


class TestCandidateExplanations:
    def test_explains_every_candidate(self, seasons_table):
        queries = [
            q.max_(q.column_values("Year", q.column_records("League", "USL A-League"))),
            q.min_(q.column_values("Year", q.argmax_records("Attendance"))),
            q.count(q.column_records("League", "USL A-League")),
        ]
        explanations = explain_candidates(queries, seasons_table)
        assert len(explanations) == 3
        assert len({explanation.utterance for explanation in explanations}) == 3

    def test_generator_reuse(self, olympics_table):
        generator = ExplanationGenerator(olympics_table)
        first = generator.explain(q.most_common("City"))
        second = generator.explain(q.count(q.all_records()))
        assert first.table is second.table
