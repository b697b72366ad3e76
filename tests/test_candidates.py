"""Unit tests for the SemanticParser (generation + ranking)."""

import pytest

from repro.dataset import DatasetConfig, build_dataset
from repro.dcs import builder as q, to_sexpr
from repro.parser import LogLinearModel, ParserConfig, SemanticParser
from repro.parser.grammar import GenerationConfig


class CountingModel(LogLinearModel):
    """A model that counts how many feature vectors it scores."""

    def __init__(self):
        super().__init__()
        self.weights = {"op:Aggregate": 0.7, "answer:singleton": 0.2, "overlap:f1": 1.1}
        self.calls = 0

    def score(self, features):
        self.calls += 1
        return super().score(features)


class TestParsing:
    def test_parse_returns_ranked_candidates(self, medals_table):
        parser = SemanticParser()
        output = parser.parse("What was the total of Fiji?", medals_table, k=7)
        assert 0 < len(output.candidates) <= 7
        assert output.top is not None
        scores = [candidate.score for candidate in output.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_probabilities_sum_to_at_most_one(self, medals_table):
        parser = SemanticParser()
        output = parser.parse("What was the total of Fiji?", medals_table)
        assert sum(candidate.probability for candidate in output.candidates) <= 1.0 + 1e-9

    def test_candidates_carry_answers(self, medals_table):
        parser = SemanticParser()
        output = parser.parse("What was the total of Fiji?", medals_table, k=7)
        assert all(candidate.answer for candidate in output.candidates)

    def test_empty_answers_dropped_by_default(self, medals_table):
        parser = SemanticParser()
        output = parser.parse("total of Fiji", medals_table)
        assert all(not candidate.result.is_empty for candidate in output.candidates)

    def test_gold_query_is_among_candidates(self, medals_table):
        parser = SemanticParser()
        output = parser.parse("What was the difference in Total between Fiji and Tonga?", medals_table)
        gold = q.value_difference("Total", "Nation", "Fiji", "Tonga")
        reverse = q.value_difference("Total", "Nation", "Tonga", "Fiji")
        sexprs = {candidate.sexpr for candidate in output.candidates}
        assert to_sexpr(gold) in sexprs or to_sexpr(reverse) in sexprs

    def test_generation_time_recorded(self, medals_table):
        parser = SemanticParser()
        output = parser.parse("total of Fiji", medals_table)
        assert output.generation_seconds > 0.0

    def test_top_k_truncation(self, medals_table):
        parser = SemanticParser()
        output = parser.parse("total of Fiji", medals_table)
        assert len(output.top_k(3)) <= 3

    def test_trained_weights_change_ranking(self, medals_table):
        question = "How many nations are listed?"
        untrained = SemanticParser()
        baseline = untrained.parse(question, medals_table)

        trained = SemanticParser()
        trained.model.weights = {"trigger:count:match": 5.0, "trigger:count:missing_op": -5.0}
        output = trained.parse(question, medals_table)
        from repro.dcs import Aggregate, AggregateFunction

        top = output.top.query
        assert isinstance(top, Aggregate) and top.function == AggregateFunction.COUNT
        # the untrained parser does not make that guarantee
        assert baseline.top.sexpr != output.top.sexpr or True

    def test_parser_caches_lexicons_per_table(self, medals_table):
        parser = SemanticParser()
        parser.parse("total of Fiji", medals_table)
        parser.parse("gold of Samoa", medals_table)
        assert len(parser.generator._per_table) == 1


class TestRanking:
    def test_rank_scores_each_candidate_once(self, medals_table):
        model = CountingModel()
        parser = SemanticParser(model=model)
        candidates, _ = parser.generate_candidates("total of Fiji", medals_table)
        assert candidates
        model.calls = 0
        ranked = parser.rank(candidates)
        assert model.calls == len(candidates)
        # The scores and probabilities are the model's own, in a stable
        # descending-score order.
        vectors = [candidate.features for candidate in candidates]
        expected = sorted(
            zip(
                [candidate.sexpr for candidate in candidates],
                model.scores(vectors),
                model.probabilities(vectors),
            ),
            key=lambda entry: -entry[1],
        )
        assert [(c.sexpr, c.score, c.probability) for c in ranked] == expected

    @pytest.mark.parametrize("k", [0, 1, 5, 1000])
    def test_rank_top_k_is_the_prefix_of_the_full_rank(self, medals_table, k):
        """All-zero weights tie every score: the cut must keep input order."""
        parser = SemanticParser(model=LogLinearModel())
        candidates, _ = parser.generate_candidates(
            "difference between Fiji and Tonga", medals_table
        )
        assert len(candidates) > 5
        full = parser.rank(candidates)
        assert {candidate.score for candidate in full} == {0.0}
        cut = parser.rank(candidates, k=k)
        assert [(c.sexpr, c.score, c.probability) for c in cut] == [
            (c.sexpr, c.score, c.probability) for c in full[:k]
        ]
        assert [c.sexpr for c in cut] == [c.sexpr for c in candidates[:k]]

    @pytest.mark.parametrize("k", [1, 3, 1000])
    def test_top_k_parse_is_a_prefix_of_the_full_parse(self, medals_table, k):
        config = ParserConfig(max_candidates=20)
        full = SemanticParser(model=CountingModel(), config=config)
        cut = SemanticParser(model=CountingModel(), config=config)
        question = "difference between Fiji and Tonga"
        expected = full.parse(question, medals_table).candidates[:k]
        output = cut.parse(question, medals_table, k=k)
        assert len(output.candidates) == min(k, 20)
        assert [(c.sexpr, c.score, c.probability) for c in output.candidates] == [
            (c.sexpr, c.score, c.probability) for c in expected
        ]


class TestTopKCut:
    """A top-k parse serves the full parse's prefix and drops what only
    the ranker reads: the feature vectors and the lexical analysis."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return build_dataset(DatasetConfig(num_tables=4, questions_per_table=3, seed=7))

    @staticmethod
    def served(candidates):
        return [(c.sexpr, c.score, c.probability, c.result) for c in candidates]

    @pytest.mark.parametrize("k", [1, 7])
    def test_top_k_is_the_full_prefix_without_features(self, corpus, k):
        full_parser = SemanticParser(model=CountingModel())
        cut_parser = SemanticParser(model=CountingModel())
        for example in corpus.examples:
            full = full_parser.parse(example.question, example.table)
            cut = cut_parser.parse(example.question, example.table, k=k)
            assert self.served(cut.candidates) == self.served(full.candidates[:k])
            assert cut.analysis is None
            assert all(candidate.features is None for candidate in cut.candidates)
            assert full.analysis is not None
            assert all(candidate.features for candidate in full.candidates)

    def test_rank_refuses_candidates_without_features(self, medals_table):
        parser = SemanticParser(model=CountingModel())
        served = parser.parse("total of Fiji", medals_table, k=3).candidates
        assert served
        with pytest.raises(ValueError, match="re-rank the full list"):
            parser.rank(served)
        # One featureless candidate among full ones is refused too.
        candidates, _ = parser.generate_candidates("total of Fiji", medals_table)
        with pytest.raises(ValueError):
            parser.rank(candidates + served[:1])
        assert parser.rank(candidates)


class TestConfiguration:
    def test_max_candidates_limit(self, medals_table):
        config = ParserConfig(max_candidates=5)
        parser = SemanticParser(config=config)
        output = parser.parse("difference between Fiji and Tonga", medals_table)
        assert len(output.candidates) <= 5

    def test_generation_config_passed_through(self, medals_table):
        config = ParserConfig(generation=GenerationConfig(enable_difference=False))
        parser = SemanticParser(config=config)
        output = parser.parse("difference between Fiji and Tonga", medals_table)
        from repro.dcs import Difference

        assert not any(isinstance(candidate.query, Difference) for candidate in output.candidates)

    def test_keep_failing_candidates_when_configured(self, olympics_table):
        config = ParserConfig(drop_empty_answers=False, drop_failing_candidates=True)
        parser = SemanticParser(config=config)
        output = parser.parse("games hosted by Atlantis", olympics_table)
        # No match for Atlantis: with empty answers allowed, candidates may be empty results.
        assert isinstance(output.candidates, list)


class TestCandidateSexpr:
    """A candidate serializes its query once, on the first read."""

    @pytest.fixture
    def to_sexpr_calls(self, monkeypatch):
        from repro.parser import candidates as candidates_module

        calls = []

        def counting(query):
            calls.append(query)
            return to_sexpr(query)

        monkeypatch.setattr(candidates_module, "to_sexpr", counting)
        return calls

    def test_repeated_reads_make_no_to_sexpr_call(self, medals_table, to_sexpr_calls):
        output = SemanticParser().parse("What was the total of Fiji?", medals_table, k=7)
        first = [candidate.sexpr for candidate in output.candidates]
        assert len(to_sexpr_calls) == len(output.candidates)
        to_sexpr_calls.clear()
        again = [candidate.sexpr for candidate in output.candidates]
        repr(output.candidates[0])
        assert to_sexpr_calls == []
        assert again == first == [to_sexpr(c.query) for c in output.candidates]

    def test_a_repeated_served_question_reserializes_nothing(
        self, medals_table, to_sexpr_calls
    ):
        from repro.interface import NLInterface
        from repro.perf import serving_pool

        interface = NLInterface(k=7)
        items = [("What was the total of Fiji?", medals_table)]
        with serving_pool("thread", interface.parser) as pool:
            first = interface.ask_many(items, pool=pool)
            to_sexpr_calls.clear()
            second = interface.ask_many(items, pool=pool)
        assert to_sexpr_calls == []
        assert [e.candidate.sexpr for e in second[0].explained] == [
            e.candidate.sexpr for e in first[0].explained
        ]
