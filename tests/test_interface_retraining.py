"""Unit tests for the feedback-retraining pipeline (Table 9 machinery)."""

import pytest

from repro.interface import RetrainingConfig, RetrainingPipeline
from repro.users import FeedbackConfig, JudgmentParameters


@pytest.fixture(scope="module")
def pipeline_inputs():
    from repro.dataset import DatasetConfig, build_dataset, split_by_tables
    from repro.parser import train_parser

    dataset = build_dataset(DatasetConfig(num_tables=10, questions_per_table=5, seed=61))
    split = split_by_tables(dataset, test_fraction=0.3, seed=5)
    baseline = train_parser(
        split.train.training_examples()[:30], epochs=2, use_annotations=False, seed=1
    )
    return baseline, split


class TestFeedbackCollection:
    def test_collect_feedback_produces_training_examples(self, pipeline_inputs):
        baseline, split = pipeline_inputs
        pipeline = RetrainingPipeline(baseline, RetrainingConfig(epochs=2))
        feedback = pipeline.collect_feedback(split.train.examples[:12])
        assert len(feedback.training_examples) == 12
        assert feedback.annotated_count > 0


class TestComparison:
    def test_compare_reports_both_parsers(self, pipeline_inputs):
        baseline, split = pipeline_inputs
        pipeline = RetrainingPipeline(
            baseline,
            RetrainingConfig(
                epochs=2,
                feedback=FeedbackConfig(
                    seed=2,
                    judgment=JudgmentParameters(recognise_correct=0.95, reject_incorrect=0.99),
                ),
            ),
        )
        feedback = pipeline.collect_feedback(split.train.examples[:12])
        dev = split.test.evaluation_examples()[:10]
        comparison = pipeline.compare(
            annotated_training=feedback.training_examples,
            unannotated_training=[],
            dev_examples=dev,
        )
        summary = comparison.summary()
        assert summary["train_examples"] == 12
        assert 0.0 <= summary["correctness_with"] <= 1.0
        assert 0.0 <= summary["correctness_without"] <= 1.0
        assert "mrr_gain" in summary

    def test_train_parser_fresh_does_not_mutate_baseline(self, pipeline_inputs):
        baseline, split = pipeline_inputs
        before = dict(baseline.model.weights)
        pipeline = RetrainingPipeline(baseline, RetrainingConfig(epochs=1))
        pipeline.train_parser(split.train.training_examples()[:8], use_annotations=False)
        assert baseline.model.weights == before


class TestTrainParserSharesBaselineGenerator:
    def test_trained_parser_keeps_config_and_generates_nothing(self, monkeypatch):
        from repro.dataset import DatasetConfig, build_dataset
        from repro.parser import ParserConfig, SemanticParser, train_parser
        from repro.parser.grammar import CandidateGrammar, GenerationConfig

        examples = build_dataset(
            DatasetConfig(num_tables=3, questions_per_table=3, seed=61)
        ).training_examples()
        config = ParserConfig(generation=GenerationConfig(enable_difference=False))
        baseline = train_parser(
            examples, epochs=1, use_annotations=False, seed=1,
            parser=SemanticParser(config=config),
        )
        generated = []
        original = CandidateGrammar.generate

        def counting(grammar, analysis):
            generated.append(analysis.question)
            return original(grammar, analysis)

        monkeypatch.setattr(CandidateGrammar, "generate", counting)
        pipeline = RetrainingPipeline(baseline, RetrainingConfig(epochs=1))
        trained = pipeline.train_parser(examples, use_annotations=False)
        assert trained.config == config
        assert generated == []
