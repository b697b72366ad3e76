"""Training on user feedback (paper Sections 6.2 and 7.3).

The pipeline reproduced here is the one behind the paper's Table 9:

1. start from a baseline parser (trained with weak, answer-only supervision),
2. run the explanation interface on *training* questions and collect
   question-query annotations from (simulated) workers — three workers per
   question, majority vote,
3. retrain the parser with the Equation 8 objective that treats annotated
   examples specially,
4. compare correctness and MRR on a held-out development set against a
   parser trained without the annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..dataset.dataset import DatasetExample
from ..parser.candidates import SemanticParser
from ..parser.evaluation import EvaluationExample, EvaluationReport, evaluate_parser
from ..parser.training import Trainer, TrainerConfig, TrainingExample
from ..users.feedback import FeedbackCollector, FeedbackConfig, FeedbackResult


@dataclass
class RetrainingComparison:
    """The with-annotations vs. without-annotations comparison of Table 9."""

    train_examples: int
    annotations: int
    with_annotations: EvaluationReport
    without_annotations: EvaluationReport

    @property
    def correctness_gain(self) -> float:
        return (
            self.with_annotations.correctness - self.without_annotations.correctness
        )

    @property
    def mrr_gain(self) -> float:
        return self.with_annotations.mrr - self.without_annotations.mrr

    def summary(self) -> Dict[str, float]:
        return {
            "train_examples": float(self.train_examples),
            "annotations": float(self.annotations),
            "correctness_with": self.with_annotations.correctness,
            "correctness_without": self.without_annotations.correctness,
            "mrr_with": self.with_annotations.mrr,
            "mrr_without": self.without_annotations.mrr,
            "correctness_gain": self.correctness_gain,
            "mrr_gain": self.mrr_gain,
        }


@dataclass
class RetrainingConfig:
    """Knobs of the feedback-retraining pipeline."""

    epochs: int = 4
    k: int = 7
    seed: int = 53
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)


class RetrainingPipeline:
    """Collect feedback with a baseline parser and retrain on it."""

    def __init__(
        self, baseline: SemanticParser, config: Optional[RetrainingConfig] = None
    ) -> None:
        self.baseline = baseline
        self.config = config or RetrainingConfig()

    # -- feedback collection -------------------------------------------------------
    def collect_feedback(self, examples: Sequence[DatasetExample]) -> FeedbackResult:
        """Run the explanation interface over training questions (step 2)."""
        collector = FeedbackCollector(self.baseline, self.config.feedback)
        return collector.collect(examples)

    # -- retraining ------------------------------------------------------------------
    def train_parser(
        self,
        training_examples: Sequence[TrainingExample],
        use_annotations: bool,
    ) -> SemanticParser:
        """Train a new parser on the given examples, with or without annotations.

        The parser starts from fresh weights on the baseline's
        :class:`~repro.parser.candidates.CandidateGenerator`, so it has
        the baseline's config and ranks the candidate lists the baseline
        already generated: only the ranker is retrained (Section 6).
        """
        parser = SemanticParser(generator=self.baseline.generator)
        trainer = Trainer(
            parser,
            TrainerConfig(
                epochs=self.config.epochs,
                use_annotations=use_annotations,
                seed=self.config.seed,
            ),
        )
        trainer.train(list(training_examples))
        return parser

    def compare(
        self,
        annotated_training: Sequence[TrainingExample],
        unannotated_training: Sequence[TrainingExample],
        dev_examples: Sequence[EvaluationExample],
    ) -> RetrainingComparison:
        """Train the two parsers of one Table 9 row and evaluate both on dev."""
        with_annotations = self.train_parser(
            list(annotated_training) + list(unannotated_training), use_annotations=True
        )
        stripped = [
            TrainingExample(
                question=example.question,
                table=example.table,
                answer=example.answer,
                annotated_queries=(),
            )
            for example in annotated_training
        ]
        without_annotations = self.train_parser(
            stripped + list(unannotated_training), use_annotations=False
        )
        report_with = evaluate_parser(with_annotations, dev_examples, k=self.config.k)
        report_without = evaluate_parser(without_annotations, dev_examples, k=self.config.k)
        annotations = sum(1 for example in annotated_training if example.annotated_queries)
        return RetrainingComparison(
            train_examples=len(annotated_training) + len(unannotated_training),
            annotations=annotations,
            with_annotations=report_with,
            without_annotations=report_without,
        )
