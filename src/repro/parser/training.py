"""Training the semantic parser (paper Section 6.2).

Two supervision signals are supported, matching the paper:

* **Weak supervision** (Equations 5-6): an example is a (question, table,
  answer) triple; every candidate whose execution matches the answer gets
  reward 1.  This is how WikiTableQuestions-style datasets are used and it
  is what makes the baseline parser learn spurious queries (Figure 8).
* **Annotation supervision** (Equations 7-8): an example additionally
  carries the set ``Q_x`` of queries marked correct by users through the
  query explanations; only those candidates get reward 1.  The objective
  mixes the two groups with the 1/|A| and 1/(N-|A|) weights of Equation 8.

Training uses per-example AdaGrad updates with L1 (Section 6.2).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..tables.table import Table
from ..tables.values import Value
from ..dcs.ast import Query
from ..dcs.executor import answers_match
from ..dcs.sexpr import to_sexpr
from .candidates import Candidate, SemanticParser
from .evaluation import EvaluationExample, EvaluationReport, evaluate_parser
from .features import FeatureVector


@dataclass(frozen=True)
class TrainingExample:
    """One training example: weakly supervised, optionally annotated."""

    question: str
    table: Table
    answer: Tuple[Value, ...]
    annotated_queries: Tuple[Query, ...] = ()

    @property
    def is_annotated(self) -> bool:
        return bool(self.annotated_queries)


@dataclass
class PreparedExample:
    """Candidates and reward indices, cached once before the epochs loop."""

    example: TrainingExample
    candidates: List[Candidate]
    weak_indices: List[int]
    annotated_indices: List[int]

    @property
    def feature_vectors(self) -> List[FeatureVector]:
        return [candidate.features for candidate in self.candidates]

    def reward_indices(self, use_annotations: bool) -> List[int]:
        if use_annotations and self.annotated_indices:
            return self.annotated_indices
        return self.weak_indices


@dataclass
class TrainerConfig:
    """Hyper-parameters of the training loop."""

    epochs: int = 5
    shuffle: bool = True
    seed: int = 0
    use_annotations: bool = True


@dataclass
class EpochStats:
    """One epoch; ``mean_log_likelihood`` averages each example's
    ``log p(y | x, T)`` as its gradient saw it, before its own update
    (examples with zero correct mass left out)."""

    epoch: int
    examples_used: int
    mean_log_likelihood: float
    seconds: float


@dataclass
class TrainingStats:
    """What :meth:`Trainer.train` returns."""

    epochs: List[EpochStats] = field(default_factory=list)
    skipped_examples: int = 0
    annotated_examples: int = 0
    total_examples: int = 0


class Trainer:
    """Trains a :class:`SemanticParser` with AdaGrad over cached candidates."""

    def __init__(self, parser: SemanticParser, config: Optional[TrainerConfig] = None) -> None:
        self.parser = parser
        self.config = config or TrainerConfig()

    # -- preparation -------------------------------------------------------------
    def prepare(self, examples: Sequence[TrainingExample]) -> List[PreparedExample]:
        """Generate candidates and reward sets once per example."""
        prepared = []
        for example in examples:
            candidates, _analysis = self.parser.generate_candidates(
                example.question, example.table
            )
            weak = [
                index
                for index, candidate in enumerate(candidates)
                if example.answer
                and candidate.result.answer_values()
                and answers_match(candidate.result.answer_values(), example.answer)
            ]
            annotated = self._annotated_indices(candidates, example, weak)
            prepared.append(
                PreparedExample(
                    example=example,
                    candidates=candidates,
                    weak_indices=weak,
                    annotated_indices=annotated,
                )
            )
        return prepared

    @staticmethod
    def _annotated_indices(
        candidates: Sequence[Candidate],
        example: TrainingExample,
        weak_indices: Sequence[int],
    ) -> List[int]:
        """Candidates rewarded under annotation supervision (the set ``Q_x``).

        A question may have more than one correct annotation (Section 6.2):
        besides the candidates whose s-expression exactly matches an
        annotated query, any answer-consistent candidate that is
        *equivalent* to an annotated query (same behaviour under table
        perturbations) is also rewarded.  Without this, pairs of equivalent
        candidates with identical features (e.g. a difference with its
        operands swapped) would be pushed in opposite directions, which only
        injects gradient noise.
        """
        if not example.annotated_queries:
            return []
        from .evaluation import queries_equivalent

        annotated_sexprs = {to_sexpr(query) for query in example.annotated_queries}
        indices = {
            index
            for index, candidate in enumerate(candidates)
            if candidate.sexpr in annotated_sexprs
        }
        for index in weak_indices:
            if index in indices:
                continue
            candidate = candidates[index]
            if any(
                queries_equivalent(candidate.query, annotated, example.table, perturbations=2)
                for annotated in example.annotated_queries
            ):
                indices.add(index)
        return sorted(indices)

    # -- training loop --------------------------------------------------------------
    def train(
        self,
        examples: Sequence[TrainingExample],
        prepared: Optional[List[PreparedExample]] = None,
    ) -> TrainingStats:
        """Run the configured number of AdaGrad epochs over the examples."""
        prepared = prepared if prepared is not None else self.prepare(examples)
        usable = [item for item in prepared if item.reward_indices(self.config.use_annotations)]
        stats = TrainingStats(
            skipped_examples=len(prepared) - len(usable),
            annotated_examples=sum(
                1 for item in usable
                if self.config.use_annotations and item.annotated_indices
            ),
            total_examples=len(usable),
        )
        if not usable:
            return stats

        annotated_count = sum(1 for item in usable if item.annotated_indices) \
            if self.config.use_annotations else 0
        unannotated_count = len(usable) - annotated_count
        rng = random.Random(self.config.seed)

        for epoch in range(self.config.epochs):
            started = time.perf_counter()
            order = list(usable)
            if self.config.shuffle:
                rng.shuffle(order)
            log_likelihoods = []
            for item in order:
                rewards = item.reward_indices(self.config.use_annotations)
                feature_vectors = item.feature_vectors
                weight = self._example_weight(
                    item, annotated_count, unannotated_count
                )
                gradient, log_likelihood = self.parser.model.gradient_and_log_likelihood(
                    feature_vectors, rewards
                )
                log_likelihoods.append(log_likelihood)
                if gradient:
                    if weight != 1.0:
                        gradient = {name: value * weight for name, value in gradient.items()}
                    self.parser.model.apply_gradient(gradient)
            finite = [value for value in log_likelihoods if value != float("-inf")]
            stats.epochs.append(
                EpochStats(
                    epoch=epoch,
                    examples_used=len(order),
                    mean_log_likelihood=sum(finite) / len(finite) if finite else float("-inf"),
                    seconds=time.perf_counter() - started,
                )
            )
        return stats

    def _example_weight(
        self, item: PreparedExample, annotated_count: int, unannotated_count: int
    ) -> float:
        """The Equation 8 group weights (1/|A| vs 1/(N-|A|)), rescaled by N.

        Rescaling by the total number of examples keeps the per-example
        gradient magnitude comparable to plain weak-supervision training
        (Equation 6); when every example belongs to a single group the two
        objectives coincide and the weight degenerates to 1.
        """
        if not self.config.use_annotations or annotated_count == 0 or unannotated_count == 0:
            return 1.0
        total = annotated_count + unannotated_count
        if item.annotated_indices:
            return total / (2.0 * annotated_count)
        return total / (2.0 * unannotated_count)


# ---------------------------------------------------------------------------
# convenience drivers
# ---------------------------------------------------------------------------


def train_parser(
    examples: Sequence[TrainingExample],
    epochs: int = 5,
    use_annotations: bool = True,
    seed: int = 0,
    parser: Optional[SemanticParser] = None,
) -> SemanticParser:
    """Train a (new) parser on the given examples and return it."""
    parser = parser or SemanticParser()
    trainer = Trainer(
        parser,
        TrainerConfig(epochs=epochs, use_annotations=use_annotations, seed=seed),
    )
    trainer.train(examples)
    return parser


def evaluate_on(
    parser: SemanticParser,
    examples: Sequence[EvaluationExample],
    k: int = 7,
) -> EvaluationReport:
    """Shorthand used by the benches: evaluate a parser on dev/test examples."""
    return evaluate_parser(parser, examples, k=k)
