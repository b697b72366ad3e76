"""Online learning from user interactions (the paper's Future Work, Section 9).

The paper retrains the parser *offline* on collected annotations and names
run-time (online) learning as future work: instead of batching feedback,
the parser should update its parameters after every interaction, so that
later questions already benefit from earlier corrections.

:class:`OnlineLearner` implements that loop on top of the existing pieces:

1. parse the incoming question and show the top-k explained candidates,
2. obtain the user's choice (a simulated worker, or any callback),
3. answer with the hybrid policy (user's pick, else the parser's top),
4. immediately apply one AdaGrad update treating the picked query as a
   question-query annotation (Equation 7 with ``|A| = 1``),
5. record the running correctness so learning curves can be plotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..dcs.executor import answers_match
from ..parser.candidates import SemanticParser
from ..parser.evaluation import EvaluationExample, find_correct_indices
from ..users.worker import SimulatedWorker
from .nl_interface import NLInterface


@dataclass
class OnlineInteraction:
    """One question answered during the online session."""

    index: int
    example: EvaluationExample
    parser_correct: bool
    user_picked: bool
    hybrid_correct: bool
    updated: bool

    @property
    def improved_over_parser(self) -> bool:
        return self.hybrid_correct and not self.parser_correct


@dataclass
class OnlineReport:
    """The outcome of an online-learning session."""

    interactions: List[OnlineInteraction] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.interactions)

    @property
    def updates_applied(self) -> int:
        return sum(1 for interaction in self.interactions if interaction.updated)

    def parser_correctness(self) -> float:
        if not self.interactions:
            return 0.0
        return sum(i.parser_correct for i in self.interactions) / self.total

    def hybrid_correctness(self) -> float:
        if not self.interactions:
            return 0.0
        return sum(i.hybrid_correct for i in self.interactions) / self.total

    def learning_curve(self, window: int = 10) -> List[float]:
        """Moving-average parser correctness over the interaction stream."""
        curve = []
        values = [float(i.parser_correct) for i in self.interactions]
        for end in range(window, len(values) + 1):
            curve.append(sum(values[end - window:end]) / window)
        return curve

    def halves(self) -> tuple:
        """Parser correctness in the first and second half of the stream."""
        middle = self.total // 2
        first = self.interactions[:middle]
        second = self.interactions[middle:]
        rate = lambda chunk: (
            sum(i.parser_correct for i in chunk) / len(chunk) if chunk else 0.0
        )
        return rate(first), rate(second)


class OnlineLearner:
    """Runs the interface and updates the parser after every interaction."""

    def __init__(
        self,
        parser: SemanticParser,
        k: int = 7,
        perturbations: int = 2,
        learn: bool = True,
    ) -> None:
        self.parser = parser
        self.k = k
        self.perturbations = perturbations
        self.learn = learn

    def run(
        self,
        examples: Sequence[EvaluationExample],
        worker: SimulatedWorker,
    ) -> OnlineReport:
        """Process a stream of questions with one simulated worker in the loop."""
        report = OnlineReport()
        for index, example in enumerate(examples):
            report.interactions.append(self._step(index, example, worker))
        return report

    # -- internals ----------------------------------------------------------------
    def _step(
        self, index: int, example: EvaluationExample, worker: SimulatedWorker
    ) -> OnlineInteraction:
        candidates, _analysis = self.parser.generate_candidates(
            example.question, example.table
        )
        ranked = self.parser.rank(candidates)
        top_k = ranked[: self.k]
        correct = set(
            find_correct_indices(top_k, example, perturbations=self.perturbations)
        )
        displayed_correctness = [i in correct for i in range(len(top_k))]
        decision = worker.review_question(displayed_correctness)

        picked = decision.selected_index
        parser_correct = 0 in correct
        hybrid_correct = (
            displayed_correctness[picked] if picked is not None else parser_correct
        )

        updated = False
        if self.learn and picked is not None:
            updated = self._update_from_choice(example, ranked, top_k[picked])
        return OnlineInteraction(
            index=index,
            example=example,
            parser_correct=parser_correct,
            user_picked=picked is not None,
            hybrid_correct=hybrid_correct,
            updated=updated,
        )

    def _update_from_choice(self, example, ranked, chosen) -> bool:
        """One Equation-7 update: the chosen candidate is the annotation."""
        feature_vectors = [candidate.features for candidate in ranked]
        chosen_indices = [
            index
            for index, candidate in enumerate(ranked)
            if candidate.sexpr == chosen.sexpr
            or (
                candidate.result.values
                and chosen.result.values
                and answers_match(candidate.result.answer_values(), chosen.result.answer_values())
                and type(candidate.query) is type(chosen.query)
            )
        ]
        if not chosen_indices:
            return False
        self.parser.model.update(feature_vectors, chosen_indices)
        return True
