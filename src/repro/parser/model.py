"""The log-linear ranking model and its AdaGrad/L1 optimiser (paper Section 6.2).

The parser defines a log-linear distribution over candidate queries
(Equation 4)::

    p_theta(z | x, T)  ∝  exp(phi(x, T, z) · theta)

and is trained with AdaGrad (Duchi et al. 2011) to maximise the marginal
likelihood of the correct answer (Equation 6) or, for annotated examples,
of the correct queries (Equations 7-8), with an L1 regulariser.

The implementation keeps everything sparse: weights, gradients and the
per-feature AdaGrad accumulators are plain dictionaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .features import FeatureVector


def dot(weights: Dict[str, float], features: FeatureVector) -> float:
    """Sparse dot product ``theta · phi``."""
    return sum(weights.get(name, 0.0) * value for name, value in features.items())


def log_softmax(scores: Sequence[float]) -> List[float]:
    """Numerically stable log-softmax of a score list."""
    if not scores:
        return []
    maximum = max(scores)
    shifted = [score - maximum for score in scores]
    log_norm = math.log(sum(math.exp(score) for score in shifted))
    return [score - log_norm for score in shifted]


def softmax(scores: Sequence[float]) -> List[float]:
    """Numerically stable softmax of a score list."""
    return [math.exp(log_p) for log_p in log_softmax(scores)]


@dataclass
class AdaGradSettings:
    """Hyper-parameters of the optimiser.

    ``clip_threshold`` bounds the largest absolute component of a
    per-example gradient before the AdaGrad step.  Annotation supervision
    (Equation 7) concentrates the reward on very few candidates, which
    produces occasional outsized gradients on examples with hundreds of
    candidates; without clipping those examples dominate the AdaGrad
    accumulators and destabilise training.  ``None`` disables clipping.
    """

    learning_rate: float = 0.1
    l1_penalty: float = 1e-4
    epsilon: float = 1e-8
    clip_threshold: Optional[float] = 1.0


class LogLinearModel:
    """A sparse log-linear model over candidate queries."""

    def __init__(self, settings: Optional[AdaGradSettings] = None) -> None:
        self.settings = settings or AdaGradSettings()
        self.weights: Dict[str, float] = {}
        self._accumulators: Dict[str, float] = {}
        self.updates_applied = 0

    # -- scoring ----------------------------------------------------------------
    def score(self, features: FeatureVector) -> float:
        return dot(self.weights, features)

    def scores(self, feature_vectors: Sequence[FeatureVector]) -> List[float]:
        return [self.score(features) for features in feature_vectors]

    def probabilities(self, feature_vectors: Sequence[FeatureVector]) -> List[float]:
        """``p_theta(z | x, T)`` over a candidate list (Equation 4)."""
        return softmax(self.scores(feature_vectors))

    def rank(self, feature_vectors: Sequence[FeatureVector]) -> List[int]:
        """Candidate indices sorted by decreasing model score (ties keep order)."""
        scores = self.scores(feature_vectors)
        return sorted(range(len(scores)), key=lambda i: (-scores[i], i))

    # -- learning -----------------------------------------------------------------
    def gradient(
        self,
        feature_vectors: Sequence[FeatureVector],
        correct_indices: Sequence[int],
    ) -> FeatureVector:
        """Gradient of the per-example marginal log-likelihood.

        ``correct_indices`` marks the candidates with reward 1 — candidates
        whose execution matches the answer (weak supervision, Eq. 5) or
        candidates annotated as correct queries (Eq. 7).  The gradient is
        the difference between the feature expectation restricted to the
        correct candidates and the unrestricted feature expectation.
        """
        return self.gradient_and_log_likelihood(feature_vectors, correct_indices)[0]

    def gradient_and_log_likelihood(
        self,
        feature_vectors: Sequence[FeatureVector],
        correct_indices: Sequence[int],
    ) -> Tuple[FeatureVector, float]:
        """:meth:`gradient` and, from the same scoring, the log of the
        correct set's probability mass (``-inf`` when it is zero)."""
        if not feature_vectors or not correct_indices:
            return {}, float("-inf")
        probabilities = self.probabilities(feature_vectors)
        correct = set(correct_indices)
        correct_mass = sum(probabilities[i] for i in correct)
        if correct_mass <= 0.0:
            return {}, float("-inf")
        gradient: FeatureVector = {}
        for index, features in enumerate(feature_vectors):
            # posterior restricted to the correct set minus the full expectation
            posterior = probabilities[index] / correct_mass if index in correct else 0.0
            coefficient = posterior - probabilities[index]
            if coefficient == 0.0:
                continue
            for name, value in features.items():
                gradient[name] = gradient.get(name, 0.0) + coefficient * value
        return gradient, math.log(correct_mass)

    def apply_gradient(self, gradient: FeatureVector) -> None:
        """One AdaGrad ascent step with gradient clipping and L1 truncation."""
        settings = self.settings
        if settings.clip_threshold is not None and gradient:
            largest = max(abs(value) for value in gradient.values())
            if largest > settings.clip_threshold:
                scale = settings.clip_threshold / largest
                gradient = {name: value * scale for name, value in gradient.items()}
        for name, value in gradient.items():
            if value == 0.0:
                continue
            accumulator = self._accumulators.get(name, 0.0) + value * value
            self._accumulators[name] = accumulator
            step = settings.learning_rate / (math.sqrt(accumulator) + settings.epsilon)
            weight = self.weights.get(name, 0.0) + step * value
            # Truncated-gradient style L1: shrink towards zero by the penalty.
            shrink = step * settings.l1_penalty
            if weight > shrink:
                weight -= shrink
            elif weight < -shrink:
                weight += shrink
            else:
                weight = 0.0
            if weight == 0.0:
                self.weights.pop(name, None)
            else:
                self.weights[name] = weight
        self.updates_applied += 1

    def update(
        self,
        feature_vectors: Sequence[FeatureVector],
        correct_indices: Sequence[int],
    ) -> None:
        """Convenience: compute and apply the gradient of one example."""
        gradient = self.gradient(feature_vectors, correct_indices)
        if gradient:
            self.apply_gradient(gradient)

    def example_log_likelihood(
        self,
        feature_vectors: Sequence[FeatureVector],
        correct_indices: Sequence[int],
    ) -> float:
        """``log p_theta(y | x, T)`` for one example (Equation 5 / 7)."""
        if not feature_vectors or not correct_indices:
            return float("-inf")
        log_probabilities = log_softmax(self.scores(feature_vectors))
        correct = [log_probabilities[i] for i in set(correct_indices)]
        maximum = max(correct)
        return maximum + math.log(sum(math.exp(value - maximum) for value in correct))

    # -- persistence ----------------------------------------------------------------
    def copy(self) -> "LogLinearModel":
        clone = LogLinearModel(settings=AdaGradSettings(**vars(self.settings)))
        clone.weights = dict(self.weights)
        clone._accumulators = dict(self._accumulators)
        clone.updates_applied = self.updates_applied
        return clone

    def to_json(self) -> str:
        payload = {
            "settings": vars(self.settings),
            "weights": self.weights,
            "accumulators": self._accumulators,
            "updates_applied": self.updates_applied,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LogLinearModel":
        payload = json.loads(text)
        model = cls(settings=AdaGradSettings(**payload.get("settings", {})))
        model.weights = dict(payload.get("weights", {}))
        model._accumulators = dict(payload.get("accumulators", {}))
        model.updates_applied = int(payload.get("updates_applied", 0))
        return model

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "LogLinearModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"LogLinearModel({len(self.weights)} weights, {self.updates_applied} updates)"
