"""The semantic-parser substrate: question → ranked lambda DCS candidates."""

from .lexicon import (
    STOP_WORDS,
    ColumnMatch,
    EntityMatch,
    LexicalAnalysis,
    Lexicon,
    NumberMatch,
    content_tokens,
    tokenize,
)
from .grammar import CandidateGrammar, GenerationConfig
from .features import FeatureVector, extract_features
from .model import AdaGradSettings, LogLinearModel, dot, log_softmax, softmax
from .candidates import Candidate, CandidateGenerator, ParseOutput, ParserConfig, SemanticParser
from .evaluation import (
    EvaluationExample,
    EvaluationReport,
    ExampleOutcome,
    evaluate_parser,
    find_correct_indices,
    perturbed_tables,
    queries_equivalent,
)
from .training import (
    EpochStats,
    PreparedExample,
    Trainer,
    TrainerConfig,
    TrainingExample,
    TrainingStats,
    train_parser,
)

__all__ = [
    "tokenize",
    "content_tokens",
    "STOP_WORDS",
    "Lexicon",
    "LexicalAnalysis",
    "EntityMatch",
    "ColumnMatch",
    "NumberMatch",
    "CandidateGrammar",
    "GenerationConfig",
    "extract_features",
    "FeatureVector",
    "LogLinearModel",
    "AdaGradSettings",
    "dot",
    "softmax",
    "log_softmax",
    "SemanticParser",
    "CandidateGenerator",
    "ParserConfig",
    "ParseOutput",
    "Candidate",
    "EvaluationExample",
    "EvaluationReport",
    "ExampleOutcome",
    "evaluate_parser",
    "find_correct_indices",
    "queries_equivalent",
    "perturbed_tables",
    "TrainingExample",
    "Trainer",
    "TrainerConfig",
    "TrainingStats",
    "EpochStats",
    "PreparedExample",
    "train_parser",
]
