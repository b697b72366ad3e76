"""The semantic-parser substrate: question → ranked lambda DCS candidates."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        ".lexicon": [
            "STOP_WORDS", "ColumnMatch", "EntityMatch", "LexicalAnalysis", "Lexicon",
            "NumberMatch", "content_tokens", "tokenize",
        ],
        ".grammar": ["CandidateGrammar", "GenerationConfig"],
        ".features": ["FeatureVector", "extract_features"],
        ".model": [
            "AdaGradSettings", "LogLinearModel", "dot", "log_softmax", "softmax",
        ],
        ".candidates": [
            "Candidate", "CandidateGenerator", "ParseOutput", "ParserConfig",
            "SemanticParser",
        ],
        ".evaluation": [
            "EvaluationExample", "EvaluationReport", "ExampleOutcome",
            "evaluate_parser", "find_correct_indices", "perturbed_tables",
            "queries_equivalent",
        ],
        ".training": [
            "EpochStats", "PreparedExample", "Trainer", "TrainerConfig",
            "TrainingExample", "TrainingStats", "train_parser",
        ],
    },
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
