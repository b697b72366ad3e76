"""Synthetic WikiTableQuestions-like benchmark (substitution for the real data)."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        ".domains": [
            "DOMAINS", "DOMAINS_BY_NAME", "ColumnSpec", "Domain", "get_domain",
        ],
        ".generator": ["TableGenerator", "generate_table"],
        ".questions": ["GeneratedQuestion", "QuestionGenerator"],
        ".dataset": [
            "Dataset", "DatasetConfig", "DatasetExample", "build_dataset",
            "dataset_statistics",
        ],
        ".splits": ["Split", "repeated_splits", "split_by_tables", "split_examples"],
        ".corpus": [
            "CorpusConfig", "DiscoveryCorpus", "DiscoveryQuestion",
            "build_discovery_corpus",
        ],
        ".join_corpus": [
            "FAMILIES", "JoinCorpus", "JoinCorpusConfig", "JoinFamily", "JoinQuestion",
            "build_join_corpus",
        ],
    },
)

__all__ = [
    "Domain",
    "ColumnSpec",
    "DOMAINS",
    "DOMAINS_BY_NAME",
    "get_domain",
    "TableGenerator",
    "generate_table",
    "QuestionGenerator",
    "GeneratedQuestion",
    "Dataset",
    "DatasetConfig",
    "DatasetExample",
    "build_dataset",
    "dataset_statistics",
    "Split",
    "split_by_tables",
    "split_examples",
    "repeated_splits",
    "CorpusConfig",
    "DiscoveryCorpus",
    "DiscoveryQuestion",
    "build_discovery_corpus",
    "FAMILIES",
    "JoinCorpus",
    "JoinCorpusConfig",
    "JoinFamily",
    "JoinQuestion",
    "build_join_corpus",
    "vocab",
]
