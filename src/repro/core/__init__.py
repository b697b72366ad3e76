"""The paper's core contribution: provenance, utterances and highlights.

Exports load on first use (:mod:`repro._lazy`), except the utterance
module's: ``utterance`` is both an exported function and the submodule
``repro.core.utterance``, so it is imported eagerly, before anything can
bind the submodule over the name, and every process that parses loads
it anyway. A served process therefore loads no provenance, highlight,
sampling or rendering code until an explanation's highlight is read.
"""

from .. import _lazy
from .utterance import DerivationNode, UtteranceResult, derive, utterance

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        ".provenance": [
            "AggregateMarker", "MultilevelProvenance", "ProvenanceEngine",
            "ProvenanceLevel", "compute_provenance",
        ],
        ".highlights": ["HighlightedTable", "HighlightLevel", "Highlighter", "highlight"],
        ".grammar_templates": ["TABLE3_RULES", "GrammarRule", "format_table3", "rules_for_node"],
        ".sampling": ["HighlightSample", "HighlightSampler", "sample_highlights"],
        ".rendering": ["TEXT_LEGEND", "render_html", "render_table_text", "render_text"],
        ".explanation": [
            "LARGE_TABLE_THRESHOLD", "ExplanationGenerator", "QueryExplanation",
            "explain", "explain_candidates",
        ],
    },
)

__all__ = [
    "AggregateMarker",
    "ProvenanceLevel",
    "MultilevelProvenance",
    "ProvenanceEngine",
    "compute_provenance",
    "HighlightLevel",
    "HighlightedTable",
    "Highlighter",
    "highlight",
    "utterance",
    "derive",
    "UtteranceResult",
    "DerivationNode",
    "GrammarRule",
    "TABLE3_RULES",
    "rules_for_node",
    "format_table3",
    "HighlightSample",
    "HighlightSampler",
    "sample_highlights",
    "render_text",
    "render_html",
    "render_table_text",
    "TEXT_LEGEND",
    "QueryExplanation",
    "ExplanationGenerator",
    "explain",
    "explain_candidates",
    "LARGE_TABLE_THRESHOLD",
]
