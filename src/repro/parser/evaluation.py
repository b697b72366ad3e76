"""Evaluation metrics for the semantic parser (paper Section 7.1).

The paper's central metric is *correctness*: the fraction of questions
whose top-ranked candidate is a correct **query** (a faithful translation
of the question), which is stricter than returning the correct **answer**
on the given table (Figure 8 shows two queries with the same answer, only
one of which is correct).

Because the reproduction has gold queries for every synthetic question, it
can decide correctness automatically: a candidate is a correct translation
when it is indistinguishable from the gold query both on the original table
and on several perturbed copies of it (row permutations and shuffles of the
numeric columns).  This operationalises precisely the paper's argument that
a correct query "consistently returns accurate results as the data evolves".

The module also implements the secondary metrics of Section 7: MRR (mean
reciprocal rank of the first correct candidate) and the correctness bound
(the fraction of questions whose top-k list contains a correct candidate).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..tables.table import Table
from ..tables.values import NumberValue, Value
from ..dcs.ast import Query
from ..dcs.errors import DCSError
from ..dcs.executor import Executor, answers_match, execute
from ..dcs.sexpr import to_sexpr
from .candidates import Candidate, ParseOutput, SemanticParser


# ---------------------------------------------------------------------------
# query equivalence
# ---------------------------------------------------------------------------


def perturbed_tables(table: Table, count: int = 3, seed: int = 13) -> List[Table]:
    """Build ``count`` perturbed copies of a table.

    Each copy permutes the row order and independently shuffles the values
    inside every numeric column.  The perturbations keep the cell contents
    (so entity joins still resolve) while changing which rows win
    superlatives, how neighbours line up, and what aggregates evaluate to —
    exactly the differences that separate a correct query from a lucky one.
    """
    rng = random.Random(seed)
    from ..tables.schema import infer_schema

    schema = infer_schema(table)
    copies = []
    for _ in range(count):
        order = list(range(table.num_rows))
        rng.shuffle(order)
        rows = [[cell.value for cell in table.records[index].cells] for index in order]
        for column_position, column in enumerate(table.columns):
            if schema.column(column).is_numeric:
                column_values = [row[column_position] for row in rows]
                rng.shuffle(column_values)
                for row, value in zip(rows, column_values):
                    row[column_position] = value
        copies.append(Table(columns=table.columns, rows=rows, name=f"{table.name}~perturbed"))
    return copies


def queries_equivalent(
    candidate: Query,
    gold: Query,
    table: Table,
    perturbations: int = 3,
    seed: int = 13,
) -> bool:
    """Decide whether ``candidate`` is a correct translation w.r.t. ``gold``.

    Two queries are considered equivalent when they produce matching answers
    on the original table and on every perturbed copy.  Identical
    s-expressions short-circuit to True.
    """
    if to_sexpr(candidate) == to_sexpr(gold):
        return True
    tables = [table] + perturbed_tables(table, count=perturbations, seed=seed)
    for current in tables:
        try:
            candidate_answer = execute(candidate, current).answer_values()
            gold_answer = execute(gold, current).answer_values()
        except DCSError:
            return False
        if not answers_match(candidate_answer, gold_answer):
            return False
    return True


# ---------------------------------------------------------------------------
# evaluation examples and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationExample:
    """One test question with its gold query and gold answer."""

    question: str
    table: Table
    gold_query: Query
    gold_answer: Tuple[Value, ...]


@dataclass
class ExampleOutcome:
    """The per-question bookkeeping behind the aggregate metrics."""

    example: EvaluationExample
    parse: ParseOutput
    correct_indices: List[int]
    top_is_correct: bool
    top_answer_matches: bool
    reciprocal_rank: float

    @property
    def has_correct_candidate(self) -> bool:
        return bool(self.correct_indices)


@dataclass
class EvaluationReport:
    """Aggregate metrics over a list of evaluation examples."""

    outcomes: List[ExampleOutcome] = field(default_factory=list)
    k: int = 7

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def correctness(self) -> float:
        """Fraction of questions whose top-1 candidate is a correct query."""
        if not self.outcomes:
            return 0.0
        return sum(outcome.top_is_correct for outcome in self.outcomes) / self.total

    @property
    def answer_accuracy(self) -> float:
        """Fraction of questions whose top-1 answer matches the gold answer."""
        if not self.outcomes:
            return 0.0
        return sum(outcome.top_answer_matches for outcome in self.outcomes) / self.total

    @property
    def mrr(self) -> float:
        """Mean reciprocal rank of the first correct candidate."""
        if not self.outcomes:
            return 0.0
        return sum(outcome.reciprocal_rank for outcome in self.outcomes) / self.total

    @property
    def correctness_bound(self) -> float:
        """Fraction of questions with a correct candidate in the top-k."""
        if not self.outcomes:
            return 0.0
        within = sum(
            1
            for outcome in self.outcomes
            if any(index < self.k for index in outcome.correct_indices)
        )
        return within / self.total

    def bound_at(self, k: int) -> float:
        """Correctness bound for an arbitrary ``k`` (used by the k-sensitivity bench)."""
        if not self.outcomes:
            return 0.0
        within = sum(
            1
            for outcome in self.outcomes
            if any(index < k for index in outcome.correct_indices)
        )
        return within / self.total

    def summary(self) -> Dict[str, float]:
        return {
            "examples": float(self.total),
            "correctness": self.correctness,
            "answer_accuracy": self.answer_accuracy,
            "mrr": self.mrr,
            f"bound@{self.k}": self.correctness_bound,
        }


def find_correct_indices(
    candidates: Sequence[Candidate],
    example: EvaluationExample,
    k: Optional[int] = None,
    perturbations: int = 3,
) -> List[int]:
    """Indices of candidates that are correct translations of the question.

    Only candidates whose answer on the original table already matches the
    gold answer are submitted to the (more expensive) perturbation check.
    """
    limit = len(candidates) if k is None else min(k, len(candidates))
    indices = []
    for index in range(limit):
        candidate = candidates[index]
        if not answers_match(candidate.result.answer_values(), example.gold_answer):
            continue
        if queries_equivalent(
            candidate.query, example.gold_query, example.table, perturbations=perturbations
        ):
            indices.append(index)
    return indices


def evaluate_parser(
    parser: SemanticParser,
    examples: Sequence[EvaluationExample],
    k: int = 7,
    candidate_limit: Optional[int] = None,
    perturbations: int = 3,
) -> EvaluationReport:
    """Run the parser over a list of examples and compute the Section 7 metrics."""
    report = EvaluationReport(k=k)
    for example in examples:
        parse = parser.parse(example.question, example.table, k=candidate_limit)
        correct = find_correct_indices(
            parse.candidates, example, perturbations=perturbations
        )
        top_is_correct = bool(correct) and correct[0] == 0
        top = parse.top
        top_answer_matches = bool(top) and answers_match(
            top.result.answer_values(), example.gold_answer
        )
        reciprocal_rank = 1.0 / (correct[0] + 1) if correct else 0.0
        report.outcomes.append(
            ExampleOutcome(
                example=example,
                parse=parse,
                correct_indices=correct,
                top_is_correct=top_is_correct,
                top_answer_matches=top_answer_matches,
                reciprocal_rank=reciprocal_rank,
            )
        )
    return report
