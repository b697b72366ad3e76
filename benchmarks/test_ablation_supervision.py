"""Ablation — how many annotated examples does the parser need?

Section 7.3 observes that correctness and MRR grow with the number of
annotated training examples.  The bench sweeps the size of the annotation
pool (using gold annotations, i.e. an idealised perfectly-labelling crowd)
and reports correctness/MRR on a fixed dev set.  Every budget trains fresh
weights on the baseline parser's candidate generator: candidates do not
depend on the weights, so each question is generated once for the sweep.
"""

from __future__ import annotations

import pytest

from repro.parser import SemanticParser, evaluate_parser, train_parser

from _bench_utils import K, print_table, scaled


@pytest.mark.benchmark(group="ablations")
def test_ablation_annotation_budget(benchmark, baseline_parser, bench_split):
    budgets = [0, scaled(20, minimum=10), scaled(60, minimum=25), scaled(120, minimum=45)]
    dev_examples = bench_split.test.evaluation_examples()[: scaled(40, minimum=15)]
    pool = bench_split.train.examples[: budgets[-1]]

    def run():
        results = []
        for budget in budgets:
            training = [
                example.to_training_example(annotated=(index < budget))
                for index, example in enumerate(pool)
            ]
            parser = train_parser(
                training, epochs=3, use_annotations=True, seed=17,
                parser=SemanticParser(generator=baseline_parser.generator),
            )
            report = evaluate_parser(parser, dev_examples, k=K)
            results.append((budget, report))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        "Ablation: annotated-example budget vs. dev correctness / MRR",
        ["annotations", "correctness", "MRR", f"bound@{K}"],
        [
            [budget, f"{report.correctness:.1%}", f"{report.mrr:.3f}", f"{report.correctness_bound:.1%}"]
            for budget, report in results
        ],
    )

    zero_budget = results[0][1]
    full_budget = results[-1][1]
    # Shape: the fully-annotated regime is at least as good as the
    # weak-supervision-only regime (usually clearly better).
    assert full_budget.correctness >= zero_budget.correctness - 0.02
    assert full_budget.mrr >= zero_budget.mrr - 0.02
