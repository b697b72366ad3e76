"""``scripts/perfbench_pairs.py``: the pair verdict, fed canned result lines.

No benchmark runs here: each "run" is the last line ``perfbench/run.py``
prints, written out by hand.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_pairs", REPO_ROOT / "scripts" / "perfbench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(rss, setup=0.0003, accuracy=0.592896, correct=True):
    return json.dumps({
        "correct": correct,
        "attempted": 6000,
        "failed": 0 if correct else 3,
        "metrics": {
            "setup_s": {"value": setup, "unit": "s"},
            "rss_peak_mb": {"value": rss, "unit": "MB"},
            "answer_accuracy": {"value": accuracy, "unit": "share"},
        },
    })


def runs(pairs, values):
    return [
        pairs.parse_run(f"workload: interactive\n{result_line(value)}\n", f"run {index}")
        for index, value in enumerate(values)
    ]


PARENT_RSS = [38.9, 38.8, 39.0, 38.9, 38.85, 38.95, 38.9, 39.0, 38.8, 38.9]


class TestParseRun:
    def test_reads_the_last_line(self, pairs):
        values = pairs.parse_run("problem: none\n" + result_line(37.5) + "\n\n", "run")
        assert values == {"setup_s": 0.0003, "rss_peak_mb": 37.5, "answer_accuracy": 0.592896}

    @pytest.mark.parametrize(
        "output",
        [result_line(37.5, correct=False), result_line(37.5) + "\ntraceback", ""],
    )
    def test_refuses_a_run_that_is_not_correct(self, pairs, output):
        with pytest.raises(pairs.RunRefused):
            pairs.parse_run(output, "pair 3 change")


class TestVerdict:
    def test_gated_metrics_are_the_benchmark_end_to_end_metrics(self, pairs):
        assert pairs.gated_metrics(REPO_ROOT / "BENCHMARK.json") == [
            ("setup_s", "lower"), ("rss_peak_mb", "lower"), ("answer_accuracy", "higher"),
        ]

    def test_a_clear_drop_is_resolved(self, pairs):
        change = [value - 1.2 for value in PARENT_RSS]
        change[4] = 39.1  # one lost pair still leaves nine of ten
        result = pairs.verdict(PARENT_RSS, change, "lower")
        assert result["wins"] == 9
        assert result["resolved"]
        assert result["parent"] == (38.85, 38.9, 38.95)

    def test_eight_wins_of_ten_are_unresolved(self, pairs):
        change = [value - 1.2 for value in PARENT_RSS]
        change[4] = change[5] = 39.1
        assert not pairs.verdict(PARENT_RSS, change, "lower")["resolved"]

    def test_a_drop_inside_the_parent_spread_is_unresolved(self, pairs):
        change = [value - 0.05 for value in PARENT_RSS]
        result = pairs.verdict(PARENT_RSS, change, "lower")
        assert result["wins"] == 10
        assert not result["resolved"]

    def test_ties_count_for_neither_side(self, pairs):
        result = pairs.verdict([0.59] * 10, [0.59] * 10, "higher")
        assert result["wins"] == 0
        assert not result["resolved"]

    def test_report_names_every_gated_metric(self, pairs):
        metrics = pairs.gated_metrics(REPO_ROOT / "BENCHMARK.json")
        lines = pairs.report_lines(
            metrics,
            runs(pairs, PARENT_RSS),
            runs(pairs, [value - 1.2 for value in PARENT_RSS]),
            pairs.gated_bounds(REPO_ROOT / "BENCHMARK.json"),
        )
        assert [line.split(" ")[0] for line in lines] == [name for name, _ in metrics]
        rss = lines[1]
        assert "parent 38.9 [38.85, 38.95]" in rss
        assert "change won 10/10 pairs: resolved" in rss
        assert lines[0].endswith("change won 0/10 pairs: unresolved")


#: A set-up time whose interquartile spread (0.29-0.38 ms) is wider than
#: a 25% bound on its 0.32 ms median (0.08 ms).
WIDE_SETUP = [
    0.00026, 0.00041, 0.00032, 0.00030, 0.00045, 0.00024, 0.00033, 0.00038, 0.00029, 0.00035,
]


class TestRegressionVerdict:
    def test_gated_bounds_are_the_benchmark_bounds(self, pairs):
        assert pairs.gated_bounds(REPO_ROOT / "BENCHMARK.json") == {
            "setup_s": 0.25, "rss_peak_mb": 0.25, "answer_accuracy": 0.25,
        }

    def test_worse_by_less_than_the_bound_is_no_worse(self, pairs):
        change = [value + 1.0 for value in PARENT_RSS]  # 2.6% worse, every pair lost
        assert pairs.regression(PARENT_RSS, change, "lower", 0.25) == "no worse"

    def test_worse_by_more_than_the_bound_is_worse(self, pairs):
        change = [value * 1.3 for value in PARENT_RSS]
        assert pairs.regression(PARENT_RSS, change, "lower", 0.25) == "worse"

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self, pairs):
        change = list(reversed(WIDE_SETUP))  # the same runs: medians equal
        assert pairs.regression(WIDE_SETUP, change, "lower", 0.25) == "unresolved"

    def test_every_change_run_better_is_no_worse_despite_the_spread(self, pairs):
        change = [min(WIDE_SETUP) - 0.00001 * (index + 1) for index in range(10)]
        assert pairs.regression(WIDE_SETUP, change, "lower", 0.25) == "no worse"

    def test_higher_is_better_reads_a_drop_as_worse(self, pairs):
        parent = [0.592896] * 10
        assert pairs.regression(parent, parent, "higher", 0.25) == "no worse"
        assert pairs.regression(parent, [0.60] * 10, "higher", 0.25) == "no worse"
        assert pairs.regression(parent, [0.40] * 10, "higher", 0.25) == "worse"

    def test_report_line_carries_the_verdict(self, pairs):
        metrics = pairs.gated_metrics(REPO_ROOT / "BENCHMARK.json")
        lines = pairs.report_lines(
            metrics,
            runs(pairs, PARENT_RSS),
            runs(pairs, [value * 1.3 for value in PARENT_RSS]),
            pairs.gated_bounds(REPO_ROOT / "BENCHMARK.json"),
        )
        assert "against the 25% bound: worse; change won 0/10 pairs" in lines[1]
        assert "against the 25% bound: no worse;" in lines[2]
