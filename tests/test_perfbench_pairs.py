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


def run_output(throughput, warm_p99, cold_p50="26.1936", rss=36.96875):
    """A whole untraced run's output, laid out as ``perfbench/run.py`` prints it."""
    return f"""perfbench interactive seed=0 seconds=30 trace=0
conditions: {{"nproc": 2, "seed": 0}}
operations: attempted=6000 failed=0 failures={{}} elapsed_s=10.514 accuracy_scored=366 accuracy_unscored=0
end-to-end:
  setup_s                             0.000347644 s  (n=50, p50)
  throughput_ops                      {throughput:>12} ops/s  (n=6000)
  latency_p99_ms                          49.3257 ms  (n=6000, p99)
  cold_p50_ms                         {cold_p50:>12} ms  (n=366, p50)
  cold_p90_ms                             54.3117 ms  (n=366, p90)
  warm_p50_ms                              0.5153 ms  (n=5634, p50)
  warm_p99_ms                         {warm_p99:>12} ms  (n=5634, p99)
  rss_peak_mb                         {rss:>12.6g} MB  (n=1)
  answer_accuracy                        0.592896 share  (n=366)
  latency_p50_ms                         0.523388 ms  (n=6000, p50)
  update_p50_ms                               n/a ms  (n=0, p50, fewer than 10 samples beyond)
counters: {{"server": {{"requests": 6000}}}}
{result_line(rss)}
"""


class TestUngatedTimings:
    def test_the_end_to_end_block_is_parsed_and_n_a_left_out(self, pairs):
        values = pairs.parse_end_to_end(run_output("570.679", "36.7881"))
        assert values["throughput_ops"] == 570.679
        assert values["warm_p99_ms"] == 36.7881
        assert values["cold_p90_ms"] == 54.3117
        assert values["latency_p50_ms"] == 0.523388
        assert "update_p50_ms" not in values
        assert values["rss_peak_mb"] == 36.9688
        assert len(values) == 10

    def test_no_block_parses_to_nothing(self, pairs):
        assert pairs.parse_end_to_end(result_line(37.5)) == {}
        assert pairs.parse_end_to_end("end-to-end:\ncounters: {}\n") == {}

    def test_a_run_carries_both_and_the_last_line_wins(self, pairs):
        values = pairs.parse_run(run_output("570.679", "36.7881"), "run")
        assert values["rss_peak_mb"] == 36.96875  # the last line's, unrounded
        assert values["throughput_ops"] == 570.679
        assert values["setup_s"] == 0.0003

    def test_timing_lines_give_quartiles_and_no_verdict(self, pairs):
        parent = [
            pairs.parse_run(run_output(str(500 + i), str(90 + i)), f"parent {i}")
            for i in range(10)
        ]
        change = [
            pairs.parse_run(run_output(str(600 + i), str(40 + i)), f"change {i}")
            for i in range(10)
        ]
        lines = pairs.timing_lines(parent, change)
        assert [line.split(" ")[0] for line in lines] == [
            name for name, _ in pairs.UNGATED_TIMINGS
        ]
        assert lines[0] == (
            "throughput_ops (higher is better, not gated): "
            "parent 504 [502, 507], change 604 [602, 607]"
        )
        assert lines[3] == (
            "warm_p99_ms (lower is better, not gated): "
            "parent 94 [92, 97], change 44 [42, 47]"
        )
        assert not any(word in line for line in lines for word in ("resolved", "worse", "won"))

    def test_a_timing_missing_from_a_run_is_named(self, pairs):
        parent = [pairs.parse_run(run_output("500", "90"), "parent")]
        change = [pairs.parse_run(run_output("600", "40", cold_p50="n/a"), "change")]
        lines = pairs.timing_lines(parent, change)
        assert lines[1] == "cold_p50_ms (not gated): not reported by every run"
        assert lines[0].startswith("throughput_ops (higher is better, not gated): parent 500")
