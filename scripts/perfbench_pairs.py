#!/usr/bin/env python
"""Alternating parent/change pairs of the repo benchmark, and their verdict.

Usage::

    python scripts/perfbench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload interactive --seed 0 --pairs 10

Each tree is a source checkout holding ``perfbench/run.py`` (make the
parent one with ``git archive``).  Every pair runs ``perfbench/run.py
--trace 0`` once in each tree, alternating which side runs first: the
parent in even pairs, the change in odd ones.  A run whose last line does
not report ``"correct": true`` is refused, and the script stops with exit
status 1.

For each end-to-end metric ``BENCHMARK.json`` gates, it prints both
sides' median and quartiles (nearest rank, as perfbench reports), two
verdicts and how many pairs the change won; a tie counts for neither
side.

* **No regression**, against the metric's ``bound`` in
  ``BENCHMARK.json`` (a share of the parent's median): ``no worse`` when
  every change run beats every parent run; otherwise ``unresolved`` when
  the parent's interquartile spread is wider than the bound; otherwise
  ``no worse`` when the change's median is worse than the parent's by no
  more than the bound, and ``worse`` when it is worse by more.
* **Gain**: ``resolved`` only when the change won at least nine tenths
  of the pairs and the medians differ by more than the parent's
  interquartile spread; otherwise ``unresolved``.

Then, for the timings perfbench prints in its ``end-to-end:`` block but
``BENCHMARK.json`` does not gate (:data:`UNGATED_TIMINGS`), it prints
both sides' median and quartiles, marked ``not gated``, with no verdict.

The script changes nothing in either tree beyond what
``perfbench/run.py`` itself writes there.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Share of the pairs the change must win for a gain to be claimed.
WIN_SHARE = 0.9
#: ``(name, better)`` of the end-to-end timings reported without a verdict.
UNGATED_TIMINGS = (
    ("throughput_ops", "higher"),
    ("cold_p50_ms", "lower"),
    ("warm_p50_ms", "lower"),
    ("warm_p99_ms", "lower"),
    ("latency_p99_ms", "lower"),
)


class RunRefused(RuntimeError):
    """A benchmark run whose last line does not report a correct run."""


def gated_metrics(benchmark: Path) -> List[Tuple[str, str]]:
    """``(name, better)`` of every end-to-end metric ``benchmark`` gates."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return [(metric["name"], metric["better"]) for metric in spec["end_to_end"]]


def gated_bounds(benchmark: Path) -> Dict[str, float]:
    """Each gated metric's regression bound, a share of the parent's median."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {metric["name"]: float(metric["bound"]) for metric in spec["end_to_end"]}


def parse_end_to_end(output: str) -> Dict[str, float]:
    """Each value of the run's ``end-to-end:`` block, by metric name.

    perfbench prints one indented ``name value unit`` line per metric
    under that heading; a value shown as ``n/a`` is left out.
    """
    values: Dict[str, float] = {}
    lines = iter(output.splitlines())
    for line in lines:
        if line.startswith("end-to-end"):
            break
    for line in lines:
        if not line.startswith("  "):
            break
        name, shown = line.split()[:2]
        try:
            values[name] = float(shown)
        except ValueError:  # "n/a"
            continue
    return values


def parse_run(output: str, label: str) -> Dict[str, float]:
    """The metric values of one run's output; refuses an incorrect run.

    The gated metrics come from the last line, at full precision; the
    ``end-to-end:`` block adds the ungated ones, as printed.
    """
    lines = [line for line in output.splitlines() if line.strip()]
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunRefused(f"{label}: the last line is not the result object") from None
    if not isinstance(last, dict) or last.get("correct") is not True:
        raise RunRefused(f"{label}: the run is not correct: {lines[-1][:200]}")
    gated = {name: float(entry["value"]) for name, entry in last["metrics"].items()}
    return {**parse_end_to_end(output), **gated}


def run_side(tree: Path, workload: str, seed: int, seconds: int, label: str) -> Dict[str, float]:
    """One untraced benchmark run in ``tree``."""
    command = [
        sys.executable, str(tree / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    return parse_run(done.stdout, label)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Nearest-rank 25th, 50th and 75th percentiles."""
    ordered = sorted(values)
    return tuple(
        ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1] for q in (25, 50, 75)
    )


def verdict(parent: Sequence[float], change: Sequence[float], better: str) -> Dict[str, object]:
    """Both sides' quartiles, the change's pair wins and whether the gain is resolved.

    ``parent[i]`` and ``change[i]`` are pair ``i``'s runs.
    """
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for old, new in zip(parent, change) if sign * (new - old) > 0)
    parent_q, change_q = quartiles(parent), quartiles(change)
    spread = parent_q[2] - parent_q[0]
    resolved = (
        wins >= math.ceil(WIN_SHARE * len(parent))
        and sign * (change_q[1] - parent_q[1]) > spread
    )
    return {
        "parent": parent_q,
        "change": change_q,
        "wins": wins,
        "pairs": len(parent),
        "resolved": resolved,
    }


def regression(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """``no worse``, ``unresolved`` or ``worse``: the no-regression verdict.

    ``bound`` is a share of the parent's median; see the module docstring
    for the rule.
    """
    sign = -1.0 if better == "lower" else 1.0
    if all(sign * (new - old) > 0 for new in change for old in parent):
        return "no worse"
    (p25, p50, p75), (_c25, c50, _c75) = quartiles(parent), quartiles(change)
    allowed = bound * abs(p50)
    if p75 - p25 > allowed:
        return "unresolved"
    return "no worse" if sign * (p50 - c50) <= allowed else "worse"


def report_lines(
    metrics: Sequence[Tuple[str, str]],
    parent_runs: Sequence[Dict[str, float]],
    change_runs: Sequence[Dict[str, float]],
    bounds: Mapping[str, float],
) -> List[str]:
    """One line per gated metric, in ``BENCHMARK.json`` order."""
    lines = []
    for name, better in metrics:
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        result = verdict(parent, change, better)
        (p25, p50, p75), (c25, c50, c75) = result["parent"], result["change"]
        lines.append(
            f"{name} ({better} is better): "
            f"parent {p50:.6g} [{p25:.6g}, {p75:.6g}], "
            f"change {c50:.6g} [{c25:.6g}, {c75:.6g}], "
            f"against the {bounds[name]:.0%} bound: "
            f"{regression(parent, change, better, bounds[name])}; "
            f"change won {result['wins']}/{result['pairs']} pairs: "
            + ("resolved" if result["resolved"] else "unresolved")
        )
    return lines


def timing_lines(
    parent_runs: Sequence[Dict[str, float]], change_runs: Sequence[Dict[str, float]]
) -> List[str]:
    """One line per :data:`UNGATED_TIMINGS` entry: quartiles, no verdict."""
    lines = []
    runs = [*parent_runs, *change_runs]
    for name, better in UNGATED_TIMINGS:
        if not all(name in run for run in runs):
            lines.append(f"{name} (not gated): not reported by every run")
            continue
        p25, p50, p75 = quartiles([run[name] for run in parent_runs])
        c25, c50, c75 = quartiles([run[name] for run in change_runs])
        lines.append(
            f"{name} ({better} is better, not gated): "
            f"parent {p50:.6g} [{p25:.6g}, {p75:.6g}], "
            f"change {c50:.6g} [{c25:.6g}, {c75:.6g}]"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=int,
        help="run length (default: run_seconds of the change's BENCHMARK.json)",
    )
    args = parser.parse_args(argv)
    benchmark = args.change / "BENCHMARK.json"
    seconds = args.seconds or json.loads(benchmark.read_text(encoding="utf-8"))["run_seconds"]
    metrics = gated_metrics(benchmark)
    parent_runs: List[Dict[str, float]] = []
    change_runs: List[Dict[str, float]] = []
    try:
        for pair in range(args.pairs):
            sides = [("parent", args.parent, parent_runs), ("change", args.change, change_runs)]
            if pair % 2:
                sides.reverse()
            for side, tree, runs in sides:
                runs.append(run_side(tree, args.workload, args.seed, seconds, f"pair {pair} {side}"))
            print(
                f"pair {pair} ({sides[0][0]} first): "
                + ", ".join(
                    f"{name} {parent_runs[-1][name]:.6g} -> {change_runs[-1][name]:.6g}"
                    for name, _ in metrics
                ),
                flush=True,
            )
    except RunRefused as refused:
        print(f"refused: {refused}", file=sys.stderr)
        return 1
    for line in report_lines(metrics, parent_runs, change_runs, gated_bounds(benchmark)):
        print(line)
    for line in timing_lines(parent_runs, change_runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
