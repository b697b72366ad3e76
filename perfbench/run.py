#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload interactive --seed 0 --seconds 20 --trace 0

Run from any directory; the program is imported from ``src/`` next to
this directory.  Prints the run conditions, every metric with its unit
and sample count, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit status
is 0 only when every check passed.

``--trace 1`` first runs the same workload untraced in a child process,
then again with spans around every layer, and reports the difference.
Both passes of a traced run play the first half of the workload's rounds
(``--rounds``), so the pair takes about as long as one untraced run.

The parser loads the committed weights checkpoint ``weights.json``.
Run artifacts (reports, spans) go to ``.bench_build/perfbench/`` under
the repository root.  ``--record-digests N`` rewrites ``digests.json``
for seeds ``0..N-1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "repro"
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
WEIGHTS = HERE / "weights.json"

#: Hard limit on one run.
ALARM_SECONDS = 170
#: Latest start of a new operation, measured from the same point.
SCRIPT_BUDGET = 150
#: The untraced child of a traced run.
CHILD_TIMEOUT = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("interactive", "live_edits"))
    parser.add_argument("--seed", type=int, default=0,
                        help="any integer; taken modulo 10**6 (inputs.served_seed)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, metavar="N",
                        help="play only the first N rounds (default: all; half with --trace 1)")
    parser.add_argument("--record-digests", type=int, metavar="N")
    args = parser.parse_args(argv)
    if args.workload is None and args.record_digests is None:
        parser.error("--workload is required")
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision():
    """The checkout's commit, read from ``.git`` (``None`` outside a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def record_digests(count: int, seconds: int) -> int:
    from repro.parser import LogLinearModel

    from perfbench.inputs import WORKLOADS, build_rounds, input_digest, weights_digest

    payload = {
        "seconds": seconds,
        "weights": weights_digest(LogLinearModel.load(WEIGHTS).weights),
        "inputs": {
            workload: {
                str(seed): input_digest(build_rounds(workload, seed, seconds))
                for seed in range(count)
            }
            for workload in WORKLOADS
        },
    }
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def digest_problems(workload: str, seed: int, seconds: int, inputs_digest: str, weights: str):
    """Mismatches against ``digests.json``; seeds or lengths not recorded are not checked."""
    try:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except OSError:
        return ["digests.json is missing"]
    problems = []
    if recorded.get("weights") != weights:
        problems.append(f"weights digest {weights} != recorded {recorded.get('weights')}")
    expected = (
        recorded.get("inputs", {}).get(workload, {}).get(str(seed))
        if recorded.get("seconds") == seconds
        else None
    )
    if expected is not None and expected != inputs_digest:
        problems.append(f"input digest {inputs_digest} != recorded {expected}")
    return problems


def gated_metrics(trace: int):
    """The metric names ``BENCHMARK.json`` gates for this mode, in its order."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in manifest["per_layer" if trace else "end_to_end"]]


def report_path(args, trace: int, rounds: int) -> Path:
    name = f"{args.workload}-seed{args.seed}-trace{trace}-rounds{rounds}.json"
    return WORK / "reports" / name


def untraced_child(args, rounds: int) -> dict:
    """The same rounds untraced, in a child process: its report, and whether it passed."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--rounds", str(rounds)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if completed.returncode not in (0, 1):
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"untraced run exited {completed.returncode}")
    report = json.loads(report_path(args, 0, rounds).read_text(encoding="utf-8"))
    report["correct"] = completed.returncode == 0
    return report


def _on_alarm(signum, frame) -> None:
    # Out of time: raise so ``finally`` blocks tear down and a running
    # child is killed; if that teardown hangs too, the default action
    # ends the process five seconds later.
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    signal.alarm(5)
    raise TimeoutError(f"run exceeded {ALARM_SECONDS} s")


def _show(name: str, metric: dict) -> None:
    count = metric.get("n")
    note = ""
    if count is not None:
        note = f"  (n={count}"
        if "q" in metric:
            note += f", p{metric['q']}"
        if metric.get("supported") is False:
            note += ", fewer than 10 samples beyond"
        note += ")"
    value = metric["value"]
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:34s} {shown:>12s} {metric['unit']}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not SOURCE.is_dir():
        print(f"perfbench: no program source under {SOURCE.parent}", file=sys.stderr)
        return 2
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        sys.path.pop(0)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.record_digests is not None:
        return record_digests(args.record_digests, args.seconds)

    from repro.parser import LogLinearModel

    from perfbench import inputs as inputs_module
    from perfbench import runner
    from perfbench.layers import layer_metrics
    from perfbench.tracing import Tracer

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(ALARM_SECONDS)
    budget_start = time.perf_counter()

    seed = inputs_module.served_seed(args.seed)
    rounds = inputs_module.build_rounds(args.workload, seed, args.seconds)
    inputs_digest = inputs_module.input_digest(rounds)
    weights_digest = inputs_module.weights_digest(LogLinearModel.load(WEIGHTS).weights)
    problems = digest_problems(args.workload, seed, args.seconds, inputs_digest, weights_digest)
    rounds = rounds[:args.rounds or (max(1, len(rounds) // 2) if args.trace else len(rounds))]

    untraced = untraced_child(args, len(rounds)) if args.trace else None
    probe_before = runner.host_probe()
    tracer = Tracer() if args.trace else None
    outcome = runner.Run(
        rounds, str(WEIGHTS), budget_start + SCRIPT_BUDGET, tracer=tracer
    ).execute()
    probe_after = runner.host_probe()
    checked = runner.check(rounds, outcome)
    left = runner.leftovers()
    problems += [f"{item} still alive after teardown" for item in left]
    end_to_end = runner.end_to_end(outcome, checked)

    conditions = {
        "workload": args.workload,
        "seed": args.seed,
        "served_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": runner.nproc(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "input_digest": inputs_digest,
        "weights_digest": weights_digest,
        "host_probe_s": [probe_before, probe_after],
        "script": [
            {"ops": len(inputs.ops), "reads": inputs.reads, "edits": inputs.edits}
            for inputs in rounds
        ],
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("conditions: " + json.dumps(conditions, sort_keys=True))
    print(
        f"operations: attempted={checked.attempted} failed={checked.failed} "
        f"failures={json.dumps(checked.failures)} elapsed_s={outcome.elapsed:.3f} "
        f"accuracy_scored={checked.scored} accuracy_unscored={checked.unscored}"
    )
    print("end-to-end" + (" (traced pass; not the gated numbers)" if args.trace else "") + ":")
    for name, metric in end_to_end.items():
        _show(name, metric)
    print("counters: " + json.dumps(runner.merge_counters(outcome.counters), sort_keys=True))

    report = {"conditions": conditions, "end_to_end": end_to_end, "problems": problems}
    correct = not problems and checked.failed == 0
    if args.trace:
        overhead = {
            name: end_to_end[name]["value"] - metric["value"]
            for name, metric in untraced["end_to_end"].items()
            if metric["value"] is not None
        }
        print("tracing overhead (traced - untraced): " + json.dumps(overhead, sort_keys=True))
        layers = layer_metrics(tracer, outcome, overhead)
        print("per-layer:")
        for name, metric in layers.items():
            _show(name, metric)
        if tracer.missing:
            problems.append("unwrapped layer calls: " + ", ".join(tracer.missing))
        correct = correct and untraced["correct"] and not tracer.missing
        report.update(per_layer=layers, overhead=overhead, untraced=untraced)
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = layers
    else:
        metrics = end_to_end
    for problem in problems:
        print(f"problem: {problem}")
    (WORK / "reports").mkdir(parents=True, exist_ok=True)
    report_path(args, args.trace, len(rounds)).write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str), encoding="utf-8"
    )
    signal.alarm(0)
    print(json.dumps({
        "correct": correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in gated_metrics(args.trace)
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
