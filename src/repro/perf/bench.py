"""The parse-latency bench harness: five modes from seed scans to processes.

This is the measurement side of the caching/indexing/parallelism
subsystem.  It runs the same question workload through five parser
configurations:

* ``sequential`` — the seed hot path: plain row-scan :class:`Executor`,
  no sub-query memoization, no candidate-list cache (per-table lexicons
  and grammars are still built once, as the seed did);
* ``memoized``  — caching (a per-question sub-query memo + the
  content-addressed candidate cache), still row scans, sequential loop;
* ``indexed``   — the same caches with cache misses answered from the
  content-addressed :class:`~repro.tables.index.TableIndex` (hash and
  bisect lookups instead of scans), sequential loop;
* ``batched``   — the indexed configuration driven through a
  :class:`~repro.perf.pool.ThreadWorkerPool` (GIL-bound);
* ``process``   — the same through a
  :class:`~repro.perf.pool.ProcessWorkerPool`: deduplicated work units,
  true parallelism.

and reports wall-clock totals, per-question timings and cache statistics
in a JSON-able payload.  ``benchmarks/test_perf_batch_parsing.py`` runs
the harness on the bench corpus and writes the payload to
``BENCH_parse.json`` so future PRs have a trajectory to beat; ``repro
bench parse`` does the same on demand.

It also holds what all four bench suites share: the
``REPRO_BENCH_SCALE`` reader, the percentile, the console summary and
the payload writer.

Every mode starts cold: the process-wide index registry is cleared
before each mode, and the optional disk store is partitioned per mode
(``<dir>/<mode>``) — within one harness run no mode inherits another's
work, while a *second* run over the same ``disk_cache_dir`` measures the
warm-start regime.
"""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..parser.candidates import ParserConfig, SemanticParser
from ..parser.model import LogLinearModel
from ..tables.index import clear_index_cache
from ..tables.table import Table
from .pool import BatchItem, ProcessWorkerPool, ThreadWorkerPool

#: The modes of the harness, in reporting order.
BENCH_MODES = ("sequential", "memoized", "indexed", "batched", "process")

#: The pooled modes and the pool backend each one runs on.
POOLED_MODES = {"batched": "thread", "process": "process"}

#: Environment variable scaling bench workloads (1.0 = full size; CI smoke
#: runs use 0.1 to exercise every code path at a fraction of the cost).
BENCH_SCALE_ENV = "REPRO_BENCH_SCALE"


def bench_scale() -> float:
    """The workload scale factor from ``REPRO_BENCH_SCALE`` (>= 0, 1.0
    when unset).

    Raises ``ValueError`` on a value that is not a number: falling back
    to full scale would turn a typo in a smoke job into a full-size run.
    """
    raw = os.environ.get(BENCH_SCALE_ENV, "1.0")
    try:
        return max(0.0, float(raw))
    except ValueError:
        raise ValueError(f"{BENCH_SCALE_ENV} must be a number, got {raw!r}") from None


def scaled(value: int, minimum: int = 1, scale: Optional[float] = None) -> int:
    """``value`` times ``scale`` (default: :func:`bench_scale`), rounded
    and floored at ``minimum``: how every bench sizes its workload."""
    return max(minimum, int(round(value * (bench_scale() if scale is None else scale))))


def quantize_seconds(value: float) -> float:
    """Wall-clock seconds rounded for the committed bench artifacts (1 ms).

    Bench JSON is committed to the repository as a perf trajectory; raw
    ``perf_counter`` floats (17 significant digits) made every re-run a
    full-file diff even when nothing structural changed.  One-millisecond
    resolution keeps the numbers meaningful while letting unchanged-
    structure re-runs diff in a handful of lines.
    """
    return round(value, 3)


def percentile(ordered: Sequence[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile of a sorted sample (0.0 when
    empty): rank ``ceil(q / 100 * n)``, at least 1, as perfbench's
    ``stats.rank_index``; ``q=0`` is the minimum, ``q=100`` the maximum."""
    if not ordered:
        return 0.0
    return ordered[max(1, -(-q * len(ordered) // 100)) - 1]


def _summary_ms(seconds: Sequence[float], ranks: Mapping[str, int]) -> Dict[str, float]:
    ordered = sorted(seconds)
    return {key: round(percentile(ordered, q) * 1000, 1) for key, q in ranks.items()}


def timing_summary(per_question_seconds: Sequence[float]) -> Dict[str, float]:
    """Min/median/max of a per-question latency series, in rounded ms.

    The artifact schema stores this summary instead of the raw series:
    the full list was hundreds of lines of noise per mode (the source of
    the 500-line artifact diffs), while min/p50/max is what the
    trajectory comparisons actually read.
    """
    return _summary_ms(per_question_seconds, {"min_ms": 0, "p50_ms": 50, "max_ms": 100})


def latency_summary(per_question_seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p95 of a per-question latency series, in rounded ms.

    The tail percentile is the serving story (a throughput win that
    costs a 10x p95 is not a win); like :func:`timing_summary` the
    artifacts store this summary, never the raw series.
    """
    return _summary_ms(per_question_seconds, {"p50_ms": 50, "p95_ms": 95})


def summary_lines(payload: Mapping[str, object], prefix: str = "") -> List[str]:
    """The console summary of a bench payload: one ``dotted.key: value``
    line per leaf, in payload order, so no suite needs a renderer of its
    own."""
    lines: List[str] = []
    for key, value in payload.items():
        if isinstance(value, Mapping):
            lines.extend(summary_lines(value, f"{prefix}{key}."))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def write_payload(path: Union[str, Path], payload: Mapping[str, object]) -> Path:
    """Write a bench payload as sorted, indented JSON (the committed
    ``BENCH_*.json`` format), creating parent directories; returns the
    path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


@dataclass
class ModeTiming:
    """Timing of one harness mode over the whole workload."""

    mode: str
    total_seconds: float
    per_question_seconds: List[float] = field(default_factory=list)
    candidates: int = 0
    cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def questions(self) -> int:
        return len(self.per_question_seconds)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.questions if self.questions else 0.0


@dataclass
class ParseBenchReport:
    """The harness output: one :class:`ModeTiming` per mode, plus metadata."""

    modes: Dict[str, ModeTiming] = field(default_factory=dict)
    questions: int = 0
    repeats: int = 1
    workers: int = 1

    def speedup(self, mode: str, baseline: str = "sequential") -> float:
        """Wall-clock speedup of ``mode`` over ``baseline`` (>1 is faster)."""
        base = self.modes[baseline].total_seconds
        other = self.modes[mode].total_seconds
        return base / other if other > 0 else float("inf")

    def to_payload(self) -> Dict[str, object]:
        """A JSON-able dict (the schema of the ``BENCH_parse.json`` artifact).

        v3 segregates what changes between runs from what should not:
        ``modes`` holds the structural facts (question/candidate counts,
        cache counters — identical across re-runs of the same workload),
        while everything wall-clock-derived lives under ``timings``,
        quantized (1 ms / 0.1 ms / 0.01x) and with per-question series
        summarized to min/p50/max.  Re-running an unchanged workload now
        diffs a few timing lines instead of rewriting the artifact.
        """
        return {
            "schema": "repro-bench-parse-v3",
            "questions": self.questions,
            "repeats": self.repeats,
            "workers": self.workers,
            "modes": {
                name: {
                    "questions": timing.questions,
                    "candidates": timing.candidates,
                    "cache_stats": timing.cache_stats,
                }
                for name, timing in self.modes.items()
            },
            "timings": {
                "modes": {
                    name: {
                        "total_seconds": quantize_seconds(timing.total_seconds),
                        "mean_ms": round(timing.mean_seconds * 1000, 1),
                        "per_question": timing_summary(timing.per_question_seconds),
                    }
                    for name, timing in self.modes.items()
                },
                "speedups": {
                    name: round(self.speedup(name), 2)
                    for name in self.modes
                    if name != "sequential" and "sequential" in self.modes
                },
            },
        }

    @property
    def ok(self) -> bool:
        """Always true: the orderings are asserted by the bench suite."""
        return True


def sequential_parser_config() -> ParserConfig:
    """The seed-equivalent configuration: scans, no memoization, no caches."""
    return ParserConfig(
        memoize_execution=False, cache_candidates=False, index_tables=False
    )


def memoized_parser_config() -> ParserConfig:
    """The PR 1 configuration: content-addressed caches over row scans."""
    return ParserConfig(index_tables=False)


def _reset_shared_caches() -> None:
    """Start a harness mode cold: clear every *process-wide* cache.

    Per-parser caches are fresh anyway (each mode builds its own parser),
    and feature extraction keeps nothing between generation calls; the
    index registry is module-level and would otherwise leak one mode's
    warm-up into the next, biasing the asserted speedups by run order.
    """
    clear_index_cache()


def _mode_config(mode: str, disk_cache_dir: Optional[str]) -> ParserConfig:
    """The parser configuration of one harness mode (see module docstring)."""
    if mode == "sequential":
        return sequential_parser_config()
    if mode == "memoized":
        return memoized_parser_config()
    config = ParserConfig()  # indexed / batched / process: everything on
    if disk_cache_dir:
        config = ParserConfig(disk_cache_dir=os.path.join(disk_cache_dir, mode))
    return config


def run_parse_bench(
    pairs: Sequence[Tuple[str, Table]],
    model: Optional[LogLinearModel] = None,
    repeats: int = 2,
    workers: int = 4,
    k: Optional[int] = None,
    backends: Sequence[str] = ("thread", "process"),
    disk_cache_dir: Optional[str] = None,
) -> ParseBenchReport:
    """Run the five-mode harness over a ``(question, table)`` workload.

    ``repeats`` replays the workload to model repeated deployment traffic
    (the regime Table 7 measures): the first pass is cold for every mode,
    later passes expose the warm-cache behaviour the caching modes exist
    for.  Every mode parses exactly ``len(pairs) * repeats`` questions on
    its own fresh parser, sharing only the (read-only) ``model`` weights.

    ``backends`` selects the pooled modes: ``"thread"`` runs ``batched``,
    ``"process"`` runs ``process``.  ``disk_cache_dir`` enables the
    on-disk store for the indexed/batched/process modes (one
    sub-directory per mode; pass the same directory twice to measure a
    warm start).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    workload: List[Tuple[str, Table]] = [pair for _ in range(repeats) for pair in pairs]
    report = ParseBenchReport(
        questions=len(workload), repeats=repeats, workers=workers
    )

    # The process mode forks; running it before the thread mode keeps the
    # parent heap it must copy-on-write as small as possible.
    for mode in ("sequential", "memoized", "indexed", "process", "batched"):
        if mode not in POOLED_MODES or POOLED_MODES[mode] in backends:
            report.modes[mode] = run_mode(
                mode, workload, model, workers, k, disk_cache_dir
            )
    return report


def run_mode(
    mode: str,
    workload: Sequence[Tuple[str, Table]],
    model: Optional[LogLinearModel] = None,
    workers: int = 4,
    k: Optional[int] = None,
    disk_cache_dir: Optional[str] = None,
) -> ModeTiming:
    """Parse ``workload`` in one harness mode, from cold.

    The harness's measurement of one mode, callable alone so a caller
    can repeat it (``benchmarks/test_perf_batch_parsing.py`` orders the
    two pooled modes on alternating pairs).  "From cold" includes the
    heap: a full collection runs before the timer starts, so the garbage
    an earlier mode left behind is not freed on this mode's clock.
    """
    _reset_shared_caches()
    gc.collect()
    parser = SemanticParser(model=model, config=_mode_config(mode, disk_cache_dir))
    if mode in POOLED_MODES:
        items = [BatchItem(question, table, k=k) for question, table in workload]
        pool = (
            ThreadWorkerPool(parser, workers)
            if mode == "batched"
            else ProcessWorkerPool(parser, workers)
        )
        with pool:
            # The pool is built cold for the mode, so its worker start-up
            # (forks, table shipping) is part of the measured batch.
            started = time.perf_counter()
            results = pool.parse_all(items)
            total = time.perf_counter() - started
        timed = [(len(parse.candidates), seconds) for parse, seconds in results]
    else:
        timed = []
        started = time.perf_counter()
        for question, table in workload:
            t0 = time.perf_counter()
            parse = parser.parse(question, table, k=k)
            timed.append((len(parse.candidates), time.perf_counter() - t0))
        total = time.perf_counter() - started
    # For the process backend these are the cache stats of this process,
    # not the workers': worker caches are process-private and die with
    # the pool.
    return ModeTiming(
        mode=mode,
        total_seconds=total,
        per_question_seconds=[seconds for _, seconds in timed],
        candidates=sum(count for count, _ in timed),
        cache_stats=parser.cache_stats(),
    )


def bench_pairs_from_dataset(
    num_tables: int = 4,
    questions_per_table: int = 4,
    seed: int = 2019,
    paraphrase_rate: float = 0.5,
) -> List[Tuple[str, Table]]:
    """A small synthetic ``(question, table)`` workload for the harness.

    Both corpus dimensions are :func:`scaled` (floored at 2), so
    ``REPRO_BENCH_SCALE=0.1`` shrinks the CI smoke workload without
    touching callers.
    """
    from ..dataset.dataset import DatasetConfig, build_dataset

    config = DatasetConfig(
        num_tables=scaled(num_tables, 2),
        questions_per_table=scaled(questions_per_table, 2),
        seed=seed,
        paraphrase_rate=paraphrase_rate,
    )
    dataset = build_dataset(config)
    return [(example.question, example.table) for example in dataset.examples]
