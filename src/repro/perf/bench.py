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
``BENCH_parse.json`` so future PRs have a trajectory to beat; the
``repro bench-parse`` CLI sub-command does the same on demand.

Every mode starts cold: the process-wide index registry is cleared
before each mode, and the optional disk store is partitioned per mode
(``<dir>/<mode>``) — within one harness run no mode inherits another's
work, while a *second* run over the same ``disk_cache_dir`` measures the
warm-start regime.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..parser.candidates import ParserConfig, SemanticParser
from ..parser.features import clear_token_caches
from ..parser.model import LogLinearModel
from ..tables.index import clear_index_cache
from ..tables.table import Table
from .pool import BatchItem, create_pool

#: The modes of the harness, in reporting order.
BENCH_MODES = ("sequential", "memoized", "indexed", "batched", "process")

#: Environment variable scaling bench workloads (1.0 = full size; CI smoke
#: runs use 0.1 to exercise every code path at a fraction of the cost).
BENCH_SCALE_ENV = "REPRO_BENCH_SCALE"


def bench_scale(default: float = 1.0) -> float:
    """The workload scale factor from ``REPRO_BENCH_SCALE`` (>= 0)."""
    try:
        return max(0.0, float(os.environ.get(BENCH_SCALE_ENV, default)))
    except ValueError:
        return default


def quantize_seconds(value: float) -> float:
    """Wall-clock seconds rounded for the committed bench artifacts (1 ms).

    Bench JSON is committed to the repository as a perf trajectory; raw
    ``perf_counter`` floats (17 significant digits) made every re-run a
    full-file diff even when nothing structural changed.  One-millisecond
    resolution keeps the numbers meaningful while letting unchanged-
    structure re-runs diff in a handful of lines.
    """
    return round(value, 3)


def timing_summary(per_question_seconds: Sequence[float]) -> Dict[str, float]:
    """Min/median/max of a per-question latency series, in rounded ms.

    The artifact schema stores this summary instead of the raw series:
    the full list was hundreds of lines of noise per mode (the source of
    the 500-line artifact diffs), while min/p50/max is what the
    trajectory comparisons actually read.
    """
    if not per_question_seconds:
        return {"min_ms": 0.0, "p50_ms": 0.0, "max_ms": 0.0}
    ordered = sorted(per_question_seconds)
    return {
        "min_ms": round(ordered[0] * 1000, 1),
        "p50_ms": round(ordered[len(ordered) // 2] * 1000, 1),
        "max_ms": round(ordered[-1] * 1000, 1),
    }


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 < q <= 1)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))  # ceil without float drift
    return ordered[min(len(ordered), rank) - 1]


def latency_summary(per_question_seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 of a per-question latency series, in rounded ms.

    The tail percentiles are the serving story (a throughput win that
    costs a 10x p99 is not a win); like :func:`timing_summary` the
    artifacts store this summary, never the raw series.
    """
    ordered = sorted(per_question_seconds)
    return {
        "p50_ms": round(_percentile(ordered, 0.50) * 1000, 1),
        "p95_ms": round(_percentile(ordered, 0.95) * 1000, 1),
        "p99_ms": round(_percentile(ordered, 0.99) * 1000, 1),
    }


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

    def rows(self) -> List[List[str]]:
        """Console rows (mode, total, mean, speedup) for the CLI / benches."""
        rows = []
        for name in BENCH_MODES:
            timing = self.modes.get(name)
            if timing is None:
                continue
            speedup = self.speedup(name) if "sequential" in self.modes else 1.0
            rows.append(
                [
                    name,
                    f"{timing.total_seconds:.3f}s",
                    f"{timing.mean_seconds * 1000:.1f}ms",
                    f"{speedup:.2f}x",
                ]
            )
        return rows


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

    Per-parser caches are fresh anyway (each mode builds its own parser);
    the index registry and the memoised token sets are module-level and
    would otherwise leak one mode's warm-up into the next, biasing the
    asserted speedups by run order.
    """
    clear_index_cache()
    clear_token_caches()


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

    for mode in ("sequential", "memoized", "indexed"):
        _reset_shared_caches()
        parser = SemanticParser(model=model, config=_mode_config(mode, disk_cache_dir))
        report.modes[mode] = _run_sequential(mode, parser, workload, k)

    # The process mode forks; running it before the thread mode keeps the
    # parent heap it must copy-on-write as small as possible.
    pooled = [("process", "process"), ("batched", "thread")]
    for mode, backend in pooled:
        if backend not in backends:
            continue
        _reset_shared_caches()
        parser = SemanticParser(model=model, config=_mode_config(mode, disk_cache_dir))
        items = [BatchItem(question, table, k=k) for question, table in workload]
        with create_pool(backend, parser, workers) as pool:
            # The pool is built cold for the mode, so its worker start-up
            # (forks, table shipping) is part of the measured batch.
            started = time.perf_counter()
            results = pool.parse_all(items)
            total = time.perf_counter() - started
        # Note: for the process backend these are the *driver's* cache
        # stats — worker caches are process-private by design and die
        # with the pool, so their hit rates are not observable here.
        # The thread mode's stats cover all parsing.
        report.modes[mode] = ModeTiming(
            mode=mode,
            total_seconds=total,
            per_question_seconds=[seconds for _, seconds in results],
            candidates=sum(len(parse.candidates) for parse, _ in results),
            cache_stats=parser.cache_stats(),
        )
    return report


def _run_sequential(
    mode: str,
    parser: SemanticParser,
    workload: Sequence[Tuple[str, Table]],
    k: Optional[int],
) -> ModeTiming:
    per_question: List[float] = []
    candidates = 0
    started = time.perf_counter()
    for question, table in workload:
        t0 = time.perf_counter()
        parse = parser.parse(question, table, k=k)
        per_question.append(time.perf_counter() - t0)
        candidates += len(parse.candidates)
    total = time.perf_counter() - started
    return ModeTiming(
        mode=mode,
        total_seconds=total,
        per_question_seconds=per_question,
        candidates=candidates,
        cache_stats=parser.cache_stats(),
    )


def bench_pairs_from_dataset(
    num_tables: int = 4,
    questions_per_table: int = 4,
    seed: int = 2019,
    paraphrase_rate: float = 0.5,
    scale: Optional[float] = None,
) -> List[Tuple[str, Table]]:
    """A small synthetic ``(question, table)`` workload for the harness.

    ``scale`` multiplies both corpus dimensions (floored at 2), defaulting
    to :func:`bench_scale` — so ``REPRO_BENCH_SCALE=0.1`` shrinks the CI
    smoke workload without touching callers.
    """
    from ..dataset.dataset import DatasetConfig, build_dataset

    factor = bench_scale() if scale is None else scale
    config = DatasetConfig(
        num_tables=max(2, int(round(num_tables * factor))),
        questions_per_table=max(2, int(round(questions_per_table * factor))),
        seed=seed,
        paraphrase_rate=paraphrase_rate,
    )
    dataset = build_dataset(config)
    return [(example.question, example.table) for example in dataset.examples]
