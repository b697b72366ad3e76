"""Batching, caching and benchmarking: the deployment-scale subsystem.

The paper's interactive deployment stands or falls on latency (Table 7):
every question triggers generation and execution of up to 600 candidate
lambda DCS queries.  This package holds the throughput machinery built on
the content-addressed caches of :mod:`repro.tables.fingerprint` and the
per-question sub-query memo of :mod:`repro.dcs.memo`:

* :class:`~repro.perf.pool.WorkerPool` — the one way a batch of
  (question, table) pairs is parsed: :func:`~repro.perf.pool.create_pool`
  builds a thread or process pool, order-stable and bit-identical to the
  sequential loop, that stays warm across batches (fingerprint-addressed
  table shipping, shard pinning, supervised worker processes);
* :class:`~repro.perf.diskcache.DiskCache` — the content-addressed
  on-disk store persisting candidate lists (and evicted catalog tables)
  across processes and sessions;
* :func:`~repro.perf.bench.run_parse_bench` — the five-mode perf harness
  (sequential / memoized / indexed / batched / process) whose payload
  becomes the ``BENCH_parse.json`` trajectory artifact;
* :func:`~repro.perf.churn.run_churn_bench` — the live-corpus churn
  harness (delta maintenance vs full rebuild under a random edit
  script) whose payload becomes ``BENCH_churn.json``;
* re-exports of the cache primitives so callers can reach everything
  performance-related through ``repro.perf``.
"""

from ..dcs.memo import MemoizedExecutor, execute_memoized
from ..tables.fingerprint import LRUCache, TableFingerprint, fingerprint_table
from ..tables.index import TableIndex, clear_index_cache, index_cache_stats, table_index
from .bench import (
    BENCH_MODES,
    ModeTiming,
    ParseBenchReport,
    bench_pairs_from_dataset,
    bench_scale,
    memoized_parser_config,
    quantize_seconds,
    run_parse_bench,
    sequential_parser_config,
    timing_summary,
)
from .churn import ChurnReport, churn_edit_script, run_churn_bench
from .discovery import RECALL_KS, DiscoveryReport, run_discovery_bench
from .join import JOIN_RECALL_KS, JoinReport, run_join_bench
from .diskcache import DiskCache
from .pool import (
    BatchItem,
    DeadlineExceeded,
    PoolError,
    ProcessWorkerPool,
    ThreadWorkerPool,
    WorkerFailed,
    WorkerPool,
    create_pool,
)

__all__ = [
    "BatchItem",
    "BENCH_MODES",
    "ChurnReport",
    "churn_edit_script",
    "run_churn_bench",
    "DiscoveryReport",
    "RECALL_KS",
    "run_discovery_bench",
    "JoinReport",
    "JOIN_RECALL_KS",
    "run_join_bench",
    "DeadlineExceeded",
    "DiskCache",
    "PoolError",
    "WorkerFailed",
    "ModeTiming",
    "ParseBenchReport",
    "ProcessWorkerPool",
    "ThreadWorkerPool",
    "WorkerPool",
    "create_pool",
    "TableIndex",
    "table_index",
    "index_cache_stats",
    "clear_index_cache",
    "bench_pairs_from_dataset",
    "bench_scale",
    "memoized_parser_config",
    "quantize_seconds",
    "run_parse_bench",
    "sequential_parser_config",
    "timing_summary",
    "MemoizedExecutor",
    "execute_memoized",
    "LRUCache",
    "TableFingerprint",
    "fingerprint_table",
]
