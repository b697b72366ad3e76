"""Batching, caching and benchmarking: the deployment-scale subsystem.

The paper's interactive deployment stands or falls on latency (Table 7):
every question triggers generation and execution of up to 600 candidate
lambda DCS queries.  This package holds the throughput machinery built on
the content-addressed caches of :mod:`repro.tables.fingerprint` and the
per-question sub-query memo of :mod:`repro.dcs.memo`:

* :class:`~repro.perf.pool.WorkerPool` — the one way a batch of
  (question, table) pairs is parsed: a thread or process pool,
  order-stable and bit-identical to the sequential loop, that stays warm
  across batches (fingerprint-addressed table shipping, shard pinning,
  supervised worker processes); :func:`~repro.perf.pool.serving_pool`
  builds the one an engine serves on;
* :class:`~repro.perf.diskcache.DiskCache` — the content-addressed
  on-disk store persisting candidate lists (and evicted catalog tables)
  across processes and sessions;
* the four bench suites of ``repro bench``, each a run function whose
  report's ``to_payload()`` is a committed ``BENCH_*.json`` and whose
  ``ok`` is its gate: :func:`~repro.perf.bench.run_parse_bench` (five
  parse modes), :func:`~repro.perf.churn.run_churn_bench` (delta vs
  rebuild), :func:`~repro.perf.discovery.run_discovery_bench` (router
  recall at corpus scale) and :func:`~repro.perf.join.run_join_bench`
  (shard-set routing and the composed-answer SQL oracle);
* re-exports of the cache primitives so callers can reach everything
  performance-related through ``repro.perf``.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "..dcs.memo": ["MemoizedExecutor", "execute_memoized"],
        "..tables.fingerprint": ["LRUCache", "TableFingerprint", "fingerprint_table"],
        "..tables.index": [
            "TableIndex", "clear_index_cache", "index_cache_stats", "table_index",
        ],
        ".bench": [
            "BENCH_MODES", "ModeTiming", "ParseBenchReport", "bench_pairs_from_dataset",
            "bench_scale", "memoized_parser_config", "quantize_seconds",
            "run_parse_bench", "sequential_parser_config", "timing_summary",
        ],
        ".churn": ["ChurnReport", "churn_edit_script", "run_churn_bench"],
        ".discovery": ["RECALL_KS", "DiscoveryReport", "run_discovery_bench"],
        ".join": ["JOIN_RECALL_KS", "JoinReport", "run_join_bench"],
        ".diskcache": ["DiskCache"],
        ".pool": [
            "BatchItem", "DeadlineExceeded", "PoolError", "ProcessWorkerPool",
            "ThreadWorkerPool", "WorkerFailed", "WorkerPool", "serving_pool",
        ],
    },
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
    "serving_pool",
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
