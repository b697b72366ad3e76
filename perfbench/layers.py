"""Per-layer metrics of the traced run: spans, results and cache counters.

Every metric is reported on every workload; a layer a workload does not
exercise reads 0 there (no updates on ``interactive``).  Times are
medians per call unless named ``busy``; shares are ratios of sums
measured at the same boundaries.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from . import stats
from .runner import Outcome, merge_counters
from .tracing import Tracer, batch_wait, coverage, envelope_seconds, queue_wait, serving_self

#: (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("serving.queue_wait_p50_ms", "ms"),
    ("serving.queue_wait_p99_ms", "ms"),
    ("serving.batch_wait_p99_ms", "ms"),
    ("serving.self_p50_ms", "ms"),
    ("serving.batch_size_mean", "count"),
    ("serving.errors", "count"),
    ("api.envelope_p50_ms", "ms"),
    ("catalog.register_s", "s"),
    ("catalog.update_p50_ms", "ms"),
    ("catalog.update_p90_ms", "ms"),
    ("catalog.update_wait_share", "share"),
    ("tables.diff_ms", "ms"),
    ("tables.index_update_ms", "ms"),
    ("catalog.retire_ms", "ms"),
    ("catalog.retired", "count"),
    ("retrieval.index_update_ms", "ms"),
    ("retrieval.postings_bytes", "bytes"),
    ("pool.busy_s", "s"),
    ("pool.units", "count"),
    ("pool.memo_share", "share"),
    ("pool.explain_hit_share", "share"),
    ("pool.unit_wait_share", "share"),
    ("parser.parse_p50_ms", "ms"),
    ("parser.generate_cold_p50_ms", "ms"),
    ("parser.rank_p50_ms", "ms"),
    ("parser.candidates_mean", "count"),
    ("parser.kept_share", "share"),
    ("parser.features_share", "share"),
    ("parser.candidate_hit_share", "share"),
    ("parser.candidate_evictions", "count"),
    ("parser.lexicon_hit_share", "share"),
    ("parser.grammar_hit_share", "share"),
    ("dcs.execute_share", "share"),
    ("dcs.memo_hit_share", "share"),
    ("tables.index_hit_share", "share"),
    ("explain.calls", "count"),
    ("explain.p50_ms", "ms"),
    ("explain.utterance_share", "share"),
    ("explain.highlight_share", "share"),
    ("trace.coverage_share", "share"),
    ("trace.cold_p50_overhead_ms", "ms"),
    ("trace.warm_p50_overhead_ms", "ms"),
)

UNITS = dict(METRICS)


def _p(values: List[float], q: float) -> float:
    return stats.percentile(values, q) or 0.0


def _ms(spans) -> List[float]:
    return [span.wall * 1000.0 for span in spans]


def layer_metrics(tracer: Tracer, outcome: Outcome, overhead: Dict[str, float]) -> Dict[str, dict]:
    spans = defaultdict(list)
    children = defaultdict(list)
    for span in tracer.spans:
        spans[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span.name)
    requests = [r for r in tracer.requests.values() if r.end is not None]

    def defined(values):
        return [value * 1000.0 for value in values if value is not None]

    queue = defined(queue_wait(r) for r in requests)
    batch = defined(batch_wait(r) for r in requests)
    selfs = defined(serving_self(r) for r in requests)
    covered = [coverage(r) for r in requests]

    generate = spans["parser.generate"]
    cold_generate = [s for s in generate if "grammar.generate" in children[s.sid]]
    cold_wall = sum(s.wall for s in cold_generate)
    grammar_out = sum(s.meta["result"] for s in spans["grammar.generate"])
    kept = sum(s.meta["result"] for s in cold_generate)
    explain_wall = sum(s.wall for s in spans["explain"])
    units = spans["pool.unit"]
    updates = spans["catalog.update"]
    retire = spans["catalog.retire_table"]
    counters = merge_counters(outcome.counters)
    caches = counters["caches"]
    server = counters["server"]

    values = {
        "serving.queue_wait_p50_ms": _p(queue, 50),
        "serving.queue_wait_p99_ms": _p(queue, 99),
        "serving.batch_wait_p99_ms": _p(batch, 99),
        "serving.self_p50_ms": _p(selfs, 50),
        "serving.batch_size_mean": float(server["mean_batch"]),
        "serving.errors": server["errors"],
        "api.envelope_p50_ms": _p([envelope_seconds(r) * 1000.0 for r in requests], 50),
        "catalog.register_s": _p([s.wall for s in spans["catalog.register_all"]], 50),
        "catalog.update_p50_ms": _p(_ms(updates), 50),
        "catalog.update_p90_ms": _p(_ms(updates), 90),
        "catalog.update_wait_share": 1.0 - stats.share(
            sum(s.cpu for s in updates), sum(s.wall for s in updates)
        ) if updates else 0.0,
        "tables.diff_ms": _p(_ms(spans["tables.diff"]), 50),
        "tables.index_update_ms": _p(_ms(spans["tables.index_update"]), 50),
        "catalog.retire_ms": stats.share(
            sum(_ms(retire)) + sum(_ms(spans["pool.retire"])), len(retire)
        ),
        "catalog.retired": counters["retired"],
        "retrieval.index_update_ms": _p(_ms(spans["retrieval.index_update"]), 50),
        "retrieval.postings_bytes": counters["retrieval"]["postings_bytes"],
        "pool.busy_s": sum(s.wall for s in spans["pool.parse_all"]),
        "pool.units": len(units),
        "pool.memo_share": 1.0 - stats.share(len(spans["parser.parse"]), len(units)) if units else 0.0,
        "pool.explain_hit_share": stats.hit_share(counters["explanations"]),
        "pool.unit_wait_share": 1.0 - stats.share(
            sum(s.cpu for s in units), sum(s.wall for s in units)
        ) if units else 0.0,
        "parser.parse_p50_ms": _p(_ms(spans["parser.parse"]), 50),
        "parser.generate_cold_p50_ms": _p(_ms(cold_generate), 50),
        "parser.rank_p50_ms": _p(_ms(spans["parser.rank"]), 50),
        "parser.candidates_mean": stats.share(kept, len(cold_generate)),
        "parser.kept_share": stats.share(kept, grammar_out),
        "parser.features_share": stats.share(
            sum(s.leaf_seconds("features") for s in cold_generate), cold_wall
        ),
        "parser.candidate_hit_share": stats.hit_share(caches["candidates"]),
        "parser.candidate_evictions": caches["candidates"]["evictions"],
        "parser.lexicon_hit_share": stats.hit_share(caches["lexicons"]),
        "parser.grammar_hit_share": stats.hit_share(caches["grammars"]),
        "dcs.execute_share": stats.share(
            sum(s.leaf_seconds("execute") for s in cold_generate), cold_wall
        ),
        "dcs.memo_hit_share": stats.hit_share(caches["execution"]),
        "tables.index_hit_share": stats.hit_share(counters["indexes"]),
        "explain.calls": len(spans["explain"]),
        "explain.p50_ms": _p(_ms(spans["explain"]), 50),
        "explain.utterance_share": stats.share(
            sum(s.wall for s in spans["explain.utterance"]), explain_wall
        ),
        "explain.highlight_share": stats.share(
            sum(s.wall for s in spans["explain.highlight"]), explain_wall
        ),
        "trace.coverage_share": stats.share(
            sum(c for c, _ in covered), sum(w for _, w in covered)
        ),
        "trace.cold_p50_overhead_ms": overhead["cold_p50_ms"],
        "trace.warm_p50_overhead_ms": overhead["warm_p50_ms"],
    }
    counts = {
        "serving.queue_wait_p50_ms": len(queue),
        "serving.queue_wait_p99_ms": len(queue),
        "serving.batch_wait_p99_ms": len(batch),
        "serving.self_p50_ms": len(selfs),
        "catalog.update_p50_ms": len(updates),
        "catalog.update_p90_ms": len(updates),
        "parser.generate_cold_p50_ms": len(cold_generate),
        "explain.p50_ms": len(spans["explain"]),
    }
    return {
        name: {"value": values[name], "unit": unit, "n": counts.get(name)}
        for name, unit in METRICS
    }
