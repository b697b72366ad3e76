"""Bench smoke mode: the full ``bench parse`` surface at a fraction of the
cost (ISSUE 2 satellite).

The real benches (``benchmarks/``) run a corpus sized for meaningful
timings; tier-1 CI cannot afford that per change, yet every bench code
path — all five modes, both pool backends, the disk cache cold and warm —
must stay exercised.  These tests run the same harness under
``REPRO_BENCH_SCALE=0.1`` (the knob the bench suite itself honours) and
assert *behaviour*, never timing thresholds.  Select them alone with
``pytest -m bench_smoke``.
"""

from __future__ import annotations

import gc
import io
import json
import weakref

import pytest

from repro.cli import main
from repro.perf import (
    BENCH_MODES,
    bench_pairs_from_dataset,
    bench_scale,
    run_parse_bench,
    timing_summary,
)
from repro.parser.candidates import SemanticParser
from repro.perf.bench import latency_summary, run_mode, summary_lines

pytestmark = pytest.mark.bench_smoke

#: The scaled-down workload knob the satellite task names.
SMOKE_SCALE = "0.1"


@pytest.fixture()
def smoke_pairs(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE_SCALE)
    assert bench_scale() == 0.1
    # 4 tables x 4 questions scaled by 0.1 floors at the 2 x 2 minimum.
    pairs = bench_pairs_from_dataset(num_tables=4, questions_per_table=4)
    assert len(pairs) == 4
    return pairs


class TestBenchSmoke:
    def test_all_modes_and_backends_run_and_agree(self, smoke_pairs, tmp_path):
        report = run_parse_bench(
            smoke_pairs,
            repeats=2,
            workers=2,
            backends=("thread", "process"),
            disk_cache_dir=str(tmp_path / "store"),
        )
        assert set(report.modes) == set(BENCH_MODES)
        counts = {timing.candidates for timing in report.modes.values()}
        assert len(counts) == 1, f"modes generated different candidates: {counts}"
        for timing in report.modes.values():
            assert timing.questions == len(smoke_pairs) * 2
            assert timing.total_seconds > 0

    def test_disk_cache_warm_start_is_identical(self, smoke_pairs, tmp_path):
        store = str(tmp_path / "store")
        cold = run_parse_bench(
            smoke_pairs, repeats=1, workers=2, backends=("thread",),
            disk_cache_dir=store,
        )
        warm = run_parse_bench(
            smoke_pairs, repeats=1, workers=2, backends=("thread",),
            disk_cache_dir=store,
        )
        # Identical workload -> identical candidates, cold or warm.
        for mode in cold.modes:
            assert warm.modes[mode].candidates == cold.modes[mode].candidates
        # And the warm run actually answered from disk for the disk-backed
        # modes (indexed / batched).
        assert warm.modes["indexed"].cache_stats["disk"]["hits"] > 0
        assert cold.modes["indexed"].cache_stats["disk"]["hits"] == 0

    def test_cli_bench_parse_smoke(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_SCALE", SMOKE_SCALE)
        out = io.StringIO()
        artifact = tmp_path / "BENCH_parse.json"
        code = main(
            [
                "bench", "parse", "--tables", "4", "--questions", "4",
                "--repeats", "2", "--workers", "2", "--backend", "both",
                "--disk-cache", str(tmp_path / "store"),
                "--output", str(artifact),
            ],
            out=out,
        )
        assert code == 0
        payload = json.loads(artifact.read_text())
        assert set(payload["modes"]) == set(BENCH_MODES)
        # The scaled corpus: 2 tables x 2 questions x 2 repeats.
        assert payload["questions"] == 8


class _Cycle:
    pass


class TestRunMode:
    def test_a_mode_starts_after_a_full_collection(self, smoke_pairs, monkeypatch):
        """Garbage an earlier mode left in the oldest generation is freed
        before the next mode's first parse, not on its clock."""
        events = []
        cycle = _Cycle()
        cycle.self = cycle
        gc.collect()  # still referenced: the cycle moves to the oldest generation
        alive = weakref.ref(cycle, lambda _ref: events.append("freed"))
        del cycle  # now only a full collection frees it
        real_parse = SemanticParser.parse

        def parse(self, *args, **kwargs):
            events.append("parse")
            return real_parse(self, *args, **kwargs)

        monkeypatch.setattr(SemanticParser, "parse", parse)
        run_mode("indexed", smoke_pairs[:2])
        assert alive() is None
        assert events[0] == "freed"


class TestSummaries:
    def test_both_summaries_take_the_nearest_rank(self):
        series = [0.001, 0.002, 0.003, 0.004]
        assert timing_summary(series) == {"min_ms": 1.0, "p50_ms": 2.0, "max_ms": 4.0}
        assert latency_summary(series) == {"p50_ms": 2.0, "p95_ms": 4.0}
        assert timing_summary([]) == {"min_ms": 0.0, "p50_ms": 0.0, "max_ms": 0.0}

    def test_summary_lines_flatten_every_leaf_in_payload_order(self):
        payload = {"schema": "s", "identical": {"answers": True}, "timings": {"a": {"p50_ms": 1.5}}}
        assert summary_lines(payload) == [
            "schema: s", "identical.answers: True", "timings.a.p50_ms: 1.5"
        ]
