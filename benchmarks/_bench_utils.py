"""Helpers shared by the experiment benches (scale factor, table printing,
timing-artifact emission)."""

from __future__ import annotations

import os
from pathlib import Path

# ``scaled`` sizes an experiment by ``REPRO_BENCH_SCALE`` (1.0 keeps the
# suite at a few minutes).
from repro.perf.bench import scaled, write_payload

#: The top-k shown to users throughout the paper.
K = 7


def artifact_dir() -> Path:
    """Where timing artifacts land: ``REPRO_BENCH_ARTIFACT_DIR`` or a
    gitignored scratch directory (``benchmarks/.artifacts``).

    The committed ``BENCH_*.json`` snapshots at the repo root are a
    deliberate perf trajectory — they must only change alongside the
    code change that motivates them, regenerated under controlled run
    conditions (see README).  The suite therefore never writes the repo
    root by default; an ordinary ``pytest`` run must not dirty the
    committed snapshots with single-run machine noise.  Set
    ``REPRO_BENCH_ARTIFACT_DIR=.`` to refresh the committed artifacts
    explicitly.
    """
    override = os.environ.get("REPRO_BENCH_ARTIFACT_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / ".artifacts"


def emit_bench_artifact(name: str, payload: dict) -> Path:
    """Write a ``BENCH_<name>.json`` timing artifact and return its path.

    Artifacts are the bench trajectory: each perf harness dumps its
    timings here so successive PRs have concrete numbers to beat.  The
    payload must be JSON-able (e.g. ``ParseBenchReport.to_payload()``).
    """
    return write_payload(artifact_dir() / f"BENCH_{name}.json", payload)


def print_table(title: str, headers, rows) -> None:
    """Uniform console rendering for the paper-style result tables."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    print()
    print(f"=== {title} ===")
    print(" | ".join(str(header).ljust(widths[i]) for i, header in enumerate(headers)))
    print("-+-".join("-" * width for width in widths))
    for row in rows:
        print(" | ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    print()
