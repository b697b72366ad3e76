"""The live-corpus churn bench: delta maintenance vs full rebuild.

The versioned-lineage machinery (:meth:`TableCatalog.update`,
:meth:`CorpusIndex.update`, :func:`~repro.tables.index.update_index`)
exists to make one table edit cost *one table's worth* of work instead
of a corpus-wide rebuild.  This harness measures exactly that claim:

* the **delta** mode starts from a registered and indexed corpus and
  publishes a deterministic script of random edits through
  :meth:`TableCatalog.update` — each edit diffs the snapshots, patches
  only the changed posting keys of the retrieval index, rebuilds only
  the changed per-column structures, and retires the superseded shard;
* the **full_rebuild** mode replays the same script the pre-lineage
  way: after every edit, throw the catalog away, re-register every
  table from scratch and rebuild its retrieval index.

After the script runs, the harness checks the hard invariant the whole
subsystem is built on: the delta-maintained catalog answers every bench
question **bit-identically** to a from-scratch catalog over the final
table set, and its retrieval index snapshot is structurally equal to a
fresh build.  The payload becomes the committed ``BENCH_churn.json``
trajectory artifact (schema ``repro-bench-churn-v1``, validated by
``scripts/validate_wire.py``); ``repro bench churn`` and the ``churn``
entry of the CI ``suite-smoke`` job run the same harness on demand.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..retrieval.corpus_index import CorpusIndex
from ..tables.catalog import TableCatalog
from ..tables.table import Table
from .bench import quantize_seconds, scaled, timing_summary

#: Default number of edits in the script (scaled by ``REPRO_BENCH_SCALE``).
DEFAULT_EDITS = 12


def _raw_rows(table: Table) -> List[List[str]]:
    return [[cell.display() for cell in record.cells] for record in table.records]


def churn_edit_script(
    tables: Sequence[Table], edits: int, seed: int = 2019
) -> List[Tuple[str, Table]]:
    """A deterministic script of ``edits`` random table edits.

    Each step picks a table (by name), applies one edit — a cell
    rewrite, an appended row, or a dropped row — and yields
    ``(name, new_table)``.  Steps compound: the new content of step *i*
    is the base of the next edit to the same table, the same regime a
    live corpus sees.
    """
    rng = random.Random(seed)
    current: Dict[str, Table] = {table.name: table for table in tables}
    names = sorted(current)
    script: List[Tuple[str, Table]] = []
    for step in range(edits):
        name = rng.choice(names)
        table = current[name]
        rows = _raw_rows(table)
        kind = rng.random()
        if kind < 0.7 or len(rows) < 3:
            # Rewrite one cell: the common case, exercising the
            # changed-column delta path with the row count unchanged.
            row = rng.randrange(len(rows))
            column = rng.randrange(len(table.columns))
            rows[row][column] = f"edit{step} {rng.randrange(10000)}"
        elif kind < 0.85:
            # Append a row (row_count_changed: full per-table reindex).
            donor = list(rows[rng.randrange(len(rows))])
            donor[0] = f"new{step}"
            rows.append(donor)
        else:
            rows.pop(rng.randrange(len(rows)))
        new_table = Table(columns=table.columns, rows=rows, name=name)
        current[name] = new_table
        script.append((name, new_table))
    return script


@dataclass
class ChurnReport:
    """The harness output: both modes' timings plus the identity verdicts."""

    tables: int
    questions: int
    edits: int
    identical_answers: bool
    identical_index: bool
    catalog_stats: Dict[str, int] = field(default_factory=dict)
    delta_total_seconds: float = 0.0
    delta_edit_seconds: List[float] = field(default_factory=list)
    rebuild_total_seconds: float = 0.0
    rebuild_edit_seconds: List[float] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        if self.delta_total_seconds <= 0:
            return 0.0
        return self.rebuild_total_seconds / self.delta_total_seconds

    @property
    def ok(self) -> bool:
        """The gate: delta-maintained answers and index equal a rebuild's."""
        return self.identical_answers and self.identical_index

    def to_payload(self) -> Dict[str, object]:
        """The ``BENCH_churn.json`` shape (schema ``repro-bench-churn-v1``).

        Structural facts (corpus size, edit count, the identity
        verdicts, the catalog's lineage counters) are run-stable;
        everything wall-clock-derived lives under ``timings`` at
        1 ms resolution, the same artifact-diff contract as the other
        committed bench payloads.
        """
        return {
            "schema": "repro-bench-churn-v1",
            "tables": self.tables,
            "questions": self.questions,
            "edits": self.edits,
            "identical": {
                "answers": self.identical_answers,
                "index": self.identical_index,
            },
            "catalog": dict(self.catalog_stats),
            "timings": {
                "delta": {
                    "total_seconds": quantize_seconds(self.delta_total_seconds),
                    "edit": timing_summary(self.delta_edit_seconds),
                },
                "full_rebuild": {
                    "total_seconds": quantize_seconds(self.rebuild_total_seconds),
                    "edit": timing_summary(self.rebuild_edit_seconds),
                },
                "speedup": round(self.speedup, 2),
            },
        }


def _answer_signature(catalog: TableCatalog, question: str, name: str):
    response = catalog.ask(question, name)
    return [
        (
            item.rank,
            item.answer,
            item.utterance,
            item.candidate.sexpr,
            item.candidate.score,
        )
        for item in response.explained
    ]


def run_churn_bench(
    pairs: Sequence[Tuple[str, Table]],
    edits: Optional[int] = None,
    seed: int = 2019,
) -> ChurnReport:
    """Run the churn harness over a ``(question, table)`` workload.

    ``edits`` defaults to :data:`DEFAULT_EDITS` scaled by
    ``REPRO_BENCH_SCALE`` (floored at 4, so even the CI smoke run
    exercises compounding edits to the same table).
    """
    if edits is None:
        edits = scaled(DEFAULT_EDITS, 4)
    tables: List[Table] = []
    seen = set()
    for _, table in pairs:
        if table.name not in seen:
            seen.add(table.name)
            tables.append(table)
    script = churn_edit_script(tables, edits, seed=seed)

    # -- delta mode: one long-lived catalog, edits flow through update().
    # Reading the index first publishes every posting, so each edit runs
    # CorpusIndex.update's delta instead of swapping a pending digest.
    delta_catalog = TableCatalog()
    delta_catalog.register_all(tables)
    delta_catalog.corpus_index()
    delta_edit_seconds: List[float] = []
    for name, new_table in script:
        started = time.perf_counter()
        delta_catalog.update(name, new_table)
        delta_edit_seconds.append(time.perf_counter() - started)

    # -- full-rebuild mode: every edit pays a from-scratch registration
    # of the whole corpus (the pre-lineage cost model).
    final: Dict[str, Table] = {table.name: table for table in tables}
    rebuild_edit_seconds: List[float] = []
    for name, new_table in script:
        final[name] = new_table
        snapshot = [final[table.name] for table in tables]
        started = time.perf_counter()
        rebuild_catalog = TableCatalog()
        rebuild_catalog.register_all(snapshot)
        rebuild_catalog.corpus_index()
        rebuild_edit_seconds.append(time.perf_counter() - started)

    # -- the invariant: delta-maintained state is bit-identical to a
    # from-scratch build over the final table set.
    fresh_catalog = TableCatalog()
    fresh_catalog.register_all([final[table.name] for table in tables])
    identical_answers = all(
        _answer_signature(delta_catalog, question, table.name)
        == _answer_signature(fresh_catalog, question, table.name)
        for question, table in pairs
    )
    fresh_index = CorpusIndex()
    for table in tables:
        fresh_index.add(final[table.name])
    identical_index = (
        delta_catalog.corpus_index().snapshot() == fresh_index.snapshot()
    )

    stats = delta_catalog.stats()
    return ChurnReport(
        tables=len(tables),
        questions=len(pairs),
        edits=len(script),
        identical_answers=identical_answers,
        identical_index=identical_index,
        catalog_stats={
            "version": int(stats["version"]),
            "updates": int(stats["updates"]),
            "retired": int(stats["retired"]),
            "shards": int(stats["shards"]),
        },
        delta_total_seconds=sum(delta_edit_seconds),
        delta_edit_seconds=delta_edit_seconds,
        rebuild_total_seconds=sum(rebuild_edit_seconds),
        rebuild_edit_seconds=rebuild_edit_seconds,
    )
