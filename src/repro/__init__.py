"""repro — a reproduction of "Explaining Queries over Web Tables to Non-Experts".

The package is organised as:

* :mod:`repro.tables` — the web-table data model (Section 3.1),
* :mod:`repro.dcs` — the lambda DCS query language and executor (Section 3.2),
* :mod:`repro.sql` — the lambda DCS → SQL mapping of Table 10,
* :mod:`repro.core` — the paper's contribution: multilevel cell-based
  provenance (Section 4), NL utterances and provenance-based highlights
  (Section 5),
* :mod:`repro.parser` — the semantic parser substrate (Section 6.2),
* :mod:`repro.dataset` — a synthetic WikiTableQuestions-like benchmark,
* :mod:`repro.users` — simulated crowd workers for the user study (Section 7),
* :mod:`repro.interface` — the deployed NL interface and feedback retraining
  (Section 6),
* :mod:`repro.perf` — batch parsing, content-addressed caches and the
  parse-latency bench harness (Table 7 at deployment scale),
* :mod:`repro.retrieval` — the corpus-level retrieval layer: a
  content-addressed term/entity index and shard router that prune the
  corpus *before* parsing (retrieve-then-parse),
* :mod:`repro.serving` — the asyncio serving layer over the multi-table
  catalog of :mod:`repro.tables.catalog` (concurrent sessions through
  one ``aquery`` entry point, TCP endpoint),
* :mod:`repro.api` — the unified query API: the typed, versioned
  :class:`~repro.api.QueryRequest`/:class:`~repro.api.QueryResult`
  envelope with lossless JSON codecs and the structured
  :class:`~repro.api.ErrorCode` taxonomy, the
  :class:`~repro.api.ReproEngine` façade (sync ``query``/``query_many``,
  async ``aquery``) every entry point routes through, the
  :class:`~repro.api.ReproClient` (in-process or TCP), and the v2
  JSON-lines wire protocol of :mod:`repro.api.wire`.
"""

from . import _lazy

# No exports of their own: each subpackage loads on first access
# (``repro.api``, ``repro.tables``, ...), see :mod:`repro._lazy`.
__getattr__, __dir__ = _lazy.attach(__name__, {})

__version__ = "1.1.0"

__all__ = [
    "api",
    "tables",
    "dcs",
    "sql",
    "core",
    "parser",
    "dataset",
    "users",
    "interface",
    "perf",
    "retrieval",
    "serving",
    "__version__",
]
