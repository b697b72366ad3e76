"""Memoized lambda DCS execution (the deployment hot path, Table 7).

Every question answered by the interface triggers execution of up to
~600 candidate queries against the same table, and those candidates share
most of their sub-trees: ``(column-records "Country" (value "Greece"))``
appears under dozens of aggregates, projections and superlatives.  The
plain :class:`~repro.dcs.executor.Executor` re-walks the table for every
occurrence; :class:`MemoizedExecutor` executes each distinct sub-query
once per table content.

Keys are content-addressed — ``(TableFingerprint, canonical s-expression)``
— so a cache can be shared between executors, threads and even distinct
:class:`~repro.tables.table.Table` objects holding the same data, and can
never alias after an object id is recycled.  Failures are memoized too:
a sub-query that raised keeps raising without re-walking the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..tables.fingerprint import LRUCache, TableFingerprint
from ..tables.table import Table
from .ast import Query
from .errors import ExecutionError
from .executor import ExecutionResult, Executor
from .sexpr import to_sexpr

#: Default capacity of a shared execution cache.  Entries are small (an
#: :class:`ExecutionResult` holds tuples of cells already owned by the
#: table), so a six-figure bound is cheap and covers hundreds of tables.
DEFAULT_EXECUTION_CACHE_SIZE = 100_000

_MISS = object()


@dataclass(frozen=True)
class _CachedFailure:
    """A memoized execution error (kept distinct from genuine results).

    Only the exception *type and args* are stored, never the raised
    exception object: a live exception drags its ``__traceback__`` along,
    and those frames reference the executor and the table — which would
    keep evicted tables alive and defeat the bounded caches.
    """

    error_type: type
    args: Tuple

    def replay(self) -> ExecutionError:
        return self.error_type(*self.args)


class ExecutionCache:
    """A shared, bounded, thread-safe cache of sub-query execution results.

    Maps ``(TableFingerprint, canonical s-expression)`` to either an
    :class:`~repro.dcs.executor.ExecutionResult` or a memoized
    :class:`~repro.dcs.errors.ExecutionError`.  Both are immutable, so
    cached entries are shared freely across executors and worker threads.
    """

    def __init__(self, maxsize: int = DEFAULT_EXECUTION_CACHE_SIZE) -> None:
        self._lru = LRUCache(maxsize=maxsize)

    # -- cache protocol -------------------------------------------------------
    def lookup(self, fingerprint: TableFingerprint, sexpr: str) -> object:
        """The cached entry for a sub-query, or the module-level miss marker."""
        return self._lru.get((fingerprint, sexpr), _MISS)

    def store(self, fingerprint: TableFingerprint, sexpr: str, entry: object) -> None:
        self._lru.put((fingerprint, sexpr), entry)

    # -- persistence hooks (used by the parser's disk cache) -------------------
    def entries_for(self, fingerprint: TableFingerprint) -> Dict[str, object]:
        """All cached entries of one table content, keyed by s-expression.

        The payload of an on-disk execution bundle: every entry (results
        and memoized failures alike) is immutable and picklable.
        """
        return {
            sexpr: entry
            for (_, sexpr), entry in self._lru.items_for(fingerprint.digest).items()
        }

    def load_entries(self, fingerprint: TableFingerprint, entries: Dict[str, object]) -> int:
        """Warm-start the cache from an on-disk bundle; returns entries added.

        Existing (in-memory) entries win — they are byte-equal anyway for
        a deterministic executor, and keeping them avoids LRU churn.
        """
        loaded = 0
        for sexpr, entry in entries.items():
            key = (fingerprint, sexpr)
            if key not in self._lru:
                self._lru.put(key, entry)
                loaded += 1
        return loaded

    def evict_fingerprint(self, fingerprint: TableFingerprint) -> int:
        """Drop every entry of one table content; returns entries removed.

        The shard-eviction hook: a catalog that has persisted a cold
        table's execution bundle to disk removes its in-memory entries so
        the shared cache only holds hot tables.  A later question over the
        same content warm-starts from the disk bundle instead.
        """
        return self._lru.discard(fingerprint.digest)

    # -- introspection --------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        self._lru.clear()

    def stats(self) -> Dict[str, int]:
        return self._lru.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ExecutionCache({len(self)} entries, hits={self.hits}, misses={self.misses})"


class MemoizedExecutor(Executor):
    """An :class:`Executor` that memoizes every (sub-)query it executes.

    Drop-in result-equivalent to the plain executor (a property test in
    ``tests/test_property_based.py`` locks this in): it produces the same
    :class:`ExecutionResult` — answers, output cells and aggregate markers
    included — and raises the same :class:`ExecutionError` on the same
    inputs.  The only observable difference is speed: each distinct
    sub-tree is executed once per table content.

    Parameters
    ----------
    table:
        The table to execute against.
    cache:
        An optional shared :class:`ExecutionCache`.  Pass the same cache
        to every executor of a deployment so candidates of different
        questions (and different questions over the same table) reuse each
        other's sub-query results; omit it for a private per-executor cache.
    use_index:
        Forwarded to :class:`~repro.dcs.executor.Executor`: answer cache
        misses from the content-addressed column index (default) or from
        plain row scans.
    """

    def __init__(
        self,
        table: Table,
        cache: Optional[ExecutionCache] = None,
        use_index: bool = True,
    ) -> None:
        super().__init__(table, use_index=use_index)
        self.cache = cache if cache is not None else ExecutionCache()
        self._fingerprint = table.fingerprint

    def execute(self, query: Query) -> ExecutionResult:
        """Execute with memoization; recursion memoizes every sub-query."""
        sexpr = to_sexpr(query)
        entry = self.cache.lookup(self._fingerprint, sexpr)
        if entry is not _MISS:
            if isinstance(entry, _CachedFailure):
                raise entry.replay()
            return entry
        try:
            result = super().execute(query)
        except ExecutionError as error:
            self.cache.store(
                self._fingerprint, sexpr, _CachedFailure(type(error), tuple(error.args))
            )
            raise
        self.cache.store(self._fingerprint, sexpr, result)
        return result


def execute_memoized(
    query: Query, table: Table, cache: Optional[ExecutionCache] = None
) -> ExecutionResult:
    """Convenience wrapper mirroring :func:`repro.dcs.executor.execute`."""
    return MemoizedExecutor(table, cache=cache).execute(query)
