"""Content-addressed table identity and the caches built on top of it.

Long-running deployments (Section 6 of the paper: the interface answers a
stream of questions over many tables) need per-table caches — lexicons,
candidate grammars, execution results.  Keying those caches by ``id(table)``
is wrong twice over: CPython reuses object ids after garbage collection, so
two *different* tables can silently alias the same cache slot, and the cache
grows without bound because ids of dead tables are never evicted.

This module provides the fix used throughout the repository:

* :class:`TableFingerprint` — a stable, content-addressed identity for a
  table: a SHA-256 digest over the table's schema (headers, in order) and
  every typed cell.  Two tables with identical content share a fingerprint
  (so caches are shared between them); any change to a header, a cell value
  or a cell *type* changes the fingerprint.
* :class:`LRUCache` — a small, thread-safe, bounded LRU mapping used for
  every fingerprint-keyed cache (parser lexicons/grammars, explanation
  generators, candidate lists, execution results), indexed by table so
  one table's entries leave a cache in one :meth:`~LRUCache.discard`.

The fingerprint is exposed as :attr:`repro.tables.table.Table.fingerprint`
and computed lazily exactly once per table object.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from .values import DateValue, NumberValue, StringValue, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (table.py imports us)
    from .table import Table


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableFingerprint:
    """A content-addressed identity for a :class:`~repro.tables.table.Table`.

    The fingerprint contract:

    * **Determinism** — rebuilding a table from the same columns and rows
      always yields the same fingerprint, across processes and sessions.
    * **Sensitivity** — changing any header, any cell value, the type of
      any cell (e.g. a column switching from numbers to dates), the row
      order or the column order changes the fingerprint.
    * **Name-independence** — the table *title* is display metadata and is
      deliberately excluded, so two identical tables loaded under
      different names share caches.

    Attributes
    ----------
    digest:
        Hex SHA-256 over the canonical serialisation of schema + cells.
    num_rows / num_columns:
        Shape metadata, carried along for observability (bench reports,
        cache statistics).  They participate in dataclass equality, but
        the canonical serialisation is injective, so two fingerprints
        with equal digests always carry equal shapes as well.
    """

    digest: str
    num_rows: int
    num_columns: int

    @property
    def short(self) -> str:
        """A 12-hex-digit abbreviation for logs and bench reports."""
        return self.digest[:12]

    def __str__(self) -> str:
        return self.short


def _cell_token(value: Value) -> str:
    """A canonical, type-tagged token for one cell value."""
    if isinstance(value, StringValue):
        return f"s\x1f{value.text}"
    if isinstance(value, NumberValue):
        return f"n\x1f{value.number!r}"
    if isinstance(value, DateValue):
        return f"d\x1f{value.year}\x1f{value.month}\x1f{value.day}"
    return f"?\x1f{type(value).__name__}\x1f{value.display()}"  # pragma: no cover


def fingerprint_table(table: "Table") -> TableFingerprint:
    """Compute the content-addressed fingerprint of ``table``.

    Prefer the cached :attr:`Table.fingerprint` property; this function is
    the underlying (stateless) implementation.

    Every token is length-prefixed before hashing, which makes the
    serialisation injective: a delimiter character *inside* a header or
    cell text cannot shift token boundaries, so two different tables can
    never share a digest by construction.
    """

    def feed(hasher, token: str) -> None:
        data = token.encode("utf-8", "surrogatepass")
        hasher.update(f"{len(data)}:".encode("ascii"))
        hasher.update(data)

    hasher = hashlib.sha256()
    hasher.update(b"repro-table-v2\x1e")
    for column in table.columns:
        feed(hasher, column)
    hasher.update(b"\x1e")
    for record in table.records:
        for cell in record.cells:
            feed(hasher, _cell_token(cell.value))
        hasher.update(b"\x1e")
    return TableFingerprint(
        digest=hasher.hexdigest(),
        num_rows=table.num_rows,
        num_columns=table.num_columns,
    )


# ---------------------------------------------------------------------------
# the bounded LRU backing every fingerprint-keyed cache
# ---------------------------------------------------------------------------

_MISSING = object()


def _table_digest(key: Any) -> Optional[str]:
    """The content digest a cache key belongs to, or ``None``.

    Every per-table cache in the repository keys its entries by a bare
    :class:`TableFingerprint` (lexicons, grammars, explanation
    generators, indexes, schema profiles) or by a tuple led by one
    (candidate lists, execution results, ranked parses, explanations).
    """
    if isinstance(key, TableFingerprint):
        return key.digest
    if isinstance(key, tuple) and key and isinstance(key[0], TableFingerprint):
        return key[0].digest
    return None


class LRUCache:
    """A thread-safe, bounded least-recently-used mapping.

    Used for every content-addressed cache in the repository: parser
    lexicons and grammars, explanation generators, per-question candidate
    lists and the pools' ranked-parse and explanation memos.  Eviction keeps long-running deployments at a
    fixed memory footprint; hit/miss/eviction counters feed the bench
    reports and ``SemanticParser.cache_stats()``.

    The cache also knows which entries belong to which table: every key
    that is a :class:`TableFingerprint`, or a tuple led by one, is
    indexed under its digest, so :meth:`items_for` and :meth:`discard`
    cost O(that table's entries) rather than a scan of the whole cache.
    The index is bookkeeping only — it changes neither the LRU order nor
    any counter.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"LRUCache needs maxsize >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        #: digest -> the keys of that table's entries (insertion-ordered).
        self._by_table: Dict[str, Dict[Any, None]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- mapping interface ----------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency.  Counts a hit or miss."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        with self._lock:
            self._insert(key, value)

    def get_or_create(self, key: Any, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on a miss.

        The factory runs *outside* the lock so that an expensive build
        (e.g. a candidate grammar) never serialises unrelated lookups;
        when two threads race on the same key the first inserted value
        wins and the duplicate is discarded, which is safe because every
        factory used in this repository is deterministic.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1
        built = factory()
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
                return value
            self._insert(key, built)
            return built

    def pop(self, key: Any, default: Any = None) -> Any:
        """Remove and return ``key``'s value (no hit/miss counting).

        Explicit removal — used by shard eviction — is bookkeeping, not
        lookup traffic, so the counters stay untouched.
        """
        with self._lock:
            value = self._data.pop(key, _MISSING)
            if value is _MISSING:
                return default
            self._unindex(key)
            return value

    def discard(self, digest: str) -> int:
        """Remove every entry of the table with content ``digest``.

        The one way a table leaves a cache (shard eviction, version
        retirement).  Like :meth:`pop` it is bookkeeping: no counter
        moves.  Returns the number of entries removed.
        """
        with self._lock:
            keys = self._by_table.pop(digest, None)
            if not keys:
                return 0
            for key in keys:
                del self._data[key]
            return len(keys)

    def items_for(self, digest: str) -> Dict[Any, Any]:
        """A snapshot ``{key: value}`` of one table's entries.

        Oldest insertion first; no recency or counter effects.
        """
        with self._lock:
            keys = self._by_table.get(digest, ())
            return {key: self._data[key] for key in keys}

    # -- index maintenance (callers hold the lock) ------------------------------
    def _insert(self, key: Any, value: Any) -> None:
        data = self._data
        if key not in data:
            digest = _table_digest(key)
            if digest is not None:
                self._by_table.setdefault(digest, {})[key] = None
        data[key] = value
        data.move_to_end(key)
        while len(data) > self.maxsize:
            evicted, _ = data.popitem(last=False)
            self._unindex(evicted)
            self.evictions += 1

    def _unindex(self, key: Any) -> None:
        digest = _table_digest(key)
        if digest is None:
            return
        keys = self._by_table[digest]
        del keys[key]
        if not keys:
            del self._by_table[digest]

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._by_table.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for bench reports: size, capacity, hits, misses, evictions."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"LRUCache({len(self)}/{self.maxsize}, hits={self.hits}, misses={self.misses})"
