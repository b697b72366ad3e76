"""A content-addressed on-disk cache shared across processes.

The in-memory caches die with the process; this store makes the
expensive artifact — a question's whole candidate list — survive
restarts and be shared by concurrent workers, and it holds the tables of
evicted catalog shards.  It works because every key is already
content-addressed: the
:class:`~repro.tables.fingerprint.TableFingerprint` digest is stable
across processes and sessions, so a warm-start process can trust a disk
entry written by any other process that saw the same table content.

Layout (all paths under the cache root)::

    v1/<namespace>/<digest[:2]>/<digest>.pkl

where ``namespace`` is ``candidates`` (one entry per
``(table fingerprint, question, generation signature)``) or ``tables``
(one pickled table per evicted shard's fingerprint), and ``digest`` is a
SHA-256 over the entry key.  The two-hex-digit fan-out directory keeps
any single directory small.  Sub-query results are not stored: a
question's execution memo lives only for its own generation call, so a
new question over a known table is generated cold.

Writes are atomic (temp file + ``os.replace``) so concurrent writers —
thread pools, process pools, parallel test runs — can share one root
without locks: both racers write byte-equal payloads (everything cached
here is deterministic), and the loser's replace is a no-op in effect.
Unreadable or version-mismatched entries are treated as misses and
removed, so schema bumps and torn files degrade to a cold start, never
an error.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, Optional

from .. import faults

#: Bump to invalidate every existing on-disk entry.
DISK_CACHE_SCHEMA = "repro-diskcache-v1"

#: Namespace of per-question candidate-list entries.
CANDIDATES_NAMESPACE = "candidates"
#: Namespace of evicted catalog shards (pickled tables, keyed by digest).
TABLES_NAMESPACE = "tables"


def _digest(key: object) -> str:
    """SHA-256 of the key's canonical repr (keys are tuples of primitives)."""
    return hashlib.sha256(repr(key).encode("utf-8", "surrogatepass")).hexdigest()


class DiskCache:
    """A pickle-backed key/value store under one root directory.

    Parameters
    ----------
    root:
        The cache directory (created on first write).  Safe to share
        between threads and processes; see the module docstring for the
        atomicity story.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root) / "v1"
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0

    # -- paths -----------------------------------------------------------------
    def _path(self, namespace: str, key: object) -> Path:
        digest = _digest(key)
        return self.root / namespace / digest[:2] / f"{digest}.pkl"

    # -- generic protocol ------------------------------------------------------
    def get(self, namespace: str, key: object) -> Optional[Any]:
        """The stored payload, or ``None`` on a miss (or unreadable entry)."""
        path = self._path(namespace, key)
        try:
            blob = path.read_bytes()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        try:
            # The failpoint targets the *rebuildable* namespaces, where
            # the contract is "degrade to a miss".  Table spills are
            # primary storage for evicted shards — corruption there is
            # a real data loss the catalog surfaces as a coded error.
            if namespace != TABLES_NAMESPACE and faults.should_fire(
                "diskcache.corrupt_read"
            ):
                raise ValueError("injected diskcache.corrupt_read")
            schema, stored_key, payload = pickle.loads(blob)
            if schema != DISK_CACHE_SCHEMA or stored_key != key:
                raise ValueError("schema or key mismatch")
        except Exception:
            # Torn write, digest collision or stale schema: degrade to a
            # miss and drop the entry so it is rebuilt cleanly.
            with self._lock:
                self.errors += 1
                self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        with self._lock:
            self.hits += 1
        return payload

    def put(self, namespace: str, key: object, payload: Any) -> None:
        """Atomically persist ``payload`` under ``key``.

        Serialisation failures are swallowed (counted in ``errors``):
        the disk cache is an accelerator, never a correctness dependency.
        """
        path = self._path(namespace, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            blob = pickle.dumps(
                (DISK_CACHE_SCHEMA, key, payload), protocol=pickle.HIGHEST_PROTOCOL
            )
            handle, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(handle, "wb") as stream:
                    stream.write(blob)
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except Exception:
            with self._lock:
                self.errors += 1
            return
        with self._lock:
            self.writes += 1

    # -- typed wrappers --------------------------------------------------------
    def get_candidates(self, fingerprint_digest: str, question: str, signature: str):
        return self.get(CANDIDATES_NAMESPACE, (fingerprint_digest, question, signature))

    def put_candidates(
        self, fingerprint_digest: str, question: str, signature: str, payload: Any
    ) -> None:
        self.put(CANDIDATES_NAMESPACE, (fingerprint_digest, question, signature), payload)

    def remove(self, namespace: str, key: object) -> bool:
        """Unlink one entry; returns whether a file was removed."""
        path = self._path(namespace, key)
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def get_table(self, fingerprint_digest: str) -> Optional[Any]:
        """An evicted catalog shard's table, or ``None`` when never evicted."""
        return self.get(TABLES_NAMESPACE, (fingerprint_digest,))

    def put_table(self, fingerprint_digest: str, table: Any) -> None:
        """Persist a catalog shard's table ahead of dropping it from memory.

        The pickle preserves typed cells exactly, so the rehydrated
        table recomputes the same content fingerprint and re-joins every
        content-addressed cache it left.
        """
        self.put(TABLES_NAMESPACE, (fingerprint_digest,), table)

    def remove_table(self, fingerprint_digest: str) -> bool:
        """Unlink a retired lineage ancestor's table blob.

        Only :meth:`TableCatalog.prune_lineage` calls this, and only for
        digests nothing can resolve any more — live and pinned shards
        keep their blobs (primary storage for evicted shards).
        """
        return self.remove(TABLES_NAMESPACE, (fingerprint_digest,))

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        """Number of entries currently on disk (walks the tree)."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))

    def stats(self) -> Dict[str, int]:
        """Counters in the shape of ``LRUCache.stats()`` plus write/error."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "errors": self.errors,
            }

    @staticmethod
    def empty_stats() -> Dict[str, int]:
        """The all-zero stats block reported when no disk cache is configured."""
        return {"hits": 0, "misses": 0, "writes": 0, "errors": 0}

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"DiskCache({self.root}, hits={self.hits}, misses={self.misses})"
