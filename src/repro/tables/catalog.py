"""A fingerprint-addressed catalog of many tables behind one interface.

The paper's deployment (Section 6) serves hundreds of questions against
many distinct web tables from one long-running process — not one table
per process.  This module is that missing subsystem: a
:class:`TableCatalog` registers tables *by content* (the
:class:`~repro.tables.fingerprint.TableFingerprint` digest is the primary
key; names are aliases), routes ``ask(question, table_ref)`` through the
existing content-addressed parser/index/memo caches, answers corpus-wide
questions with the retrieve-then-parse pipeline of
:meth:`TableCatalog.ask_any` (the :mod:`repro.retrieval` corpus index
prunes the shard set before the parser runs, with a guaranteed broadcast
fallback), and keeps the memory footprint bounded by evicting cold
shards — the pickled table itself, beside the candidate lists its
questions already wrote — to the :class:`~repro.perf.diskcache.DiskCache`.

Because every cache in the repository is keyed by content fingerprint,
routing many tables through one shared :class:`~repro.interface.NLInterface`
needs no per-table plumbing: a question over shard A can never read
shard B's state, and two shards with equal content transparently share
lexicons, grammars, indexes and candidate lists.

Eviction is loss-free by construction.  Everything dropped from memory
is *derived* state: with a cache directory configured, every candidate
list is already in the content-addressed disk store (written at
generation time) and the table is pickled beside them, so a rehydrated
shard answers bit-identically to one that never went cold (locked in by
``tests/test_catalog.py``) and its known questions skip generation;
without a cache directory the table stays in memory and only the derived
caches are dropped, trading rehydration speed for the same answers.

The asyncio serving layer over this catalog lives in
:mod:`repro.serving`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .diff import TableDiff, diff_tables
from .index import update_index
from .table import Table, TableError

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime imports are lazy)
    from ..compose.answer import ComposedAnswer
    from ..interface.nl_interface import InterfaceResponse, NLInterface
    from ..retrieval.corpus_index import CorpusIndex
    from ..retrieval.router import RoutingDecision, SetRoutingDecision

#: How a caller may name a table: a :class:`TableRef`, a registered name,
#: a full or abbreviated (>= 8 hex chars, unique) fingerprint digest, or
#: the :class:`~repro.tables.table.Table` object itself.
TableLike = Union["TableRef", Table, str]

#: Shortest digest prefix accepted by :meth:`TableCatalog.resolve`.
_MIN_DIGEST_PREFIX = 8


class CatalogError(TableError):
    """Raised on unknown refs, name collisions and unrehydratable shards."""


class UnknownTableError(CatalogError):
    """The ref resolves to no registered shard (``ErrorCode.UNKNOWN_TABLE``)."""


class AmbiguousTableError(CatalogError):
    """A digest prefix matches several shards (``ErrorCode.AMBIGUOUS_TABLE``)."""


class NameConflictError(CatalogError):
    """``register()`` reused a taken name with different content
    (``ErrorCode.NAME_CONFLICT``) — callers who mean "publish new content
    under this name" want :meth:`TableCatalog.update`."""


@dataclass(frozen=True)
class TableRef:
    """A stable handle to a registered table.

    ``digest`` is the content fingerprint (the primary key — stable
    across processes, sessions and table renames); ``name`` is the
    display alias the table was registered under.  ``version`` and
    ``predecessor`` record the shard's place in its lineage chain:
    freshly registered content is version 1 with no predecessor, and
    every :meth:`TableCatalog.update` produces a ref one version deeper
    whose ``predecessor`` is the superseded content's digest.
    """

    digest: str
    name: str
    num_rows: int
    num_columns: int
    version: int = 1
    predecessor: Optional[str] = None

    @property
    def short(self) -> str:
        """A 12-hex-digit digest abbreviation for listings and logs."""
        return self.digest[:12]

    def __str__(self) -> str:
        return f"{self.name}@{self.short}"


@dataclass
class _Shard:
    """Internal per-table state (not part of the public API).

    ``superseded_by`` is set when an :meth:`TableCatalog.update` replaced
    this shard's content; the shard then no longer appears in
    :meth:`TableCatalog.refs` but stays digest-resolvable until its
    ``pins`` (in-flight queries accepted against it) drain to zero, at
    which point it is retired for good.
    """

    ref: TableRef
    table: Optional[Table]
    order: int
    hot: bool = True
    asks: int = 0
    last_used: int = 0
    superseded_by: Optional[str] = None
    pins: int = 0


@dataclass
class CatalogAnswer:
    """The result of scoring one question across the catalog.

    ``ranked`` pairs every *parsed* shard's ref with its response, best
    first: ordered by the top candidate's model score (descending), ties
    broken by retrieval score (descending) then registration order —
    deterministic for a fixed catalog, index and model.

    With pruning (the default pipeline) only the shards the
    :class:`~repro.retrieval.router.ShardRouter` kept were parsed;
    ``routing`` records the full decision (every shard's retrieval score,
    the pruned set, whether the broadcast fallback fired) and ``pruned``
    says whether the retrieve-then-parse path was active at all.

    ``set_routing`` is the router's set decision when set routing ran
    (its ``single`` is exactly ``routing``);
    ``composed`` carries a cross-table
    :class:`~repro.compose.answer.ComposedAnswer` when one of the
    proposed shard sets planned, validated and executed a join — strictly
    additive, the single-shard ranking above is never affected.
    """

    question: str
    ranked: List[Tuple[TableRef, "InterfaceResponse"]] = field(default_factory=list)
    routing: Optional["RoutingDecision"] = None
    pruned: bool = False
    set_routing: Optional["SetRoutingDecision"] = None
    composed: Optional["ComposedAnswer"] = None

    @property
    def shards_parsed(self) -> int:
        return len(self.ranked)

    @property
    def shards_pruned(self) -> int:
        if not self.pruned or self.routing is None:
            return 0
        return self.routing.num_pruned

    @property
    def best(self) -> Optional[Tuple[TableRef, "InterfaceResponse"]]:
        return self.ranked[0] if self.ranked else None

    def __repr__(self) -> str:
        # Bounded: the generated repr would recurse into every ranked
        # shard's full response graph (see InterfaceResponse.__repr__).
        return (
            f"CatalogAnswer(question={self.question!r}, "
            f"shards_parsed={self.shards_parsed}, answer={self.answer!r})"
        )

    @property
    def best_ref(self) -> Optional[TableRef]:
        return self.ranked[0][0] if self.ranked else None

    @property
    def best_response(self) -> Optional["InterfaceResponse"]:
        return self.ranked[0][1] if self.ranked else None

    @property
    def answer(self) -> Tuple[str, ...]:
        response = self.best_response
        top = response.top if response is not None else None
        return top.answer if top is not None else ()


class TableCatalog:
    """Routes questions across many registered tables.

    Parameters
    ----------
    interface:
        The shared :class:`~repro.interface.NLInterface` to route through.
        Omitted, the catalog builds one whose parser persists candidate
        lists under ``cache_dir`` (when given).
    cache_dir:
        Root of the content-addressed :class:`~repro.perf.diskcache.DiskCache`.
        Enables *full* eviction: cold shards drop their table from memory
        and rehydrate from disk bit-identically.  Without it eviction
        only sheds derived caches and keeps tables resident.
    max_hot_shards:
        When set, the catalog auto-evicts least-recently-used shards so
        at most this many stay hot.  ``None`` leaves eviction manual.
    k:
        Default top-``k`` for a catalog-built interface.

    Registration does not index.  Only corpus-wide reads consult the
    corpus retrieval index — :meth:`routing`, :meth:`routing_sets`,
    :meth:`ask_any`, :meth:`stats` and :meth:`corpus_index` — so a
    registration only marks its digest pending, and the first such read
    catches the index up in one batch
    (:func:`~repro.retrieval.corpus_index.extract_shard_postings`, then
    one :meth:`~repro.retrieval.CorpusIndex.add_postings`).
    :meth:`evict` publishes its shard's posting before the table leaves
    memory, so routing never rehydrates a shard.  A catalog that only
    answers questions over a named table never extracts a posting.  The
    price: the first corpus-wide read, ``stats`` call or eviction after
    a registration pays the extraction registration used to pay, and
    holds the catalog lock while it does — about 5 ms for 24 small
    tables, 0.1–0.2 s for 500 discovery shards.
    """

    def __init__(
        self,
        interface: Optional["NLInterface"] = None,
        cache_dir: Optional[str] = None,
        max_hot_shards: Optional[int] = None,
        k: int = 7,
    ) -> None:
        if max_hot_shards is not None and max_hot_shards < 1:
            raise CatalogError(
                f"max_hot_shards must be >= 1 (or None), got {max_hot_shards}"
            )
        # Imported lazily: the tables layer loads the parser and the
        # interface only when a catalog is built.
        from ..interface.nl_interface import NLInterface
        from ..parser.candidates import ParserConfig, SemanticParser

        if interface is None:
            config = ParserConfig(
                disk_cache_dir=str(cache_dir) if cache_dir else None
            )
            interface = NLInterface(parser=SemanticParser(config=config), k=k)
        self.interface = interface
        self.max_hot_shards = max_hot_shards
        if cache_dir:
            from ..perf.diskcache import DiskCache

            self._disk: Optional["DiskCache"] = DiskCache(cache_dir)
        else:
            self._disk = None
        # Imported lazily for the same reason as the interface above.
        from ..retrieval import CorpusIndex, ShardRouter

        self._index = CorpusIndex()
        #: Live digests whose postings are not yet in ``_index``; the
        #: next corpus-wide read publishes them (:meth:`corpus_index`).
        self._unindexed: set = set()
        self._router = ShardRouter(self._index)
        self._shards: Dict[str, _Shard] = {}
        self._names: Dict[str, str] = {}
        self._order = itertools.count()
        self._clock = itertools.count(1)
        self._lock = threading.RLock()
        # Digests whose table blob this catalog already wrote to its disk
        # store.  Tables are immutable and content-addressed, so one
        # write per digest suffices — repeat evictions of a hot-again
        # shard must not re-pickle identical bytes (the cache dir is
        # owned by this catalog for its lifetime).
        self._persisted_tables: set = set()
        self.evictions = 0
        self.rehydrations = 0
        # -- live-corpus state (the mutation path) -----------------------
        #: Monotonic corpus version: bumped on every content-new
        #: register and every update.  Results carry the version they
        #: were computed against (the v2 wire's ``corpus_version``).
        self.version = 0
        self.updates = 0
        self.retired = 0
        #: live digest -> its retired ancestors' digests, oldest first
        #: (drives :meth:`prune_lineage` over the disk tables namespace).
        self._history: Dict[str, List[str]] = {}
        #: Called with each retired :class:`TableRef` once its pins drain
        #: — the engine forwards these to worker pools so per-worker
        #: registries drop superseded snapshots instead of leaking.
        self._retire_listeners: List = []

    # -- registration ----------------------------------------------------------
    def register(self, table: Table, name: Optional[str] = None) -> TableRef:
        """Register ``table`` under ``name`` (default: the table's own name).

        Content-addressed and idempotent: re-registering equal content
        returns the existing shard (adding the new name as an alias);
        registering a *different* table under a taken name raises.
        New content is marked pending for the corpus retrieval index,
        not indexed: the next corpus-wide read extracts its posting (see
        the class docstring).
        """
        return self.register_all(
            [table], names=[name if name is not None else table.name]
        )[0]

    def register_all(
        self, tables: Sequence[Table], names: Optional[Sequence[str]] = None
    ) -> List[TableRef]:
        """Register a sequence of tables; returns their refs, index-aligned.

        Every name in the batch is validated — against the catalog and
        within the batch itself — before anything is mutated, so a name
        conflict rejects the whole batch.  Registration extracts no
        posting (see the class docstring), and a hot limit is enforced
        once, after the batch: recency order is that of registering the
        tables one by one, so the same shards end up evicted.
        """
        if names is not None and len(names) != len(tables):
            raise CatalogError(
                f"got {len(names)} names for {len(tables)} tables"
            )
        tables = list(tables)
        resolved_names = [
            names[i] if names is not None else table.name
            for i, table in enumerate(tables)
        ]
        digests = [table.fingerprint.digest for table in tables]
        with self._lock:
            claimed = dict(self._names)
            for name, digest in zip(resolved_names, digests):
                taken = claimed.get(name)
                if taken is not None and taken != digest:
                    raise NameConflictError(
                        f"name {name!r} is already registered for table "
                        f"{taken[:12]}; use update({name!r}, new_table) to "
                        f"publish new content under an existing name"
                    )
                claimed[name] = digest
            refs: List[TableRef] = []
            for table, name, digest in zip(tables, resolved_names, digests):
                shard = self._shards.get(digest)
                if shard is None:
                    ref = TableRef(
                        digest=digest,
                        name=name,
                        num_rows=table.num_rows,
                        num_columns=table.num_columns,
                    )
                    shard = _Shard(
                        ref=ref, table=table, order=next(self._order)
                    )
                    self._shards[digest] = shard
                    self._unindexed.add(digest)
                    self.version += 1
                elif shard.table is None:
                    # Re-registering an evicted shard rehydrates it for free.
                    shard.table = table
                    shard.hot = True
                self._names[name] = digest
                self._touch(shard)
                refs.append(shard.ref)
            if digests:
                self._enforce_hot_limit(protect=digests[-1])
            return refs

    # -- mutation (the live-corpus path) ---------------------------------------
    def update(self, ref: TableLike, new_table: Table) -> TableRef:
        """Publish ``new_table`` as the next version of an existing shard.

        The delta path: the old and new contents are diffed
        (:func:`~repro.tables.diff.diff_tables`) and only the affected
        structures are touched — the corpus index migrates just the
        posting keys that changed, the per-column
        :class:`~repro.tables.index.TableIndex` rebuilds only changed
        columns — leaving the system bit-identical to one rebuilt from
        scratch on the final table set (locked in by
        ``tests/test_churn.py``).

        Lineage: the new ref records ``version + 1`` and the old digest
        as ``predecessor``; every name that aliased the old shard now
        resolves to the new one.  The superseded shard disappears from
        :meth:`refs` immediately but stays digest-resolvable until its
        pinned in-flight queries drain (see :meth:`pin`), after which it
        is retired: its derived caches are dropped, retire listeners
        (worker pools) are notified, and its table blob becomes eligible
        for :meth:`prune_lineage`.

        Returns the old ref unchanged when ``new_table`` has equal
        content (a no-op edit).
        """
        with self._lock:
            old_shard = self._shard_for(ref)
            old_ref = old_shard.ref
            if old_shard.superseded_by is not None:
                raise CatalogError(
                    f"shard {old_ref} was already superseded by "
                    f"{old_shard.superseded_by[:12]}; update the current "
                    f"version instead"
                )
            new_digest = new_table.fingerprint.digest
            if new_digest == old_ref.digest:
                return old_ref
            if new_digest in self._shards:
                raise CatalogError(
                    f"content {new_digest[:12]} is already registered as "
                    f"{self._shards[new_digest].ref}; cannot fold two live "
                    f"shards into one lineage"
                )
            old_table = self._materialize(old_shard)
            diff = diff_tables(old_table, new_table)
            # Delta maintenance: postings by changed key (or, when the old
            # posting was never published, just the pending digest),
            # per-column indexes by changed column.
            if old_ref.digest in self._unindexed:
                self._unindexed.discard(old_ref.digest)
                self._unindexed.add(new_digest)
            else:
                self._index.update(old_ref.digest, new_table)
            update_index(old_table.fingerprint, new_table, diff)
            new_ref = TableRef(
                digest=new_digest,
                name=old_ref.name,
                num_rows=new_table.num_rows,
                num_columns=new_table.num_columns,
                version=old_ref.version + 1,
                predecessor=old_ref.digest,
            )
            # The successor inherits the registration order so corpus
            # ranking tie-breaks exactly as a fresh catalog built on the
            # final table set would.
            new_shard = _Shard(
                ref=new_ref, table=new_table, order=old_shard.order
            )
            self._shards[new_digest] = new_shard
            old_shard.superseded_by = new_digest
            for alias, digest in list(self._names.items()):
                if digest == old_ref.digest:
                    self._names[alias] = new_digest
            self._history[new_digest] = self._history.pop(
                old_ref.digest, []
            ) + [old_ref.digest]
            self.version += 1
            self.updates += 1
            self._touch(new_shard)
            self._maybe_retire(old_shard)
            self._enforce_hot_limit(protect=new_digest)
            return new_ref

    def pin(self, ref: TableLike) -> TableRef:
        """Resolve ``ref`` and pin its shard against retirement.

        The serving layer pins every accepted request's shard at
        acceptance, so an :meth:`update` racing with in-flight work keeps
        the superseded snapshot resolvable until :meth:`unpin` drains it.
        """
        with self._lock:
            shard = self._shard_for(ref)
            shard.pins += 1
            return shard.ref

    def unpin(self, ref: TableLike) -> None:
        """Release one :meth:`pin`; retires the shard when drained."""
        with self._lock:
            try:
                shard = self._shard_for(ref)
            except CatalogError:
                return  # already retired through another path
            if shard.pins > 0:
                shard.pins -= 1
            self._maybe_retire(shard)

    def on_retire(self, listener) -> None:
        """Register a callable invoked with each retired :class:`TableRef`."""
        with self._lock:
            self._retire_listeners.append(listener)

    def off_retire(self, listener) -> None:
        """Remove a listener :meth:`on_retire` registered (absent: a no-op).

        The list holds its listeners strongly: an owner that registers a
        bound method removes it when it closes, or the catalog keeps the
        owner alive.
        """
        with self._lock:
            if listener in self._retire_listeners:
                self._retire_listeners.remove(listener)

    def _maybe_retire(self, shard: _Shard) -> None:
        """Drop a superseded shard once its last pin drains (lock held)."""
        if shard.superseded_by is None or shard.pins > 0:
            return
        digest = shard.ref.digest
        if digest not in self._shards:
            return  # already retired
        table = shard.table
        if table is not None:
            # Drop the in-memory derived state for exactly this
            # fingerprint; nothing is persisted for a superseded version.
            self.interface.retire_table(table)
        del self._shards[digest]
        self.retired += 1
        for listener in list(self._retire_listeners):
            listener(shard.ref)

    def prune_lineage(self, keep: int = 1) -> List[str]:
        """Unlink retired ancestors' table blobs from the disk store.

        Every update leaves the superseded version's pickled table in the
        disk cache's tables namespace (when it was ever evicted there) —
        primary storage for a version nothing can resolve any more.  This
        keeps the newest ``keep`` versions of each lineage (the live
        version counts as one) and unlinks the rest, returning the pruned
        digests.  Digests still resolvable (a pinned snapshot not yet
        retired) are never pruned.
        """
        if keep < 1:
            raise CatalogError(f"prune_lineage keep must be >= 1, got {keep}")
        pruned: List[str] = []
        with self._lock:
            if self._disk is None:
                return pruned
            for digest, ancestors in list(self._history.items()):
                cutoff = max(0, len(ancestors) - (keep - 1))
                kept: List[str] = []
                for position, old in enumerate(ancestors):
                    if position >= cutoff or old in self._shards:
                        kept.append(old)
                        continue
                    self._disk.remove_table(old)
                    self._persisted_tables.discard(old)
                    pruned.append(old)
                self._history[digest] = kept
        return pruned

    # -- resolution ------------------------------------------------------------
    def resolve(self, ref: TableLike) -> TableRef:
        """Resolve a name / digest / digest prefix / table / ref to its ref."""
        return self._shard_for(ref).ref

    def _shard_for(self, ref: TableLike) -> _Shard:
        with self._lock:
            if isinstance(ref, TableRef):
                shard = self._shards.get(ref.digest)
                if shard is None:
                    raise UnknownTableError(f"unknown table ref {ref}")
                return shard
            if isinstance(ref, Table):
                shard = self._shards.get(ref.fingerprint.digest)
                if shard is None:
                    raise UnknownTableError(
                        f"table {ref.name!r} ({ref.fingerprint.short}) is not registered"
                    )
                return shard
            if isinstance(ref, str):
                digest = self._names.get(ref)
                if digest is not None:
                    return self._shards[digest]
                if ref in self._shards:
                    return self._shards[ref]
                if len(ref) >= _MIN_DIGEST_PREFIX:
                    matches = [
                        shard
                        for digest, shard in self._shards.items()
                        if digest.startswith(ref)
                    ]
                    if len(matches) == 1:
                        return matches[0]
                    if len(matches) > 1:
                        raise AmbiguousTableError(f"ambiguous digest prefix {ref!r}")
                raise UnknownTableError(f"unknown table {ref!r}")
            raise UnknownTableError(
                f"cannot resolve {type(ref).__name__} as a table ref"
            )

    def table(self, ref: TableLike) -> Table:
        """The live table for ``ref``, rehydrating an evicted shard."""
        shard = self._shard_for(ref)
        return self._materialize(shard)

    def _materialize(self, shard: _Shard) -> Table:
        with self._lock:
            if shard.table is not None:
                return shard.table
            if self._disk is None:
                raise CatalogError(
                    f"shard {shard.ref} was evicted and no cache_dir is configured"
                )
            table = self._disk.get_table(shard.ref.digest)
            if table is None:
                raise CatalogError(
                    f"shard {shard.ref} has no persisted table in the disk cache"
                )
            shard.table = table
            shard.hot = True
            self.rehydrations += 1
            return table

    # -- introspection ---------------------------------------------------------
    def refs(self) -> List[TableRef]:
        """Every live ref, in registration order.

        A shard superseded by :meth:`update` is excluded — new work must
        land on the current version — but stays digest-resolvable through
        :meth:`resolve`/:meth:`table` until its pinned in-flight queries
        drain.
        """
        with self._lock:
            return [
                shard.ref
                for shard in sorted(self._shards.values(), key=lambda s: s.order)
                if shard.superseded_by is None
            ]

    def is_hot(self, ref: TableLike) -> bool:
        return self._shard_for(ref).hot

    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)

    def __contains__(self, ref: TableLike) -> bool:
        try:
            self._shard_for(ref)
            return True
        except CatalogError:
            return False

    def stats(self) -> Dict[str, object]:
        """Counters for serving dashboards and the bench harness.

        Reads the corpus index, so it catches the index up first: the
        ``retrieval`` counters always describe every live shard.
        """
        with self._lock:
            index = self.corpus_index()
            live = [
                shard
                for shard in self._shards.values()
                if shard.superseded_by is None
            ]
            hot = sum(1 for shard in live if shard.hot)
            return {
                "shards": len(live),
                "hot": hot,
                "cold": len(live) - hot,
                "asks": sum(shard.asks for shard in self._shards.values()),
                "evictions": self.evictions,
                "rehydrations": self.rehydrations,
                "version": self.version,
                "updates": self.updates,
                "retired": self.retired,
                "superseded": len(self._shards) - len(live),
                "pins": sum(shard.pins for shard in self._shards.values()),
                "retrieval": index.stats(),
                "parser": self.interface.parser.cache_stats(),
            }

    # -- the corpus retrieval index ---------------------------------------------
    def corpus_index(self) -> "CorpusIndex":
        """The corpus retrieval index, caught up with every live shard.

        Publishes every pending posting in one batch first (see the
        class docstring).
        """
        with self._lock:
            if self._unindexed:
                from ..retrieval.corpus_index import extract_shard_postings

                tables = [
                    self._shards[digest].table for digest in self._unindexed
                ]
                self._index.add_postings(extract_shard_postings(tables))
                self._unindexed.clear()
            return self._index

    def _routable_refs(self) -> List[TableRef]:
        """Catch the index up and snapshot the live refs in one lock hold."""
        with self._lock:
            self.corpus_index()
            return self.refs()

    # -- question routing ------------------------------------------------------
    def ask(
        self, question: str, ref: TableLike, k: Optional[int] = None
    ) -> "InterfaceResponse":
        """Answer ``question`` against one registered table.

        Bit-identical to calling :meth:`NLInterface.ask` on the same
        table directly — the catalog adds routing, recency bookkeeping
        and (optional) hot-set enforcement, never different answers.
        """
        shard = self._shard_for(ref)
        table = self._materialize(shard)
        response = self.interface.ask(question, table, k=k)
        with self._lock:
            self._touch(shard)
            self._enforce_hot_limit(protect=shard.ref.digest)
        return response

    def ask_many(
        self,
        items: Sequence[Tuple[str, TableLike]],
        k: Optional[int] = None,
        pool=None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
    ) -> List["InterfaceResponse"]:
        """Answer a batch of ``(question, ref)`` pairs, index-aligned.

        Routing resolves every ref up front, then the batch rides
        :meth:`NLInterface.ask_many` on the long-lived
        :class:`~repro.perf.pool.WorkerPool` passed as ``pool`` (an
        engine's), or on the calling thread when none is.
        ``deadlines`` (index-aligned absolute monotonic instants) bounds
        each item — see :meth:`NLInterface.ask_many`.
        """
        shards = [self._shard_for(ref) for _, ref in items]
        pairs = [
            (question, self._materialize(shard))
            for (question, _), shard in zip(items, shards)
        ]
        responses = self.interface.ask_many(
            pairs, k=k, pool=pool, deadlines=deadlines
        )
        with self._lock:
            protect = {shard.ref.digest for shard in shards}
            for shard in shards:
                self._touch(shard)
            self._enforce_hot_limit(protect=protect)
        return responses

    def routing(
        self, question: str, max_candidates: Optional[int] = None
    ) -> "RoutingDecision":
        """The router's decision for ``question`` — without parsing anything.

        Scores every registered shard against the corpus index and
        reports which shards :meth:`ask_any` would parse (``candidates``)
        versus prune, and whether the broadcast fallback would fire.
        ``max_candidates`` keeps only the first N of the ranking (``None``
        keeps every hit).  Pure inspection: no shard is materialized, no
        caches change.  ``repro route`` is the CLI face of this method.
        """
        return self._router.route(
            question, self._routable_refs(), max_candidates=max_candidates
        )

    def routing_sets(
        self,
        question: str,
        max_candidates: Optional[int] = None,
        max_proposals: Optional[int] = None,
    ) -> "SetRoutingDecision":
        """The set router's decision for ``question`` — pure inspection.

        The single-shard half (``decision.single``) is byte-identical to
        :meth:`routing`; on top of it the router reports, from the same
        probe of the index, the question's coverable terms, whether one
        candidate covers them all, and the ranked 2–3-shard sets proposed
        when none does.  ``max_proposals`` widens (or narrows) the
        proposal list past the serving default — the join bench scores
        recall@5 and needs more than the default four.
        """
        return self._router.route_sets(
            question,
            self._routable_refs(),
            max_candidates=max_candidates,
            max_proposals=max_proposals,
        )

    def _compose_from_proposals(
        self,
        question: str,
        decision: "SetRoutingDecision",
        max_attempts: int = 4,
    ) -> Optional["ComposedAnswer"]:
        """Try the proposed shard sets as join pairs; first success wins.

        Proposals arrive ranked; each is tried pair-wise (a 3-shard set
        yields its three pairs) with :func:`~repro.compose.compose_answer`,
        which itself tries both orientations.  ``max_attempts`` bounds
        the total pairs tried so a pathological question cannot turn one
        request into a quadratic composition search.  Any failure just
        moves on — composition never raises out of ``ask_any``.
        """
        from ..compose import compose_answer

        attempts = 0
        for proposal in decision.proposals:
            for first, second in itertools.combinations(proposal.refs, 2):
                if attempts >= max_attempts:
                    return None
                attempts += 1
                try:
                    primary = self.table(first)
                    secondary = self.table(second)
                except CatalogError:
                    continue  # unrehydratable shard: skip this pair
                answer = compose_answer(
                    question,
                    primary,
                    secondary,
                    retrieval_score=proposal.score,
                )
                if answer is not None:
                    return answer
        return None

    def ask_any(
        self,
        question: str,
        k: Optional[int] = None,
        prune: Optional[bool] = None,
        pool=None,
        max_candidates: Optional[int] = None,
        compose: bool = True,
    ) -> CatalogAnswer:
        """Answer ``question`` corpus-wide: retrieve, parse survivors, rank.

        The retrieve-then-parse pipeline (default): the
        :class:`~repro.retrieval.router.ShardRouter` scores every shard
        from one probe of the corpus index and only the shards with
        retrieval hits are parsed — evicted shards that are pruned out
        stay on disk.
        When retrieval yields *no* candidate the router falls back to the
        full broadcast, so an answer is never lost to pruning.
        ``prune=False`` forces the broadcast (``None`` prunes, as a v2
        request that leaves the field out does): every registered table
        is asked and evicted shards rehydrate first.  ``max_candidates``
        additionally caps the parsed shards at the first N of the
        retrieval ranking; answers stay bit-identical to the broadcast
        whenever the broadcast's top shard survives the cap — the
        pruning property below, unchanged.

        Parsed shards are ranked by their top candidate's model score,
        ties broken by retrieval score then registration order — all
        deterministic, and unchanged by pruning: removing shards never
        reorders the survivors, so the pruned top answer equals the
        broadcast top answer whenever the broadcast's top shard is
        retrievable (property-tested in ``tests/test_retrieval.py``).
        Shards that produce no executable candidate rank last.

        When ``compose`` is on (the default) and the router proposes
        shard sets — no single candidate covers every anchored question
        term — a cross-table join answer is additionally attempted over
        the proposed pairs (:meth:`_compose_from_proposals`) and
        attached as ``CatalogAnswer.composed``.  Strictly additive: the
        single-shard ranking is computed exactly as before.
        """
        refs = self._routable_refs()
        set_decision = self._router.route_sets(
            question, refs, max_candidates=max_candidates
        )
        decision = set_decision.single
        apply_prune = prune is not False
        targets = list(decision.candidates) if apply_prune else list(refs)
        responses = self.ask_many(
            [(question, ref) for ref in targets], k=k, pool=pool
        )
        order = {ref.digest: position for position, ref in enumerate(refs)}
        retrieval = {scored.ref.digest: scored.score for scored in decision.scored}
        ranked = sorted(
            zip(targets, responses),
            key=lambda pair: (
                -(
                    pair[1].top.candidate.score
                    if pair[1].top is not None
                    else float("-inf")
                ),
                -retrieval.get(pair[0].digest, 0.0),
                order[pair[0].digest],
            ),
        )
        composed = (
            self._compose_from_proposals(question, set_decision)
            if compose and set_decision.proposed
            else None
        )
        return CatalogAnswer(
            question=question,
            ranked=list(ranked),
            routing=decision,
            pruned=apply_prune,
            set_routing=set_decision,
            composed=composed,
        )

    # -- eviction --------------------------------------------------------------
    def evict(self, ref: TableLike) -> TableRef:
        """Unload one shard's in-memory state, persisting it first.

        With a ``cache_dir``: the table is pickled to the disk store
        (its candidate lists are there already, written at generation
        time), then the table and every derived cache entry are dropped —
        the shard survives as a cold stub that rehydrates on its next
        question.  Without one: only derived caches are dropped (the
        table stays resident), since dropping the sole copy would lose
        data.

        The shard's corpus-index posting is published first (when it is
        still pending) and deliberately *kept*: routing a question must
        work without the table in memory — that is what lets
        :meth:`ask_any` leave pruned-out cold shards on disk instead of
        rehydrating them just to rank them last.
        """
        shard = self._shard_for(ref)
        with self._lock:
            table = shard.table
            if table is not None:
                if shard.ref.digest in self._unindexed:
                    self._index.add(table)
                    self._unindexed.discard(shard.ref.digest)
                if (
                    self._disk is not None
                    and shard.ref.digest not in self._persisted_tables
                ):
                    self._disk.put_table(shard.ref.digest, table)
                    self._persisted_tables.add(shard.ref.digest)
                self.interface.evict_table(table)
                if self._disk is not None:
                    shard.table = None
            shard.hot = False
            self.evictions += 1
            return shard.ref

    def evict_cold(self, keep: int = 0) -> List[TableRef]:
        """Evict all but the ``keep`` most recently used shards."""
        with self._lock:
            by_recency = sorted(
                (shard for shard in self._shards.values() if shard.hot),
                key=lambda shard: shard.last_used,
                reverse=True,
            )
            victims = by_recency[keep:]
        return [self.evict(shard.ref) for shard in victims]

    def _touch(self, shard: _Shard) -> None:
        shard.asks += 1
        shard.last_used = next(self._clock)
        shard.hot = True

    def _enforce_hot_limit(self, protect) -> None:
        """Auto-evict LRU hot shards beyond ``max_hot_shards``.

        ``protect`` (a digest or set of digests) names shards that must
        stay hot — the ones serving the current request.
        """
        if self.max_hot_shards is None:
            return
        protected = {protect} if isinstance(protect, str) else set(protect)
        while True:
            hot = [shard for shard in self._shards.values() if shard.hot]
            if len(hot) <= self.max_hot_shards:
                return
            victims = [s for s in hot if s.ref.digest not in protected]
            if not victims:
                return
            victim = min(victims, key=lambda shard: shard.last_used)
            self.evict(victim.ref)
