"""Warm worker pools: the one code path that runs a parse batch.

The paper's interactive deployment (Table 7) answers a stream of
questions; every batch of ``(question, table)`` pairs — served
requests, ``NLInterface.ask_many`` and the parse bench's pooled modes —
runs on a :class:`WorkerPool`.  A :class:`~repro.api.engine.ReproEngine`
owns the one serving pool (:func:`serving_pool` builds it) and reuses it
across every batch until :meth:`~WorkerPool.close`; a server serves on
its engine's pool, and an ``ask_many`` call given no pool parses on the
calling thread through a one-worker :func:`serving_pool`.

Two flavours behind one interface:

* :class:`ThreadWorkerPool` — one ``ThreadPoolExecutor`` driving the
  shared :class:`~repro.parser.candidates.SemanticParser`, built lazily
  on the first multi-item batch (a one-worker pool, or a one-item
  batch, parses inline).  Every cache stays shared, and a ranked memo
  answers repeat units.  A :func:`serving_pool` thread pool has one
  worker and parses on the calling thread; only the parse bench's
  ``batched`` mode builds the executor.
* :class:`ProcessWorkerPool` — worker *processes*, each holding a
  fingerprint-addressed table registry that survives between batches
  and parsing through its own one-worker :class:`ThreadWorkerPool`, so
  each worker memoizes what it served the same way.
  The driver ships only fingerprints a worker has never seen
  (incremental registry updates — never the whole corpus re-pickled per
  batch), re-syncs model weights only when they changed, and pins shards
  to workers with a stable digest hash so a shard's questions land on
  the worker whose lexicon/grammar/index and memo are already hot.

A unit with a ``k`` (every unit :meth:`NLInterface.ask_many` sends) is
parsed to its top ``k``, which is all the ranked memo keeps: the parser
stores no unranked candidate list for it, so a served question stays
resident once.  Such a parse keeps nothing only the ranker reads — no
candidate's feature vector, no lexical analysis — so the memo and every
process reply carry query, result, score and probability alone, each a
slotted object that pickles as its field tuple.  A unit without one is
a full parse, keeps both and fills the parser's candidate cache as well.

Correctness contract (locked in by ``tests/test_pool.py`` and
``tests/test_perf_batch.py``): ``parse_all`` results are index-aligned
with the input items and **bit-identical** to a sequential loop over the
same parser configuration — pool size, pinning, persistence and fault
recovery change scheduling and locality, never answers.  This holds
because candidate generation is deterministic and every shared cache is
content-addressed and thread-safe; workers only ever *add* identical
entries.

Shard pinning and the spill valve
---------------------------------
``pin(digest) = int(digest[:8], 16) % workers`` is stable across
batches, processes and runs: shard S always lands on worker
``pin(S)``, so repeat traffic for S finds warm worker-local caches.
A pure pin would serialise a batch over few shards (one hot worker,
the rest idle), so assignment *spills* deterministically: while a
worker is idle and another holds more than one unit, the busiest
worker hands the idle one a whole shard group when that balances the
two as well as halving its largest group would, and that half
otherwise (shipping the table there, once ever).  A whole group keeps
the shard's cold lexicon/grammar/index build on one worker; a split
pays it on both.  The spill pattern is a pure function of the batch
composition, so repeated workloads spill to the same workers and stay
warm there too.  ``ProcessWorkerPool(spill=False)`` disables the valve
for strict-pinning tests.

Fault tolerance (supervision, deadlines, the degradation ladder)
----------------------------------------------------------------
A forked worker can die (OOM-kill, segfault, an injected
``worker.crash_before_batch`` fault) or hang.  The process flavour
supervises its workers instead of trusting them:

* workers stream **per-unit replies** (``("unit", …)`` /
  ``("unit_error", …)`` then ``("done",)``), so a death or hang
  mid-batch loses only the unanswered units, never the whole group;
  the driver loads each reply with the cyclic collector paused
  (:class:`_CollectorPause`);
* the driver collects with :func:`multiprocessing.connection.wait`
  under a timeout derived from unit deadlines, the optional
  ``call_timeout`` watchdog and a liveness probe interval — pipe EOF,
  a failed ``is_alive()`` probe or an expired watchdog all mark the
  worker dead;
* a dead worker is **respawned** and the tables it held are re-shipped
  (``("ship", blob)``), its unanswered units are **retried** on a
  rotated assignment (``(pin + round) % workers`` — a survivor when
  there is more than one worker), and a unit that outlives every retry
  round is parsed **inline** in the driver;
* after :attr:`~ProcessWorkerPool.max_respawn_failures` *consecutive*
  respawn failures the pool **downgrades** to a
  :func:`serving_pool` thread fallback — logged, visible in
  :meth:`~WorkerPool.stats` (``downgraded``/``downgrades``) and
  bit-identical, because parsing is deterministic for a fixed
  parser configuration regardless of backend.

Deadlines ride on :attr:`BatchItem.deadline`
(an absolute ``time.monotonic()`` instant, set by the serving layer
from the request's ``deadline_ms``).  An expired unit resolves to a
:class:`DeadlineExceeded` *value* in the result slot — an answer
already on the wire beats the timeout; the rest of the batch completes
normally.  Worker *faults* are injected driver-side: the driver asks
:mod:`repro.faults` at dispatch time and stamps the fault onto the work
message, so hit counts stay global across respawns and a respawned
fork never re-inherits a one-shot crash.

Where the process flavour's modules load
----------------------------------------
``multiprocessing`` (with ``multiprocessing.connection``) and ``pickle``
are imported in :meth:`ProcessWorkerPool.__init__`, not at module level,
so a process that serves on threads never loads them. They load there,
in the driver and before the first fork, because a forked child must
never import a module for the first time: the child inherits each
module's import lock as it stood at fork time, and a lock another driver
thread held then (mid-import of that module) is never released in the
child, so the child's import would deadlock. The worker loop only looks
up modules its driver already loaded. A process pool's constructor pays
the import; ``run_parse_bench`` builds its pools before its timer
starts.
"""

from __future__ import annotations

import dataclasses
import gc
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .. import faults
from ..parser.candidates import ParseOutput, ParserConfig, SemanticParser
from ..parser.model import LogLinearModel
from ..tables.fingerprint import LRUCache
from ..tables.table import Table

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BatchItem:
    """One unit of batch work: a question over a table (optional top-``k``).

    ``deadline`` is an absolute ``time.monotonic()`` instant (not a
    duration): the serving layer computes it once at enqueue from the
    request's ``deadline_ms`` so queue wait, dispatch and worker time
    all draw from the same budget.  ``None`` means wait forever.  A unit
    past its deadline resolves to :class:`DeadlineExceeded` in its
    result slot.
    """

    question: str
    table: Table
    k: Optional[int] = None
    deadline: Optional[float] = None


#: One unit of cross-process work: (fingerprint digest, question, top-k).
WorkUnit = Tuple[str, str, Optional[int]]


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def parse_threads(workers: int) -> int:
    """How many of ``workers`` threads may parse at once.

    Parsing is pure Python and holds the GIL, so threads beyond the
    cores this process may use overlap no parsing: they only add switch
    churn, and each keeps its own allocator heap.  Caps a thread pool's
    executor and the jobs executor on which a thread-backend server
    parses corpus-wide requests.
    """
    return min(workers, _available_cpus()) or 1


def _refresh_inherited_locks(parser: SemanticParser) -> None:
    """Replace every lock a forked worker inherited from the driver.

    ``fork`` copies locks in whatever state another driver thread held
    them at fork time; a lock copied *held* stays held forever in the
    child (its owner does not exist here) and the first cache access
    would deadlock.  The child is single-threaded at this point, so
    swapping in fresh locks is safe.  Reaches into sibling-module
    internals deliberately — this is fork-inheritance plumbing, not API.
    """
    from ..tables import index as index_module

    generator = parser.generator
    for cache in (generator._per_table, generator._candidate_cache):
        cache._lock = threading.RLock()
    generator._execution_lock = threading.Lock()
    index_module._INDEX_REGISTRY._lock = threading.RLock()
    if generator._disk_cache is not None:
        generator._disk_cache._lock = threading.Lock()


class PoolError(RuntimeError):
    """Base of per-unit pool failures.

    Pool failures are *values*, not raised exceptions: ``parse_all``
    stays index-aligned by putting a ``PoolError`` instance in the
    result slot of the unit that failed while the rest of the batch
    completes.  :func:`repro.api.errors.classify_exception` maps these
    onto the wire taxonomy (``TIMEOUT`` / ``INTERNAL``).
    """


class DeadlineExceeded(PoolError):
    """The unit's deadline expired before a worker produced an answer."""


class WorkerFailed(PoolError):
    """A worker died (or errored) and every retry rung was exhausted."""


#: What ``WorkerPool.parse_all`` returns per item: the parse (or the
#: coded :class:`PoolError` that replaced it) plus the worker-measured
#: wall-clock seconds it took.
PoolResult = Tuple[Union[ParseOutput, PoolError], float]


def serving_pool(
    backend: str,
    parser: SemanticParser,
    workers: int = 1,
    call_timeout: Optional[float] = None,
) -> "WorkerPool":
    """The pool an engine serves on (and a downgraded process pool's fallback).

    On the process backend it has ``workers`` processes; any other
    backend than ``"thread"`` or ``"process"`` is a ``ValueError``.  On
    the thread backend it has one worker whatever ``workers`` says, so
    ``parse_all`` parses every unit on the thread that calls it (a
    server's dispatcher, a ``query`` caller, a server's jobs thread for
    a corpus-wide request, an ``ask_many`` given no pool) and no pool
    thread starts: parsing holds the GIL, so more threads would overlap
    no parsing, and each would keep its own allocator heap.  The price
    is that a batch's units parse one after another, and each checks its
    deadline only when its turn comes: a unit whose deadline passes
    while an earlier unit parses is not parsed and comes back as
    :class:`DeadlineExceeded`.  Only the parse bench's ``batched`` mode
    builds a thread executor.
    """
    if backend == "thread":
        return ThreadWorkerPool(parser, max_workers=1)
    if backend == "process":
        return ProcessWorkerPool(
            parser, max_workers=workers, call_timeout=call_timeout
        )
    raise ValueError(f"unknown pool backend {backend!r}")


class WorkerPool:
    """The persistent-pool interface both flavours implement.

    A pool is created once, survives any number of :meth:`parse_all`
    batches, and is torn down with :meth:`close` (idempotent, safe to
    call concurrently; also a context manager).  ``parse_all`` takes
    :class:`BatchItem` instances and returns index-aligned
    ``(parse, seconds)`` pairs.
    """

    backend: str = "?"

    def __init__(self, parser: SemanticParser, max_workers: int = 4) -> None:
        if max_workers < 1:
            raise ValueError(f"{type(self).__name__} needs max_workers >= 1")
        self.parser = parser
        self.max_workers = max_workers
        self.batches = 0
        self.units = 0
        #: Units that resolved to :class:`DeadlineExceeded`.
        self.timeouts = 0
        #: Superseded table digests retired from this pool's registries.
        self.retired = 0
        # Warm explanation memo, shared by both flavours and used by
        # :meth:`NLInterface.ask_many` on the batch path: explanations
        # (sampled highlight rows included) are a pure function of
        # (table content, query), so entries are keyed ``(fingerprint,
        # query sexpr)`` and survive shard eviction — a warm batch
        # re-derives no identical output, only retirement drops them.
        # An entry holds the query, its utterance and the served
        # candidate's execution result (the ranked memo's object); its
        # highlight and sample are built on first read and then kept.
        self.explanations = LRUCache(
            maxsize=parser.config.candidate_cache_size * 8
        )

    @property
    def workers(self) -> int:
        return self.max_workers

    def parse_all(self, items: Sequence[BatchItem]) -> List[PoolResult]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def retire(self, digests: Sequence[str]) -> None:
        """Forget superseded table versions (the catalog retirement hook).

        Drops every registry/cache entry keyed by the given content
        digests so live-corpus churn cannot accumulate dead snapshots in
        long-lived pools.  Entries of other digests are untouched; a
        digest never shipped is a no-op.
        """
        targets = set(digests)
        for digest in targets:
            self.explanations.discard(digest)
        self.retired += len(targets)

    def stats(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "batches": self.batches,
            "units": self.units,
            "timeouts": self.timeouts,
            "retired": self.retired,
        }

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _deadline_expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() >= deadline


class ThreadWorkerPool(WorkerPool):
    """A persistent thread pool over one shared parser.

    The executor is built lazily on the first multi-item batch and then
    reused for every later batch; a one-worker pool (or a one-item
    batch) parses inline with no executor at all, which is the
    reference behaviour the concurrency tests compare against.  All
    parser caches are shared (the thread backend's defining property),
    so answers are trivially bit-identical to the sequential loop.

    Repeat traffic is answered by the pool's **ranked memo**: the
    ``ParseOutput`` each unit produced — the top ``k`` its caller serves
    (:meth:`NLInterface.ask_many` passes its ``k``), without feature
    vectors or lexical analysis, or the whole list for a unit without
    one — keyed ``(fingerprint, question, k)`` and
    valid for one weights snapshot.  It lives outside the parser, so it
    survives the catalog's shard eviction (which drops the parser's
    per-table caches) and leaves only when the table's version is
    retired.  For a top-``k`` unit it is the only copy: the parser
    stores no unranked list, so the same question under another ``k``
    or new weights is generated again (unless a full parse cached its
    list).  Each process worker parses through a one-worker pool of
    this class to get the same memo.
    """

    backend = "thread"

    def __init__(self, parser: SemanticParser, max_workers: int = 4) -> None:
        super().__init__(parser, max_workers=max_workers)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._close_lock = threading.Lock()
        # Ranked parses as served (cut to the unit's k), valid only for
        # the weights snapshot below.  Keyed (fingerprint, question, k);
        # flushed whenever the model weights change, so online training
        # invalidates cleanly.
        self._ranked = LRUCache(maxsize=parser.config.candidate_cache_size)
        self._ranked_weights: Optional[Dict[str, float]] = None

    @property
    def workers(self) -> int:
        # Only the parse bench's batched mode asks for more than one
        # thread (a serving pool has one); cap them at the cores.
        return parse_threads(self.max_workers)

    def _parse_one(self, item: BatchItem) -> PoolResult:
        if _deadline_expired(item.deadline):
            self.timeouts += 1
            return (
                DeadlineExceeded(
                    f"deadline expired before parsing {item.question!r}"
                ),
                0.0,
            )
        warm = self.parser.config.cache_candidates
        ranked_key = (item.table.fingerprint, item.question, item.k)
        started = time.perf_counter()
        if warm:
            ranked = self._ranked.get(ranked_key)
            if ranked is not None:
                # Ranking is deterministic for fixed weights (checked per
                # batch in parse_all), so the memoized parse is value-
                # identical to re-ranking — only the wall-clock differs.
                return (
                    dataclasses.replace(ranked, table=item.table),
                    time.perf_counter() - started,
                )
        parse = self.parser.parse(item.question, item.table, k=item.k)
        elapsed = time.perf_counter() - started
        if warm:
            self._ranked.put(ranked_key, parse)
        return parse, elapsed

    def parse_all(self, items: Sequence[BatchItem]) -> List[PoolResult]:
        if self._closed:
            raise RuntimeError("pool is closed")
        self.batches += 1
        self.units += len(items)
        weights = self.parser.model.weights
        if self._ranked_weights != weights:
            # Same contract as the process workers' weight resync: new
            # weights flush every memoized ranking before any parse runs.
            self._ranked.clear()
            self._ranked_weights = dict(weights)
        if self.workers == 1 or len(items) <= 1:
            return [self._parse_one(item) for item in items]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-pool"
            )
        return list(self._executor.map(self._parse_one, items))

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._ranked.clear()
        self.explanations.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def retire(self, digests: Sequence[str]) -> None:
        targets = set(digests)
        for digest in targets:
            self._ranked.discard(digest)
        super().retire(targets)

    def stats(self) -> Dict[str, object]:
        payload = super().stats()
        payload["ranked"] = len(self._ranked)
        return payload


# ---------------------------------------------------------------------------
# the process flavour
# ---------------------------------------------------------------------------


def _pool_worker_main(
    conn,
    parser: Optional[SemanticParser],
    weights: Dict[str, float],
    config: ParserConfig,
) -> None:
    """The long-lived worker loop (runs in a child process).

    State that persists across batches: the fingerprint-addressed table
    registry, the worker's parser with all its per-table caches, and a
    one-worker :class:`ThreadWorkerPool` over that parser whose ranked
    memo keeps each reply — the top ``k`` the caller serves, with no
    feature vectors or analysis — exactly as the thread flavour does: a
    repeat unit is answered from it, a weight change flushes it and a
    ``retire`` drops the digest from it.
    Under the ``fork`` start method ``parser`` is the driver's own
    parser, inherited copy-on-write with its warm per-table caches (a
    ``Process`` argument is never pickled by ``fork``); under ``spawn``
    it is ``None`` and the worker builds a parser from the shipped
    weights and config.  The GC is frozen and disabled first: the loop
    allocates no reference cycles, and a child GC pass would touch (and
    so copy-on-write) the whole inherited parent heap for nothing.

    Protocol (driver → worker): ``("parse", blob, weights, units,
    fault)``, ``("ship", blob)`` (registry re-ship after a respawn),
    ``("stop",)``.  Replies stream **per unit** — ``("unit", unit,
    parse, seconds)`` or ``("unit_error", unit, message)`` — followed by
    a terminal ``("done",)``, so the driver loses only unanswered units
    when a worker dies mid-batch.  ``fault`` is a driver-stamped
    injected fault (``None``, ``("crash",)`` or ``("hang", seconds)``)
    executed before the units — see :mod:`repro.faults`.
    """
    import pickle  # loaded by the driver's ProcessWorkerPool before the fork

    gc.freeze()
    gc.disable()
    if parser is not None:
        _refresh_inherited_locks(parser)
    else:  # spawn start method: rebuild from the shipped weights/config
        model = LogLinearModel()
        model.weights = dict(weights)
        parser = SemanticParser(model=model, config=config)
    memo = ThreadWorkerPool(parser, max_workers=1)
    tables: Dict[str, Table] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "ship":
            try:
                for table in pickle.loads(message[1]):
                    tables[table.fingerprint.digest] = table
            except Exception:  # pragma: no cover - corrupt re-ship
                pass
            continue
        if kind == "retire":
            # A superseded table version will never be asked again: drop
            # it from the registry *and* from the worker parser's
            # per-table caches (its column index included) and ranked
            # memo, or every live-corpus edit leaks one table per worker.
            memo.retire(message[1])
            for digest in message[1]:
                table = tables.pop(digest, None)
                if table is not None:
                    try:
                        parser.evict_table(table)
                    except Exception:  # pragma: no cover - best effort
                        pass
            continue
        if kind != "parse":  # pragma: no cover - protocol guard
            conn.send(("done",))
            continue
        _, tables_blob, new_weights, units, fault = message
        if fault is not None:
            if fault[0] == "crash":
                # Injected worker death: exit hard, no goodbye — the
                # driver must recover from the bare pipe EOF.
                os._exit(13)
            elif fault[0] == "hang":
                time.sleep(float(fault[1]))
        try:
            if tables_blob is not None:
                for table in pickle.loads(tables_blob):
                    tables[table.fingerprint.digest] = table
            if new_weights is not None:
                parser.model.weights = dict(new_weights)
        except Exception as error:  # the whole dispatch is unusable
            for unit in units:
                conn.send(("unit_error", unit, f"{type(error).__name__}: {error}"))
            conn.send(("done",))
            continue
        for unit in units:
            try:
                digest, question, k = unit
                [(parse, elapsed)] = memo.parse_all(
                    [BatchItem(question, tables[digest], k=k)]
                )
                # The driver re-attaches its own table object; candidates
                # only reference cells, never the table itself.  A copy,
                # because the memo may hold this very parse.
                reply = dataclasses.replace(parse, table=None)
                conn.send(("unit", unit, reply, elapsed))
            except Exception as error:  # surface, don't kill the worker
                conn.send(("unit_error", unit, f"{type(error).__name__}: {error}"))
        conn.send(("done",))


class _CollectorPause:
    """Pauses the cyclic collector while any driver thread loads a reply.

    A reply unpickles thousands of container objects (query trees,
    results, cells), and with the collector on, allocating them triggers
    collections that walk the driver's whole heap: about half a
    full-parse reply's load time.  None of what a load allocates is
    garbage.  The collector is process-wide, so the pause is too: the
    first thread in disables it, the last one out re-enables it if the
    first found it enabled.  One pool's batches run under its lock, but
    the drivers of two pools in one process load at once, and neither
    leaves the collector disabled; a load that raises restores it like
    one that returns.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._loading = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if self._loading == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._loading += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._loading -= 1
            if self._loading == 0 and self._resume:
                gc.enable()


_collector_paused = _CollectorPause()


def _pickle_tables(tables: List[Table]) -> bytes:
    """One ``("ship", …)``/``("parse", …)`` table blob for a worker."""
    import pickle

    return pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL)


@dataclass
class _Worker:
    """Driver-side handle of one persistent worker process."""

    process: object  # multiprocessing.Process
    conn: object  # multiprocessing.connection.Connection
    shipped: set = field(default_factory=set)
    weights: Dict[str, float] = field(default_factory=dict)


@dataclass
class _Inflight:
    """One dispatched worker message awaiting its ``("done",)``."""

    index: int
    #: Outstanding units → absolute monotonic deadline (or ``None``).
    units: Dict[WorkUnit, Optional[float]]
    dispatched_at: float


class ProcessWorkerPool(WorkerPool):
    """Persistent worker processes with shard affinity and supervision.

    Workers fork lazily on the first batch (inheriting the driver's warm
    caches copy-on-write under the ``fork`` start method) and live until
    :meth:`close`.  Across batches each worker keeps its table registry
    and parser caches, the driver tracks what every worker already
    holds, and work routes by the stable pin hash — see the module
    docstring for the full contract, including the
    supervision / retry / downgrade ladder.

    ``parse_all`` is thread-safe: concurrent batches (e.g. a broadcast
    and a routed group interleaved by the serving dispatcher) serialise
    on a driver-side lock; each still fans out across all workers.
    """

    backend = "process"

    #: How long a worker may sit on one dispatched message before the
    #: supervisor declares it hung (``None`` disables the watchdog; unit
    #: deadlines still apply).
    call_timeout: Optional[float]
    #: Liveness probe cadence: the supervisor wakes at least this often
    #: to run ``is_alive()`` even when no deadline is near.
    probe_interval: float = 0.5
    #: Retry rounds for units orphaned by a dead/hung worker before the
    #: driver parses them inline.
    max_unit_retries: int = 2
    #: Consecutive respawn failures that trigger the thread downgrade.
    max_respawn_failures: int = 3

    def __init__(
        self,
        parser: SemanticParser,
        max_workers: int = 4,
        spill: bool = True,
        call_timeout: Optional[float] = None,
    ) -> None:
        # The process flavour's stdlib modules load here, in the driver
        # and before the first fork, so no child ever imports a module
        # for the first time (see the module docstring).
        import multiprocessing.connection
        import pickle

        super().__init__(parser, max_workers=max_workers)
        self.spill = spill
        self.call_timeout = call_timeout
        self.tables_shipped = 0
        self.last_shipped: List[str] = []
        #: Workers respawned after a death (supervision at work).
        self.respawns = 0
        #: Respawn attempts that themselves failed.
        self.respawn_failures = 0
        #: Units re-dispatched after their worker died or hung.
        self.retries = 0
        #: Units parsed inline in the driver (last rung of the ladder).
        self.inline_parses = 0
        #: Times the pool downgraded to the thread backend (0 or 1).
        self.downgrades = 0
        self._consecutive_respawn_failures = 0
        self._fallback: Optional[ThreadWorkerPool] = None
        self._workers: List[_Worker] = []
        #: Every table ever seen, so a respawned worker's registry can be
        #: re-shipped without waiting for the next natural batch.
        self._tables: Dict[str, Table] = {}
        self._lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False

    @property
    def workers(self) -> int:
        # A CPU-bound pool gains nothing from oversubscription, and each
        # extra fork pays its own copy-on-write faults: never more
        # processes than cores.
        return min(self.max_workers, _available_cpus()) or 1

    def pin(self, digest: str) -> int:
        """The stable shard→worker hash (pure; same answer every run)."""
        return int(digest[:8], 16) % self.workers

    def pids(self) -> List[int]:
        """PIDs of the live workers (empty before the first batch)."""
        return [worker.process.pid for worker in self._workers]

    @property
    def downgraded(self) -> bool:
        """Whether the pool has fallen back to the thread backend."""
        return self._fallback is not None

    # -- lifecycle -------------------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        """Start one worker; under ``fork`` it inherits the driver's parser.

        The parser rides as a ``Process`` argument, which ``fork`` hands
        to the child as-is (no pickling) and which belongs to this one
        process object — concurrent spawns from other pools or threads
        cannot see or swap it.
        """
        import multiprocessing

        weights = self.parser.model.weights
        fork_start = multiprocessing.get_start_method() == "fork"
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_pool_worker_main,
            args=(
                child_conn,
                self.parser if fork_start else None,
                weights,
                self.parser.config,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn, weights=dict(weights))

    def _ensure_workers(self) -> None:
        if self._workers or self._fallback is not None:
            return
        for _ in range(self.workers):
            self._workers.append(self._spawn_worker())

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Take one worker down for good: stop → join → terminate → kill.

        Escalates so no call path can leave a zombie: a worker that
        ignores ``terminate()`` (blocked in uninterruptible state) gets
        ``kill()`` as the last resort.
        """
        try:
            worker.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        worker.process.join(timeout=5)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.kill()
            worker.process.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _kill_worker(self, worker: _Worker) -> None:
        """Immediate teardown for a hung/dead worker (no polite stop)."""
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.kill()
            worker.process.join(timeout=2)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        with self._lock:
            self.explanations.clear()
            if self._fallback is not None:
                self._fallback.close()
            for worker in self._workers:
                self._reap(worker)
            self._workers = []
            self._tables.clear()

    def retire(self, digests: Sequence[str]) -> None:
        targets = set(digests)
        if not targets:
            return
        with self._lock:
            if self._closed:
                return
            for digest in targets:
                self._tables.pop(digest, None)
            for worker in self._workers:
                held = sorted(targets & worker.shipped)
                if not held:
                    continue
                # Forget driver-side first: even if the send fails, the
                # respawn path re-ships from ``shipped & _tables``, and
                # neither holds these digests any more.
                worker.shipped.difference_update(held)
                try:
                    worker.conn.send(("retire", held))
                except (BrokenPipeError, OSError):
                    pass  # dead worker; supervision will reap it
            if self._fallback is not None:
                self._fallback.retire(targets)
        super().retire(targets)

    # -- supervision -----------------------------------------------------------
    def _stamp_fault(self) -> Optional[tuple]:
        """Evaluate worker failpoints driver-side for one dispatch.

        Stamping the fault onto the message (instead of letting the
        worker consult :mod:`repro.faults` itself) keeps hit counts
        global across the pool and means a respawned fork — which
        inherits the armed module state — does not re-fire a one-shot
        crash forever.
        """
        if faults.should_fire("worker.crash_before_batch"):
            return ("crash",)
        if faults.should_fire("worker.hang"):
            return (
                "hang",
                faults.param("worker.hang", faults.DEFAULT_HANG_SECONDS),
            )
        return None

    def _respawn(self, index: int) -> bool:
        """Replace the dead worker at ``index``; ``False`` means downgraded.

        Retries until a spawn succeeds or
        :attr:`max_respawn_failures` *consecutive* failures accumulate —
        at which point the pool downgrades to the thread backend and
        every process worker is gone.  The replacement worker gets the
        registries the dead one held re-shipped immediately, so pinned
        traffic stays warm.
        """
        dead = self._workers[index]
        held = set(dead.shipped)
        self._kill_worker(dead)
        while True:
            try:
                if faults.should_fire("pool.respawn_fail"):
                    raise RuntimeError(
                        "injected respawn failure (pool.respawn_fail)"
                    )
                worker = self._spawn_worker()
            except Exception as error:
                self.respawn_failures += 1
                self._consecutive_respawn_failures += 1
                _log.warning(
                    "pool worker respawn failed (%d consecutive): %s",
                    self._consecutive_respawn_failures,
                    error,
                )
                if (
                    self._consecutive_respawn_failures
                    >= self.max_respawn_failures
                ):
                    self._downgrade(
                        f"{self._consecutive_respawn_failures} consecutive "
                        f"respawn failures (last: {error})"
                    )
                    return False
                continue
            self._consecutive_respawn_failures = 0
            self.respawns += 1
            reship = [
                self._tables[digest]
                for digest in sorted(held)
                if digest in self._tables
            ]
            if reship:
                worker.conn.send(("ship", _pickle_tables(reship)))
                worker.shipped.update(table.fingerprint.digest for table in reship)
            self._workers[index] = worker
            return True

    def _downgrade(self, reason: str) -> None:
        """Fall back to the thread backend (the ladder's second rung).

        Bit-identical by construction: parsing is a pure function of
        (parser config, weights, table, question), so the thread
        fallback returns exactly what the process workers would have.
        """
        _log.warning(
            "process pool downgrading to thread backend: %s", reason
        )
        self.downgrades += 1
        for worker in self._workers:
            self._kill_worker(worker)
        self._workers = []
        self._fallback = serving_pool("thread", self.parser)

    # -- scheduling ------------------------------------------------------------
    def _assign(
        self, groups: Dict[str, List[WorkUnit]], offset: int = 0
    ) -> Dict[int, Dict[str, List[WorkUnit]]]:
        """Pin each shard's units, then spill to idle workers.

        Deterministic: pinning is a pure hash, donors are picked by
        (load, lowest index), targets lowest-index-first, a whole group
        is picked by (the heavier side after the move, digest), and a
        split moves the tail half of the donor's largest group.  ``offset``
        rotates the pin for retry rounds, so a unit orphaned by a dead
        worker lands on a survivor when the pool has more than one.
        """
        assignment: Dict[int, Dict[str, List[WorkUnit]]] = {}
        for digest, units in groups.items():
            index = (self.pin(digest) + offset) % self.workers
            assignment.setdefault(index, {}).setdefault(digest, []).extend(units)
        if not self.spill:
            return assignment

        def load(index: int) -> int:
            return sum(len(units) for units in assignment.get(index, {}).values())

        idle = [index for index in range(self.workers) if load(index) == 0]
        while idle:
            donors = [index for index in range(self.workers) if load(index) > 1]
            if not donors:
                break
            donor = max(donors, key=lambda index: (load(index), -index))
            donor_groups, donor_load = assignment[donor], load(donor)
            digest, units = max(
                donor_groups.items(), key=lambda pair: (len(pair[1]), pair[0])
            )
            half = len(units) // 2
            # |load - 2 * moved| orders the moves by their heavier side.
            whole = min(
                donor_groups,
                key=lambda key: (abs(donor_load - 2 * len(donor_groups[key])), key),
            )
            target = idle.pop(0)
            if abs(donor_load - 2 * len(donor_groups[whole])) <= donor_load - 2 * half:
                digest = whole
                moved = donor_groups.pop(whole)
            else:
                moved = units[len(units) - half:]
                del units[len(units) - half:]
            assignment.setdefault(target, {}).setdefault(digest, []).extend(moved)
        return assignment

    # -- dispatch + collect ----------------------------------------------------
    def _dispatch(
        self,
        assignment: Dict[int, Dict[str, List[WorkUnit]]],
        deadlines: Dict[WorkUnit, Optional[float]],
    ) -> Dict[int, _Inflight]:
        """Ship registries + units to every assigned worker."""
        weights = self.parser.model.weights
        inflight: Dict[int, _Inflight] = {}
        for index, worker_groups in sorted(assignment.items()):
            worker = self._workers[index]
            units = [
                unit for _, units in sorted(worker_groups.items())
                for unit in units
            ]
            if not units:
                continue
            # Incremental registry update: only fingerprints this
            # worker has never held cross the pipe.
            new_digests = [
                digest
                for digest in sorted(worker_groups)
                if digest not in worker.shipped
            ]
            blob = (
                _pickle_tables([self._tables[digest] for digest in new_digests])
                if new_digests
                else None
            )
            new_weights = None if worker.weights == weights else dict(weights)
            fault = self._stamp_fault()
            try:
                worker.conn.send(("parse", blob, new_weights, units, fault))
            except (BrokenPipeError, OSError):
                # The worker died between batches: record the dispatch as
                # in flight with nothing sent — the collect loop's EOF
                # path respawns it and retries the units.
                inflight[index] = _Inflight(
                    index=index,
                    units={unit: deadlines[unit] for unit in units},
                    dispatched_at=time.monotonic(),
                )
                continue
            worker.shipped.update(new_digests)
            self.last_shipped.extend(new_digests)
            self.tables_shipped += len(new_digests)
            if new_weights is not None:
                worker.weights = new_weights
            inflight[index] = _Inflight(
                index=index,
                units={unit: deadlines[unit] for unit in units},
                dispatched_at=time.monotonic(),
            )
        return inflight

    def _collect(
        self,
        inflight: Dict[int, _Inflight],
        parsed: Dict[WorkUnit, Tuple[object, float]],
    ) -> Set[WorkUnit]:
        """Supervised collection: stream replies, detect death and expiry.

        Returns the units that need another round (their worker died or
        hung before answering).  Expired units resolve to
        :class:`DeadlineExceeded` directly in ``parsed``.
        """
        import pickle
        from multiprocessing.connection import wait

        retry: Set[WorkUnit] = set()

        def worker_down(index: int) -> None:
            """EOF / dead probe / watchdog: salvage units, respawn."""
            flight = inflight.pop(index)
            now = time.monotonic()
            for unit, deadline in flight.units.items():
                if deadline is not None and now >= deadline:
                    parsed[unit] = (
                        DeadlineExceeded(
                            f"deadline expired waiting for {unit[1]!r}"
                        ),
                        0.0,
                    )
                    self.timeouts += 1
                else:
                    retry.add(unit)
            if not self._respawn(index):
                # Downgraded: every process worker is gone.  Salvage all
                # remaining in-flight units for the fallback.
                for other in list(inflight.values()):
                    for unit, deadline in other.units.items():
                        if deadline is not None and now >= deadline:
                            parsed[unit] = (
                                DeadlineExceeded(
                                    f"deadline expired waiting for {unit[1]!r}"
                                ),
                                0.0,
                            )
                            self.timeouts += 1
                        else:
                            retry.add(unit)
                inflight.clear()

        while inflight:
            now = time.monotonic()
            wake = now + self.probe_interval
            for flight in inflight.values():
                for deadline in flight.units.values():
                    if deadline is not None:
                        wake = min(wake, deadline)
                if self.call_timeout is not None:
                    wake = min(wake, flight.dispatched_at + self.call_timeout)
            conns = {self._workers[index].conn: index for index in inflight}
            ready = wait(list(conns), timeout=max(0.0, wake - now))
            for conn in ready:
                index = conns[conn]
                if index not in inflight:  # cleared by a downgrade
                    continue
                flight = inflight[index]
                try:
                    while True:
                        blob = conn.recv_bytes()
                        with _collector_paused:
                            reply = pickle.loads(blob)
                        kind = reply[0]
                        if kind == "unit":
                            _, unit, parse, seconds = reply
                            flight.units.pop(unit, None)
                            parsed[unit] = (parse, seconds)
                        elif kind == "unit_error":
                            _, unit, message = reply
                            flight.units.pop(unit, None)
                            parsed[unit] = (
                                WorkerFailed(f"pool worker failed: {message}"),
                                0.0,
                            )
                        elif kind == "done":
                            # Anything unanswered at "done" is a protocol
                            # anomaly — retry it rather than hanging.
                            retry.update(flight.units)
                            del inflight[index]
                            break
                        if not conn.poll():
                            break
                except (EOFError, OSError):
                    worker_down(index)
            # Deadline + watchdog + liveness sweep over the still-pending.
            now = time.monotonic()
            for index in list(inflight):
                flight = inflight[index]
                worker = self._workers[index]
                expired = [
                    unit
                    for unit, deadline in flight.units.items()
                    if deadline is not None and now >= deadline
                ]
                hung = (
                    self.call_timeout is not None
                    and now >= flight.dispatched_at + self.call_timeout
                )
                if expired or hung:
                    # The worker is wedged on (at least) an expired unit:
                    # kill it, time the expired units out, retry the rest
                    # on its replacement.
                    worker_down(index)
                elif not worker.process.is_alive():
                    worker_down(index)
        return retry

    def _parse_inline(
        self, unit: WorkUnit, deadline: Optional[float]
    ) -> Tuple[object, float]:
        """Last rung of the ladder: parse in the driver process."""
        if _deadline_expired(deadline):
            self.timeouts += 1
            return (
                DeadlineExceeded(f"deadline expired before parsing {unit[1]!r}"),
                0.0,
            )
        digest, question, k = unit
        table = self._tables.get(digest)
        if table is None:  # pragma: no cover - tables recorded at batch entry
            return WorkerFailed(f"no table for digest {digest}"), 0.0
        self.inline_parses += 1
        started = time.perf_counter()
        parse = self.parser.parse(question, table, k=k)
        return parse, time.perf_counter() - started

    # -- the batch entry point -------------------------------------------------
    def parse_all(self, items: Sequence[BatchItem]) -> List[PoolResult]:
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if self._fallback is not None:
                return self._fallback.parse_all(items)
            self._ensure_workers()
            self.batches += 1
            self.units += len(items)

            ordered_units: List[WorkUnit] = []
            deadlines: Dict[WorkUnit, Optional[float]] = {}
            for item in items:
                digest = item.table.fingerprint.digest
                self._tables.setdefault(digest, item.table)
                unit: WorkUnit = (digest, item.question, item.k)
                deadline = item.deadline
                if unit not in deadlines:
                    ordered_units.append(unit)
                    deadlines[unit] = deadline
                elif deadlines[unit] is not None:
                    # A unit shared by several items waits for the most
                    # patient of them (no deadline at all wins outright).
                    deadlines[unit] = (
                        None
                        if deadline is None
                        else max(deadlines[unit], deadline)
                    )

            self.last_shipped = []
            parsed: Dict[WorkUnit, Tuple[object, float]] = {}
            pending: Set[WorkUnit] = set(ordered_units)
            rounds = 0
            while pending and self._fallback is None:
                # Pre-dispatch expiry sweep: a unit that is already past
                # its deadline never crosses the pipe.
                for unit in [u for u in ordered_units if u in pending]:
                    if _deadline_expired(deadlines[unit]):
                        parsed[unit] = (
                            DeadlineExceeded(
                                f"deadline expired before parsing {unit[1]!r}"
                            ),
                            0.0,
                        )
                        self.timeouts += 1
                        pending.discard(unit)
                if not pending:
                    break
                groups: Dict[str, List[WorkUnit]] = {}
                for unit in ordered_units:
                    if unit in pending:
                        groups.setdefault(unit[0], []).append(unit)
                assignment = self._assign(groups, offset=rounds)
                inflight = self._dispatch(assignment, deadlines)
                retry = self._collect(inflight, parsed)
                for unit in list(pending):
                    if unit in parsed:
                        pending.discard(unit)
                if retry:
                    self.retries += len(retry)
                rounds += 1
                if rounds > self.max_unit_retries:
                    break

            if pending:
                if self._fallback is not None:
                    # Downgraded mid-batch: the thread fallback finishes
                    # the stragglers (bit-identical by determinism).
                    leftovers = [u for u in ordered_units if u in pending]
                    fallback_items = [
                        BatchItem(
                            question=unit[1],
                            table=self._tables[unit[0]],
                            k=unit[2],
                            deadline=deadlines[unit],
                        )
                        for unit in leftovers
                    ]
                    for unit, result in zip(
                        leftovers, self._fallback.parse_all(fallback_items)
                    ):
                        parsed[unit] = result
                else:
                    # Retries exhausted: the driver parses what's left.
                    for unit in ordered_units:
                        if unit in pending:
                            parsed[unit] = self._parse_inline(
                                unit, deadlines[unit]
                            )

        results: List[PoolResult] = []
        for item in items:
            unit = (item.table.fingerprint.digest, item.question, item.k)
            parse, seconds = parsed[unit]
            if isinstance(parse, ParseOutput):
                results.append(
                    (dataclasses.replace(parse, table=item.table), seconds)
                )
            else:
                results.append((parse, seconds))
        return results

    def stats(self) -> Dict[str, object]:
        payload = super().stats()
        payload.update(
            {
                "pids": self.pids(),
                "tables_shipped": self.tables_shipped,
                "last_shipped": list(self.last_shipped),
                "registry": {
                    index: len(worker.shipped)
                    for index, worker in enumerate(self._workers)
                },
                "respawns": self.respawns,
                "respawn_failures": self.respawn_failures,
                "retries": self.retries,
                "inline_parses": self.inline_parses,
                "downgrades": self.downgrades,
                "downgraded": self.downgraded,
            }
        )
        if self._fallback is not None:
            payload["fallback"] = self._fallback.stats()
        return payload
