"""Spans around the calls into each layer, recorded from the benchmark's files.

The program has no tracing of its own yet, so the traced run wraps the
names its layers call each other through — each name where its caller
looks it up (``repro.tables.catalog.diff_tables``, a class method on the
class) — and restores them afterwards.  Each span records its name,
start, end, parent, the request ids it serves, wall time and thread CPU
time.  Spans stay in memory and are written when the run ends.

Linking: a request is opened (with its ``(question, target)`` key) when
the session calls ``AsyncServer.aquery``.  The ``TableCatalog.ask_many``
call that carries it on the dispatcher thread claims the oldest open
request per item key; the pool's units are linked through the batch
items that call hands down; every other span inherits its parent's
requests.

Hot leaf calls (``extract_features``, the outermost
``MemoizedExecutor.execute``) are summed into their enclosing span
instead of becoming spans of their own.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import stats

#: The request a session's task is serving (the loop thread interleaves
#: sessions, so a thread-local cannot say which).
CURRENT_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)

class Span:
    __slots__ = ("sid", "name", "start", "end", "cpu", "parent", "requests", "leaves", "meta")

    def __init__(self, sid, name, start, cpu, parent, requests) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.cpu = cpu
        self.parent = parent
        self.requests = requests
        self.leaves: Optional[Dict[str, List[float]]] = None
        self.meta: Optional[dict] = None

    @property
    def wall(self) -> float:
        return self.end - self.start

    def leaf_seconds(self, name: str) -> float:
        return self.leaves[name][1] if self.leaves and name in self.leaves else 0.0

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "requests": list(self.requests),
            "wall": self.wall,
            "cpu": self.cpu,
            "leaves": self.leaves,
            "meta": self.meta,
        }


class RequestTrace:
    """One request as the session saw it, plus the spans linked to it."""

    __slots__ = ("rid", "key", "start", "returned", "end", "carrying", "units", "children")

    def __init__(self, rid, key, start) -> None:
        self.rid = rid
        self.key = key
        self.start = start
        self.returned = None  # aquery returned
        self.end = None  # wire encoding done
        self.carrying: Optional[Span] = None
        self.units: List[Span] = []
        self.children: List[Span] = []


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.requests: Dict[int, RequestTrace] = {}
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pending: Dict[tuple, deque] = defaultdict(deque)
        self._owners: Dict[int, int] = {}
        self._installed: List[Tuple[object, str, object]] = []

    # -- requests (the loop thread) -------------------------------------------
    def open_request(self, rid: int, key: tuple, start: float) -> None:
        with self._lock:
            self.requests[rid] = RequestTrace(rid, key, start)
            self._pending[key].append(rid)

    def close_request(self, rid: int, returned: float, end: float) -> None:
        request = self.requests[rid]
        request.returned, request.end = returned, end

    def record(self, name: str, start: float, end: float, rid: int) -> None:
        """A span measured by the session itself (no stack: sessions interleave)."""
        span = Span(next(self._ids), name, start, 0.0, None, (rid,))
        span.end = end
        self.spans.append(span)
        self.requests[rid].children.append(span)

    def claim(self, keys: Sequence[tuple]) -> List[Optional[int]]:
        """Link a carrying call's items to the oldest open request per key."""
        with self._lock:
            claimed = []
            for key in keys:
                queue = self._pending.get(key)
                claimed.append(queue.popleft() if queue else None)
            return claimed

    # -- the span stack --------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, requests: Optional[tuple] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if requests is None:
            if parent is not None:
                requests = parent.requests
            else:
                rid = CURRENT_REQUEST.get()
                requests = (rid,) if rid is not None else ()
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            time.thread_time(),
            parent.sid if parent is not None else None,
            requests,
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stack().pop()
        self.spans.append(span)

    def enclosing(self, name: str) -> Optional[Span]:
        for span in reversed(self._stack()):
            if span.name == name:
                return span
        return None

    def add_leaf(self, name: str, seconds: float) -> None:
        stack = self._stack()
        if not stack:
            return
        span = stack[-1]
        if span.leaves is None:
            span.leaves = {}
        entry = span.leaves.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    # -- wrapping --------------------------------------------------------------
    def _replace(self, owner, attr: str, make: Callable) -> None:
        # Only names the owner defines itself: restoring then is one setattr.
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._installed.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, *, requests=None, enter=None, leave=None) -> None:
        """Record a span per call; ``requests(args)`` links it, hooks see it."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                span = tracer.begin(name, requests(args, kwargs) if requests else None)
                if enter is not None:
                    enter(span, args, kwargs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.finish(span)
                    if leave is not None:
                        leave(span, args, kwargs)
                if span.meta is not None and "result" in span.meta:
                    span.meta["result"] = span.meta["result"](result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def wrap_leaf(self, owner, attr: str, name: str, outermost: bool = False) -> None:
        """Sum call time into the enclosing span (outermost call only if asked)."""
        tracer = self
        depth_key = f"depth_{name}"

        def make(original):
            def wrapper(*args, **kwargs):
                local = tracer._local
                depth = getattr(local, depth_key, 0)
                if outermost and depth:
                    setattr(local, depth_key, depth + 1)
                    try:
                        return original(*args, **kwargs)
                    finally:
                        setattr(local, depth_key, depth)
                setattr(local, depth_key, depth + 1)
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.add_leaf(name, time.perf_counter() - started)
                    setattr(local, depth_key, depth)

            return wrapper

        self._replace(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- the layers --------------------------------------------------------------
    def install(self) -> None:
        """Wrap the calls into every layer the per-layer metrics read."""
        import repro.core.explanation as explanation
        import repro.parser.candidates as candidates
        import repro.serving.server as server
        import repro.tables.catalog as catalog
        from repro.core.highlights import Highlighter
        from repro.dcs.memo import MemoizedExecutor
        from repro.interface.nl_interface import NLInterface
        from repro.parser.grammar import CandidateGrammar
        from repro.perf.pool import ThreadWorkerPool
        from repro.retrieval.corpus_index import CorpusIndex

        # serving / api
        self.wrap(catalog.TableCatalog, "ask_many", "catalog.ask_many", enter=self._enter_ask_many)
        self.wrap(server, "result_from_served", "api.envelope", leave=self._leave_envelope)
        # tables
        self.wrap(catalog.TableCatalog, "register_all", "catalog.register_all")
        self.wrap(catalog.TableCatalog, "update", "catalog.update")
        self.wrap(catalog, "diff_tables", "tables.diff")
        self.wrap(catalog, "update_index", "tables.index_update")
        self.wrap(NLInterface, "retire_table", "catalog.retire_table")
        # retrieval
        self.wrap(CorpusIndex, "update", "retrieval.index_update")
        # perf.pool
        self.wrap(ThreadWorkerPool, "parse_all", "pool.parse_all", enter=self._enter_parse_all, leave=self._leave_parse_all)
        self.wrap(ThreadWorkerPool, "_parse_one", "pool.unit", requests=self._unit_owner, leave=self._leave_unit)
        self.wrap(ThreadWorkerPool, "retire", "pool.retire")
        # parser / dcs
        self.wrap(candidates.SemanticParser, "parse", "parser.parse")
        self.wrap(candidates.SemanticParser, "generate_candidates", "parser.generate", enter=_keep_result(lambda r: len(r[0])))
        self.wrap(candidates.SemanticParser, "rank", "parser.rank")
        self.wrap(CandidateGrammar, "generate", "grammar.generate", enter=_keep_result(len))
        self.wrap_leaf(candidates, "extract_features", "features")
        self.wrap_leaf(MemoizedExecutor, "execute", "execute", outermost=True)
        # core (the paper's Table 7 stages)
        self.wrap(explanation.ExplanationGenerator, "explain", "explain")
        self.wrap(explanation, "derive", "explain.utterance")
        self.wrap(Highlighter, "highlight", "explain.highlight")

    # -- linking hooks -------------------------------------------------------------
    def _enter_ask_many(self, span: Span, args, kwargs) -> None:
        items = args[1] if len(args) > 1 else kwargs["items"]
        owners = self.claim([(question, getattr(ref, "name", ref)) for question, ref in items])
        span.meta = {"owners": owners}
        span.requests = tuple(rid for rid in owners if rid is not None)
        for rid in span.requests:
            self.requests[rid].carrying = span

    def _enter_parse_all(self, span: Span, args, kwargs) -> None:
        # The batch's units align with the carrying ask_many's items.
        items = args[1]
        owners: List[Optional[int]] = [None] * len(items)
        carrier = self.enclosing("catalog.ask_many")
        if carrier is not None and len(carrier.meta["owners"]) == len(items):
            owners = list(carrier.meta["owners"])
        with self._lock:
            for item, rid in zip(items, owners):
                if rid is not None:
                    self._owners[id(item)] = rid
        span.meta = {"items": [id(item) for item in items]}

    def _leave_parse_all(self, span: Span, args, kwargs) -> None:
        with self._lock:
            for key in span.meta.pop("items"):
                self._owners.pop(key, None)

    def _unit_owner(self, args, kwargs) -> tuple:
        rid = self._owners.get(id(args[1]))
        return (rid,) if rid is not None else ()

    def _leave_unit(self, span: Span, args, kwargs) -> None:
        for rid in span.requests:
            self.requests[rid].units.append(span)

    def _leave_envelope(self, span: Span, args, kwargs) -> None:
        for rid in span.requests:
            self.requests[rid].children.append(span)

    # -- output --------------------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


def _keep_result(convert: Callable):
    """An ``enter`` hook asking the wrapper to keep ``convert(result)`` in meta."""

    def enter(span: Span, args, kwargs) -> None:
        span.meta = {"result": convert}

    return enter


# ---------------------------------------------------------------------------
# per-request attribution
# ---------------------------------------------------------------------------


def queue_wait(request: RequestTrace) -> Optional[float]:
    """From ``aquery`` entry to the start of the catalog call that carries it."""
    if request.carrying is None:
        return None
    return request.carrying.start - request.start


def batch_wait(request: RequestTrace) -> Optional[float]:
    """From the request's own pool unit finishing to its carrying batch returning."""
    if request.carrying is None or len(request.units) != 1:
        return None
    return request.carrying.end - request.units[0].end


def serving_self(request: RequestTrace) -> Optional[float]:
    """The ``aquery`` span minus the carrying call and the envelope under it."""
    if request.returned is None:
        return None
    children = [(span.start, span.end) for span in request.children]
    if request.carrying is not None:
        children.append((request.carrying.start, request.carrying.end))
    return stats.self_time((request.start, request.returned), children)


def envelope_seconds(request: RequestTrace) -> float:
    return sum(span.wall for span in request.children)


def coverage(request: RequestTrace) -> Tuple[float, float]:
    """(seconds covered by named spans, request wall seconds)."""
    intervals = [(span.start, span.end) for span in request.children]
    if request.carrying is not None:
        intervals.append((request.carrying.start, request.carrying.end))
    return stats.covered(intervals, request.start, request.end), request.end - request.start
