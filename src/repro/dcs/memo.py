"""Memoized lambda DCS execution (the deployment hot path, Table 7).

Every question answered by the interface triggers execution of up to
~600 candidate queries against the same table, and those candidates share
most of their sub-trees: ``(column-records "Country" (value "Greece"))``
appears under dozens of aggregates, projections and superlatives.  The
plain :class:`~repro.dcs.executor.Executor` re-walks the table for every
occurrence; :class:`MemoizedExecutor` executes each distinct sub-query
once per executor.

The memo is a plain dict keyed by canonical s-expression, private to one
executor and so to one table and one thread: it needs no fingerprint in
its key, no lock and no bound, and it is freed with the executor.  The
parser builds one executor per cold question, so a question's candidates
share sub-trees while nothing outlives the question.  Failures are
memoized too: a sub-query that raised keeps raising without re-walking
the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..tables.table import Table
from .ast import Query
from .errors import ExecutionError
from .executor import ExecutionResult, Executor
from .sexpr import to_sexpr

_MISS = object()


@dataclass(frozen=True)
class _CachedFailure:
    """A memoized execution error (kept distinct from genuine results).

    Only the exception *type and args* are stored, never the raised
    exception object: re-raising one object would grow its
    ``__traceback__`` on every replay.
    """

    error_type: type
    args: Tuple

    def replay(self) -> ExecutionError:
        return self.error_type(*self.args)


class MemoizedExecutor(Executor):
    """An :class:`Executor` that memoizes every (sub-)query it executes.

    Drop-in result-equivalent to the plain executor (a property test in
    ``tests/test_property_based.py`` locks this in): it produces the same
    :class:`ExecutionResult` — answers, output cells and aggregate markers
    included — and raises the same :class:`ExecutionError` on the same
    inputs.  The only observable difference is speed: each distinct
    sub-tree is executed once per executor.

    ``memo`` maps s-expressions to results (or memoized failures);
    ``hits`` and ``misses`` count its lookups.  An executor is meant for
    one thread: build one per call rather than sharing it.

    Parameters
    ----------
    table:
        The table to execute against.
    use_index:
        Forwarded to :class:`~repro.dcs.executor.Executor`: answer memo
        misses from the content-addressed column index (default) or from
        plain row scans.
    sexpr:
        How a (sub-)query's memo key is read: :func:`to_sexpr` by
        default, which re-serializes every sub-tree at every level of
        the recursion; the parser passes its per-call node facts, which
        compose each distinct node's string once.
    """

    def __init__(
        self,
        table: Table,
        use_index: bool = True,
        sexpr: Callable[[Query], str] = to_sexpr,
    ) -> None:
        super().__init__(table, use_index=use_index)
        self.memo: Dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        self._sexpr = sexpr

    def execute(self, query: Query) -> ExecutionResult:
        """Execute with memoization; recursion memoizes every sub-query."""
        sexpr = self._sexpr(query)
        entry = self.memo.get(sexpr, _MISS)
        if entry is not _MISS:
            self.hits += 1
            if isinstance(entry, _CachedFailure):
                raise entry.replay()
            return entry
        self.misses += 1
        try:
            result = super().execute(query)
        except ExecutionError as error:
            self.memo[sexpr] = _CachedFailure(type(error), tuple(error.args))
            raise
        self.memo[sexpr] = result
        return result


def execute_memoized(query: Query, table: Table) -> ExecutionResult:
    """Convenience wrapper mirroring :func:`repro.dcs.executor.execute`."""
    return MemoizedExecutor(table).execute(query)
