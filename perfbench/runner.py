"""One closed-loop run of one workload through ``ReproEngine`` + ``AsyncServer.aquery``.

Set-up mirrors ``repro serve --model``: the weights checkpoint is loaded
with ``LogLinearModel.load``, the engine runs the thread backend with
``workers = nproc`` and k = 7, tables are registered in memory with
``register_all``, and the server is ``engine.server(max_workers=nproc)``.
Set-up is repeated and its median reported; one stand-up in the middle of
each round's series serves its timed phase.

The load is closed: ``nproc`` sessions on one event loop take the next
operation from the shared script as soon as their previous one returns,
with no think time.  Edits (``live_edits``) run on one edit thread.  Every
answer is checked; teardown runs in ``finally`` and the run fails if any
thread or child process outlives it.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import QueryRequest, ReproEngine
from repro.api.wire import v2_result_response
from repro.dcs import answers_match, execute
from repro.dcs.errors import DCSError
from repro.interface import NLInterface
from repro.parser import LogLinearModel, ParserConfig, SemanticParser
from repro.tables.values import parse_value

from . import stats
from .inputs import Edit, Inputs
from .tracing import CURRENT_REQUEST, Tracer

K = 7
#: Stand-ups per round; ``setup_s`` is the median over every round.
SETUP_REPEATS = {"interactive": 25, "live_edits": 13}
#: The host-speed probe: a fixed pure-Python loop, timed before and after.
PROBE_ITERATIONS = 2_000_000


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_probe() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value
    return time.perf_counter() - started


@dataclass
class ReadRecord:
    round: int
    question: str
    target: str
    sent_version: int
    start: float
    end: float
    ok: bool
    error: Optional[str]
    answer: Tuple[str, ...]
    utterance: Optional[str]
    digest: Optional[str]

    @property
    def key(self) -> tuple:
        """What an answer is an answer *to*: the question on one table version."""
        return (self.round, self.question, self.target, self.digest)

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class EditRecord:
    seconds: float
    error: Optional[str]


@dataclass
class Outcome:
    """Everything one pass measured, before metrics are derived."""

    setups: List[float] = field(default_factory=list)
    reads: List[ReadRecord] = field(default_factory=list)
    edits: List[EditRecord] = field(default_factory=list)
    elapsed: float = 0.0
    truncated: bool = False
    #: Per-round cache and server counters, summed by :func:`merge_counters`.
    counters: List[Dict[str, object]] = field(default_factory=list)
    rss_peak_mb: float = 0.0


class Run:
    """Every round of one workload (untraced, or traced with ``tracer``)."""

    def __init__(
        self,
        rounds: List[Inputs],
        weights_path: str,
        deadline: float,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.rounds = rounds
        self.weights_path = weights_path
        self.deadline = deadline
        self.tracer = tracer
        self.nproc = nproc()
        self.outcome = Outcome()
        self._rids = iter(range(1, sum(len(inputs.ops) for inputs in rounds) + 1))

    def execute(self) -> Outcome:
        if self.tracer is not None:
            self.tracer.install()
        try:
            asyncio.run(self._main())
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        return self.outcome

    async def _main(self) -> None:
        for inputs in self.rounds:
            await self._round(inputs)
        self.outcome.rss_peak_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )

    # -- stand-up / teardown ------------------------------------------------------
    async def _stand_up(self, inputs: Inputs):
        started = time.perf_counter()
        parser = SemanticParser(
            model=LogLinearModel.load(self.weights_path), config=ParserConfig()
        )
        engine = ReproEngine(
            interface=NLInterface(parser=parser, k=K),
            k=K,
            workers=self.nproc,
            backend="thread",
        )
        server = None
        try:
            engine.register_all(inputs.tables, names=inputs.names)
            server = engine.server(max_workers=self.nproc)
            await server.start()
        except BaseException:
            await _tear_down(engine, server)
            raise
        return engine, server, time.perf_counter() - started

    async def _time_stand_ups(self, inputs: Inputs, count: int) -> None:
        """Stand up and tear down ``count`` times, recording each set-up time."""
        gc.collect()
        for _ in range(count):
            engine, server, seconds = await self._stand_up(inputs)
            self.outcome.setups.append(seconds)
            await _tear_down(engine, server)

    async def _round(self, inputs: Inputs) -> None:
        outcome = self.outcome
        # Half the stand-ups come before the timed phase and half after
        # it, so set-up time samples the host's speed at two points of
        # the round rather than one.
        repeats = SETUP_REPEATS[inputs.workload]
        await self._time_stand_ups(inputs, repeats // 2)
        engine = server = None
        edit_thread = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="perfbench-edit")
            if inputs.edits
            else None
        )
        try:
            engine, server, seconds = await self._stand_up(inputs)
            outcome.setups.append(seconds)
            gc.collect()
            indexes_before = dict(engine.cache_stats()["indexes"])
            await self._drive(inputs, engine, server, edit_thread)
            outcome.counters.append(_counters(engine, server, indexes_before))
        finally:
            if engine is not None:
                await _tear_down(engine, server)
            if edit_thread is not None:
                edit_thread.shutdown(wait=True)
        await self._time_stand_ups(inputs, repeats - repeats // 2 - 1)

    # -- the closed loop ------------------------------------------------------------
    async def _drive(self, inputs: Inputs, engine, server, edit_thread) -> None:
        loop = asyncio.get_running_loop()
        outcome = self.outcome
        tracer = self.tracer
        script = iter(inputs.ops)
        live = {name: 0 for name in inputs.names}
        rids = self._rids

        def apply_edit(op: Edit) -> None:
            # On the edit thread: one ReproEngine.update, waits included.
            started = time.perf_counter()
            error = None
            try:
                engine.update(op.target, op.table)
            except Exception as exc:  # recorded as a failed operation
                error = repr(exc)
            seconds = time.perf_counter() - started
            if error is None:
                live[op.target] = op.version
            outcome.edits.append(EditRecord(seconds, error))

        async def read(op) -> None:
            rid = next(rids)
            request = QueryRequest(question=op.question, target=op.target)
            sent_version = live[op.target]
            started = time.perf_counter()
            if tracer is not None:
                CURRENT_REQUEST.set(rid)
                tracer.open_request(rid, (op.question, op.target), started)
            result = await server.aquery(request)
            returned = time.perf_counter()
            json.dumps(v2_result_response(result, rid), ensure_ascii=False).encode("utf-8")
            ended = time.perf_counter()
            if tracer is not None:
                tracer.record("api.encode", returned, ended, rid)
                tracer.close_request(rid, returned, ended)
            top = result.candidates[0] if result.candidates else None
            outcome.reads.append(
                ReadRecord(
                    round=inputs.round,
                    question=op.question,
                    target=op.target,
                    sent_version=sent_version,
                    start=started,
                    end=ended,
                    ok=result.ok,
                    error=result.error.code.value if result.error else None,
                    answer=tuple(result.answer),
                    utterance=top.utterance if top else None,
                    digest=result.shard.digest if result.shard else None,
                )
            )

        async def session() -> None:
            for op in script:
                if time.perf_counter() > self.deadline:
                    outcome.truncated = True
                    return
                if isinstance(op, Edit):
                    await loop.run_in_executor(edit_thread, apply_edit, op)
                else:
                    await read(op)

        started = time.perf_counter()
        await asyncio.gather(*(session() for _ in range(self.nproc)))
        outcome.elapsed += time.perf_counter() - started


async def _tear_down(engine, server) -> None:
    # engine.server() leaves a caller-owned engine's pools open, so the
    # engine is closed explicitly.
    try:
        if server is not None:
            await server.stop()
    finally:
        engine.close()


def _counters(engine, server, indexes_before) -> Dict[str, object]:
    caches = engine.cache_stats()
    indexes = {
        key: caches["indexes"].get(key, 0) - indexes_before.get(key, 0)
        for key in ("hits", "misses")
    }
    catalog = engine.stats()
    pool = engine.pool("thread")
    return {
        "server": server.stats.as_dict(),
        "caches": {name: caches[name] for name in ("lexicons", "grammars", "execution", "candidates")},
        "indexes": indexes,
        "explanations": pool.explanations.stats(),
        "pool": pool.stats(),
        "retrieval": catalog["retrieval"],
        "retired": catalog["retired"],
        "updates": catalog["updates"],
    }


def merge_counters(rounds: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum per-round counters; sizes of one corpus (postings) are averaged."""

    def add(into: dict, item: dict) -> None:
        for key, value in item.items():
            if isinstance(value, dict):
                add(into.setdefault(key, {}), value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                into[key] = into.get(key, 0) + value

    merged: Dict[str, object] = {}
    for counters in rounds:
        add(merged, counters)
    for key in list(merged["retrieval"]):
        merged["retrieval"][key] /= len(rounds)
    server = merged["server"]
    server["mean_batch"] = stats.share(server["requests"], server["batches"])
    return merged


# ---------------------------------------------------------------------------
# hygiene
# ---------------------------------------------------------------------------


def leftovers() -> List[str]:
    """Threads and child processes still alive (a clean run leaves none)."""
    found = [
        f"thread {thread.name}"
        for thread in threading.enumerate()
        if thread is not threading.main_thread() and thread.is_alive()
    ]
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            found.append(f"child process {entry}")
    return found


# ---------------------------------------------------------------------------
# checks and end-to-end metrics
# ---------------------------------------------------------------------------


@dataclass
class Checked:
    attempted: int
    failed: int
    failures: Dict[str, int]
    cold: List[bool]
    accuracy: float
    scored: int
    unscored: int


def check(rounds: List[Inputs], outcome: Outcome) -> Checked:
    """Count failed operations and score accuracy (after the timed phase)."""
    failures: Dict[str, int] = {}

    def fail(kind: str) -> None:
        failures[kind] = failures.get(kind, 0) + 1

    first: Dict[tuple, ReadRecord] = {}
    for record in sorted(outcome.reads, key=lambda r: r.end):
        if not record.ok:
            fail(f"error:{record.error}")
            continue
        known = rounds[record.round].versions.get(record.digest)
        if known is None:
            fail("unknown_version")
            continue
        if known[1] < record.sent_version:
            fail("stale_read")
        earlier = first.setdefault(record.key, record)
        if earlier is not record and (
            earlier.answer != record.answer or earlier.utterance != record.utterance
        ):
            fail("repeat_diverged")
    for edit in outcome.edits:
        if edit.error is not None:
            fail("edit_error")
    if outcome.truncated:
        fail("script_unfinished")

    cold = stats.classify_cold((r.key, r.end) for r in outcome.reads)
    # Each question counts once: its score is the share of the table
    # versions it was answered on that it got right, so the questions of
    # a often-edited table do not outweigh the rest.
    verdicts: Dict[tuple, List[bool]] = {}
    unscored = 0
    for record in first.values():
        verdict = _score(rounds[record.round], record)
        if verdict is None:
            unscored += 1
        else:
            verdicts.setdefault(record.key[:3], []).append(verdict)
    return Checked(
        attempted=len(outcome.reads) + len(outcome.edits),
        failed=sum(failures.values()),
        failures=failures,
        cold=cold,
        accuracy=stats.mean([stats.mean(scores) for scores in verdicts.values()]),
        scored=len(verdicts),
        unscored=unscored,
    )


def _score(inputs: Inputs, record: ReadRecord) -> Optional[bool]:
    """Is the top answer right?  ``None`` when the version has no gold answer."""
    table = inputs.versions[record.digest][2]
    try:
        gold = execute(inputs.gold_queries[(record.question, record.target)], table).answer_values()
    except DCSError:
        return None
    if not gold:
        return None
    return answers_match([parse_value(text) for text in record.answer], gold)


def _timing(values: List[float], q: float, unit: str = "ms") -> dict:
    return {
        "value": stats.percentile(values, q),
        "unit": unit,
        "n": len(values),
        "q": q,
        "supported": stats.supported(len(values), q),
    }


def end_to_end(outcome: Outcome, checked: Checked) -> Dict[str, dict]:
    """Every end-to-end metric as ``{"value", "unit", "n", ...}``.

    ``BENCHMARK.json`` gates a subset; see README.md for the others.
    """
    reads = [r for r in outcome.reads if r.ok]
    flags = {id(r): flag for r, flag in zip(outcome.reads, checked.cold)}
    latency = [r.latency_ms for r in reads]
    cold = [r.latency_ms for r in reads if flags[id(r)]]
    warm = [r.latency_ms for r in reads if not flags[id(r)]]
    updates = [e.seconds * 1000.0 for e in outcome.edits if e.error is None]
    operations = len(outcome.reads) + len(outcome.edits)
    return {
        "setup_s": _timing(outcome.setups, 50, unit="s"),
        "throughput_ops": {
            "value": stats.share(operations, outcome.elapsed),
            "unit": "ops/s",
            "n": operations,
        },
        "latency_p99_ms": _timing(latency, 99),
        "cold_p50_ms": _timing(cold, 50),
        "cold_p90_ms": _timing(cold, 90),
        "warm_p50_ms": _timing(warm, 50),
        "warm_p99_ms": _timing(warm, 99),
        "rss_peak_mb": {"value": outcome.rss_peak_mb, "unit": "MB", "n": 1},
        "answer_accuracy": {"value": checked.accuracy, "unit": "share", "n": checked.scored},
        "latency_p50_ms": _timing(latency, 50),
        "update_p50_ms": _timing(updates, 50),
        "update_p90_ms": _timing(updates, 90),
    }
