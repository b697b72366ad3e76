"""Tests of the benchmark's own code: statistics, attribution, inputs, manifest."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.inputs import (
    MAX_SEED, ROUNDS, Edit, Read, build_rounds, input_digest, served_seed,
)
from perfbench.layers import UNITS
from perfbench.runner import Checked, Outcome, ReadRecord, check, end_to_end
from perfbench.tracing import Tracer, batch_wait, queue_wait, serving_self

ROOT = Path(__file__).resolve().parent.parent


# -- the percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "count, q, beyond, ok",
    [
        (1000, 99, 10, True),
        (999, 99, 9, False),
        (20, 50, 10, True),
        (19, 50, 9, False),
        (100, 90, 10, True),
        (0, 50, 0, False),
    ],
)
def test_percentile_needs_ten_samples_beyond(count, q, beyond, ok):
    assert stats.samples_beyond(count, q) == beyond
    assert stats.supported(count, q) is ok


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(list(reversed(values)), 90) == 90
    assert stats.percentile([], 50) is None


# -- cold / warm -------------------------------------------------------------------


def test_cold_is_the_first_completion_per_key():
    # Sent in index order; "a" sent first but answered after its repeat.
    events = [("a", 5.0), ("b", 1.0), ("a", 2.0), ("b", 3.0), ("c", 4.0)]
    assert stats.classify_cold(events) == [False, True, True, False, True]


def test_a_new_version_is_cold_again():
    events = [(("q", "t", "v1"), 1.0), (("q", "t", "v1"), 2.0), (("q", "t", "v2"), 3.0)]
    assert stats.classify_cold(events) == [True, False, True]


# -- span arithmetic ---------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    assert stats.self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 4.0
    assert stats.self_time((0.0, 10.0), []) == 10.0
    assert stats.covered([(-5.0, 20.0)], 0.0, 10.0) == 10.0


def test_nested_spans_link_to_their_parent_and_requests():
    tracer = Tracer()
    outer = tracer.begin("outer", requests=(7,))
    inner = tracer.begin("inner")
    tracer.finish(inner)
    tracer.finish(outer)
    assert inner.parent == outer.sid
    assert inner.requests == (7,)
    assert outer.start <= inner.start <= inner.end <= outer.end


# -- queue-wait and batch-wait attribution -----------------------------------------


class _Ref:
    def __init__(self, name):
        self.name = name


class _Item:
    def __init__(self, question):
        self.question = question


class _Pool:
    def parse_all(self, items):
        return [self._parse_one(item) for item in items]

    def _parse_one(self, item):
        return item.question


class _Catalog:
    """Shaped like TableCatalog: a batch call over the pool."""

    def __init__(self):
        self.pool = _Pool()

    def ask_many(self, items):
        answers = self.pool.parse_all([_Item(question) for question, _ in items])
        time.sleep(0.002)  # explanation work after the batch's units finish
        return answers


def _traced():
    tracer = Tracer()
    tracer.wrap(_Catalog, "ask_many", "catalog.ask_many", enter=tracer._enter_ask_many)
    tracer.wrap(_Pool, "parse_all", "pool.parse_all",
                enter=tracer._enter_parse_all, leave=tracer._leave_parse_all)
    tracer.wrap(_Pool, "_parse_one", "pool.unit",
                requests=tracer._unit_owner, leave=tracer._leave_unit)
    return tracer


def test_batch_items_link_fifo_to_open_requests():
    tracer = _traced()
    try:
        start = time.perf_counter()
        for rid, key in ((1, ("q", "t")), (2, ("q", "t")), (3, ("r", "t"))):
            tracer.open_request(rid, key, start)
        _Catalog().ask_many([("r", _Ref("t")), ("q", _Ref("t")), ("q", _Ref("t"))])
        ended = time.perf_counter()
        for rid in (1, 2, 3):
            tracer.close_request(rid, ended, ended)
    finally:
        tracer.uninstall()
    requests = tracer.requests
    carrying = requests[1].carrying
    assert carrying is requests[2].carrying is requests[3].carrying
    assert carrying.meta["owners"] == [3, 1, 2]
    for rid in (1, 2, 3):
        assert len(requests[rid].units) == 1
        assert queue_wait(requests[rid]) == carrying.start - start > 0
        assert batch_wait(requests[rid]) == carrying.end - requests[rid].units[0].end
        assert batch_wait(requests[rid]) >= 0.002
    # Units run in item order, so the first item's unit waits longest.
    assert batch_wait(requests[3]) > batch_wait(requests[1]) > batch_wait(requests[2])
    # Serving self time is the request's span minus its carrying call.
    assert serving_self(requests[1]) == pytest.approx(
        (ended - start) - (carrying.end - carrying.start)
    )


def test_uninstall_restores_the_originals():
    original = _Pool.__dict__["_parse_one"]
    tracer = _traced()
    assert _Pool.__dict__["_parse_one"] is not original
    tracer.uninstall()
    assert _Pool.__dict__["_parse_one"] is original


def test_missing_wrap_points_are_reported():
    tracer = Tracer()
    tracer.wrap(_Pool, "no_such_method", "nothing")
    assert tracer.missing == ["_Pool.no_such_method"]


# -- inputs ------------------------------------------------------------------------


def test_inputs_are_pinned_by_seed():
    first = build_rounds("interactive", 3, 2)
    again = build_rounds("interactive", 3, 2)
    other = build_rounds("interactive", 4, 2)
    assert input_digest(first) == input_digest(again) != input_digest(other)
    assert len(first) == ROUNDS["interactive"]
    assert first[0].tables[0].fingerprint != first[1].tables[0].fingerprint
    assert all(len(inputs.ops) == 200 for inputs in first)
    assert all(isinstance(op, Read) for inputs in first for op in inputs.ops)


def test_any_integer_seed_folds_into_the_served_range():
    for seed in (0, 7, MAX_SEED - 1, MAX_SEED + 7, 2**31 - 1, 2**64 + 3, -1):
        assert 0 <= served_seed(seed) < MAX_SEED
    assert served_seed(MAX_SEED + 7) == served_seed(7) == 7
    big = build_rounds("live_edits", served_seed(4_294_967_295), 2)
    assert input_digest(big) == input_digest(build_rounds("live_edits", 967_295, 2))
    with pytest.raises(ValueError):
        build_rounds("interactive", MAX_SEED, 2)


def test_edits_chain_to_fresh_versions():
    inputs = build_rounds("live_edits", 5, 4)[0]
    edits = [op for op in inputs.ops if isinstance(op, Edit)]
    assert edits and {edit.kind for edit in edits} <= {"cell", "append", "drop"}
    versions = {}
    for edit in edits:
        versions[edit.target] = versions.get(edit.target, 0) + 1
        assert edit.version == versions[edit.target]
    digests = [edit.table.fingerprint.digest for edit in edits]
    digests += [table.fingerprint.digest for table in inputs.tables]
    assert len(set(digests)) == len(digests)


def test_a_run_edits_each_of_the_twelve_table_slots_once():
    rounds = build_rounds("live_edits", 5, 30)
    edited = sorted({
        inputs.names.index(op.target)
        for inputs in rounds
        for op in inputs.ops
        if isinstance(op, Edit)
    })
    assert edited == list(range(12))
    assert all(inputs.edits == round(len(inputs.ops) / 8) for inputs in rounds)


# -- answer checks -------------------------------------------------------------------


def _answered(op, digest, answer=("1",)):
    return ReadRecord(round=0, question=op.question, target=op.target, sent_version=0,
                      start=0.0, end=1.0, ok=True, error=None, answer=answer,
                      utterance="u", digest=digest)


def test_an_answer_on_an_unknown_version_is_a_failed_operation():
    inputs = build_rounds("interactive", 0, 1)[0]
    op = inputs.ops[0]
    known = next(d for d, (name, _, _) in inputs.versions.items() if name == op.target)
    outcome = Outcome(reads=[_answered(op, "f" * 64), _answered(op, known)])
    checked = check([inputs], outcome)
    assert checked.attempted == 2
    assert checked.failed == 1
    assert checked.failures == {"unknown_version": 1}
    assert checked.scored + checked.unscored == 1


def test_a_diverging_repeat_is_a_failed_operation():
    inputs = build_rounds("interactive", 0, 1)[0]
    op = inputs.ops[0]
    known = next(d for d, (name, _, _) in inputs.versions.items() if name == op.target)
    first, repeat = _answered(op, known, ("1",)), _answered(op, known, ("2",))
    repeat.end = 2.0
    checked = check([inputs], Outcome(reads=[first, repeat]))
    assert checked.failures == {"repeat_diverged": 1}
    assert checked.cold == [True, False]


# -- the manifest matches what the runner computes ----------------------------------


def test_manifest_metrics_are_computed_with_their_units():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    outcome = Outcome(setups=[0.01], elapsed=1.0)
    checked = Checked(attempted=0, failed=0, failures={}, cold=[], accuracy=0.5,
                      scored=1, unscored=0)
    computed = end_to_end(outcome, checked)
    for metric in manifest["end_to_end"]:
        assert computed[metric["name"]]["unit"] == metric["unit"]
    for metric in manifest["per_layer"]:
        assert UNITS[metric["name"]] == metric["unit"]
    assert [w["name"] for w in manifest["workloads"]] == ["interactive", "live_edits"]
