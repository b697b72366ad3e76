"""Unit tests for the lambda DCS AST: typing rules, traversal, metadata."""

import copy
import dataclasses
import functools
import pickle
import weakref

import pytest

from repro.dcs import (
    Aggregate,
    AggregateFunction,
    AllRecords,
    ColumnRecords,
    ColumnValues,
    Difference,
    Intersection,
    QueryTypeError,
    ResultKind,
    SuperlativeKind,
    SuperlativeRecords,
    Union,
    ValueLiteral,
    ExecutionResult,
    builder as q,
    to_sexpr,
)
from repro.dcs.ast import ALL_NODE_TYPES
from repro.parser import Candidate
from repro.tables.table import Cell
from repro.tables.values import NumberValue


class TestResultKinds:
    def test_value_literal_is_values(self):
        assert q.value("Greece").result_kind == ResultKind.VALUES

    def test_all_records_is_records(self):
        assert AllRecords().result_kind == ResultKind.RECORDS

    def test_column_values_is_values(self):
        query = q.column_values("Year", q.all_records())
        assert query.result_kind == ResultKind.VALUES

    def test_aggregate_is_scalar(self):
        query = q.count(q.all_records())
        assert query.result_kind == ResultKind.SCALAR

    def test_union_kind_follows_operands(self):
        values_union = q.union("a", "b")
        assert values_union.result_kind == ResultKind.VALUES
        records_union = Union(q.column_records("A", "x"), q.column_records("B", "y"))
        assert records_union.result_kind == ResultKind.RECORDS


class TestTypingRules:
    def test_column_records_requires_values_operand(self):
        with pytest.raises(QueryTypeError):
            ColumnRecords("City", AllRecords())

    def test_column_values_requires_records_operand(self):
        with pytest.raises(QueryTypeError):
            ColumnValues("City", ValueLiteral(q.value("x").value))

    def test_intersection_requires_records(self):
        with pytest.raises(QueryTypeError):
            Intersection(q.value("a"), q.value("b"))

    def test_union_requires_same_kind(self):
        with pytest.raises(QueryTypeError):
            Union(q.value("a"), q.all_records())

    def test_numeric_aggregate_rejects_records(self):
        with pytest.raises(QueryTypeError):
            Aggregate(AggregateFunction.MAX, q.all_records())

    def test_count_accepts_records(self):
        assert q.count(q.all_records()).result_kind == ResultKind.SCALAR

    def test_difference_rejects_records_operand(self):
        with pytest.raises(QueryTypeError):
            Difference(q.all_records(), q.value(1))

    def test_superlative_requires_records(self):
        with pytest.raises(QueryTypeError):
            SuperlativeRecords(SuperlativeKind.ARGMAX, "Year", q.value("x"))


class TestTraversal:
    def _example(self):
        return q.max_(q.column_values("Year", q.column_records("Country", "Greece")))

    def test_walk_is_preorder(self):
        names = [type(node).__name__ for node in self._example().walk()]
        assert names == ["Aggregate", "ColumnValues", "ColumnRecords", "ValueLiteral"]

    def test_subqueries_excludes_self(self):
        query = self._example()
        subqueries = query.subqueries()
        assert len(subqueries) == 3
        assert query not in subqueries

    def test_size_and_depth(self):
        query = self._example()
        assert query.size() == 4
        assert query.depth() == 4

    def test_columns_in_order_without_duplicates(self):
        query = q.value_difference("Total", "Nation", "Fiji", "Tonga")
        assert query.columns() == ("Total", "Nation")

    def test_leaf_has_no_children(self):
        assert q.value("Greece").children() == ()


class TestEqualityAndHashing:
    def test_structural_equality(self):
        left = q.column_records("Country", "Greece")
        right = q.column_records("Country", "Greece")
        assert left == right
        assert hash(left) == hash(right)

    def test_inequality_on_column(self):
        assert q.column_records("Country", "Greece") != q.column_records("City", "Greece")

    def test_queries_usable_in_sets(self):
        queries = {q.count(q.all_records()), q.count(q.all_records())}
        assert len(queries) == 1


def slotted_nodes():
    """One node of every class, each over a small sub-tree."""
    fiji = q.column_records("Nation", "Fiji")
    gold = q.comparison_records("Gold", ">", 10)
    return [
        q.value("Fiji"),
        q.all_records(),
        fiji,
        gold,
        q.prev_records(fiji),
        q.next_records(fiji),
        q.intersection(fiji, gold),
        q.join_records("Nation", "Country", q.all_records()),
        q.argmax_records("Gold"),
        q.last_record(gold),
        q.column_values("Total", fiji),
        q.union("Fiji", "Tonga"),
        q.value_in_last_record("Nation"),
        q.most_common("Nation"),
        q.compare_values("Gold", "Nation", q.union("Fiji", "Tonga")),
        q.count(fiji),
        q.value_difference("Total", "Nation", "Fiji", "Tonga"),
    ]


def slotted_instances():
    """Every slotted class of the query model: nodes, results, candidates."""
    query = q.column_values("Total", q.column_records("Nation", "Fiji"))
    result = ExecutionResult(
        kind=ResultKind.VALUES,
        record_indices=frozenset({3}),
        cells=(Cell(3, "Total", NumberValue(130)),),
        values=(NumberValue(130),),
        aggregates=("sum",),
    )
    return slotted_nodes() + [result, Candidate(query, None, result, 0.5, 0.25)]


SLOTTED_IDS = [type(instance).__name__ for instance in slotted_instances()]


def sexpr_of(instance):
    if isinstance(instance, Candidate):
        return instance.sexpr
    if isinstance(instance, ExecutionResult):
        return None
    return to_sexpr(instance)


class TestSlottedQueryModel:
    """Query nodes, execution results and candidates are frozen, slotted,
    and pickle as their field tuples."""

    def test_every_node_class_is_covered(self):
        assert {type(node) for node in slotted_nodes()} == set(ALL_NODE_TYPES)

    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    @pytest.mark.parametrize("instance", slotted_instances(), ids=SLOTTED_IDS)
    def test_pickle_round_trip_keeps_equality_hash_and_sexpr(self, instance, protocol):
        restored = pickle.loads(pickle.dumps(instance, protocol=protocol))
        assert type(restored) is type(instance)
        assert restored == instance
        assert hash(restored) == hash(instance)
        assert sexpr_of(restored) == sexpr_of(instance)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    @pytest.mark.parametrize("instance", slotted_instances(), ids=SLOTTED_IDS)
    def test_copies_keep_equality_hash_and_sexpr(self, instance, copier):
        copied = copier(instance)
        assert type(copied) is type(instance)
        assert copied == instance
        assert hash(copied) == hash(instance)
        assert sexpr_of(copied) == sexpr_of(instance)

    @pytest.mark.parametrize("instance", slotted_instances(), ids=SLOTTED_IDS)
    def test_instances_are_frozen_and_hold_no_attribute_dict(self, instance):
        for field in dataclasses.fields(instance):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, field.name, None)
        assert not hasattr(instance, "__dict__")
        # Neither the frozen ``__setattr__`` (a ``TypeError`` for a name
        # outside the fields of a slotted class) nor, past it, a slot
        # takes an ad-hoc attribute.
        with pytest.raises((AttributeError, TypeError)):
            instance.memo = 1
        with pytest.raises(AttributeError):
            object.__setattr__(instance, "memo", 1)

    def test_a_candidate_with_features_round_trips(self):
        candidate = slotted_instances()[-1]
        featured = Candidate(candidate.query, {"op:ColumnValues": 1.0}, candidate.result)
        for restored in (pickle.loads(pickle.dumps(featured)), copy.deepcopy(featured)):
            assert restored == featured
            assert restored.features == {"op:ColumnValues": 1.0}
            assert restored.sexpr == featured.sexpr

    @pytest.mark.parametrize("node", slotted_nodes(), ids=SLOTTED_IDS[: len(ALL_NODE_TYPES)])
    def test_nodes_keep_weak_references(self, node):
        assert weakref.ref(node)() is node

    @pytest.mark.parametrize("cls", [ColumnValues, AllRecords, ExecutionResult, Candidate])
    def test_a_cached_property_fails_at_first_read(self, cls, monkeypatch):
        probe = functools.cached_property(lambda self: 1)
        probe.__set_name__(cls, "probe")
        monkeypatch.setattr(cls, "probe", probe, raising=False)
        instance = next(i for i in slotted_instances() if type(i) is cls)
        with pytest.raises(TypeError, match="__dict__"):
            instance.probe

    @pytest.mark.parametrize("instance", slotted_instances(), ids=SLOTTED_IDS)
    def test_a_dict_state_is_refused(self, instance):
        blank = object.__new__(type(instance))
        with pytest.raises(TypeError, match="dict state"):
            blank.__setstate__({field.name: None for field in dataclasses.fields(instance)})

    def test_a_restore_runs_no_post_init(self, monkeypatch):
        blob = pickle.dumps(q.count(q.all_records()))

        def refuse(self):
            raise AssertionError("__post_init__ ran on restore")

        monkeypatch.setattr(Aggregate, "__post_init__", refuse)
        assert pickle.loads(blob).function is AggregateFunction.COUNT
