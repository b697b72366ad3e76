"""Property-based tests (hypothesis) on the core data structures and invariants.

Strategies generate random small tables and random lambda DCS queries over
them; the properties checked are the ones the paper's machinery relies on:

* value parsing never crashes and cross-type equality is symmetric,
* query s-expressions round-trip,
* the executor agrees with the SQL translation on sqlite,
* the memoized executor is result-equivalent to the plain executor
  (answers, output cells and aggregate markers), cold and warm,
* the column-indexed executor is bit-identical to the row-scan executor,
  including on degenerate tables (NaN cells, empty strings, numeric
  strings, duplicate-only columns),
* the provenance chain is always ordered (``PO ⊆ PE ⊆ PC``),
* highlight levels only cover cells of columns used by the query,
* utterances exist and mention every column of the query.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HighlightLevel, compute_provenance, highlight, utterance
from repro.dcs import (
    Executor,
    MemoizedExecutor,
    builder as q,
    execute,
    from_sexpr,
    to_sexpr,
)
from repro.dcs.errors import DCSError
from repro.sql import check_equivalence
from repro.tables import Table, parse_value, values_equal
from repro.tables.values import NumberValue, StringValue

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

NAMES = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta"]
CATEGORIES = ["Red", "Blue", "Green"]


@st.composite
def tables(draw):
    """Small tables with a key column, a category column and two numeric columns."""
    num_rows = draw(st.integers(min_value=3, max_value=8))
    names = draw(
        st.lists(st.sampled_from(NAMES), min_size=num_rows, max_size=num_rows, unique=True)
    )
    categories = draw(
        st.lists(st.sampled_from(CATEGORIES), min_size=num_rows, max_size=num_rows)
    )
    scores = draw(
        st.lists(st.integers(min_value=0, max_value=50), min_size=num_rows, max_size=num_rows)
    )
    totals = draw(
        st.lists(st.integers(min_value=0, max_value=500), min_size=num_rows, max_size=num_rows)
    )
    rows = list(zip(names, categories, scores, totals))
    return Table(columns=["Name", "Category", "Score", "Total"], rows=rows, name="prop")


@st.composite
def queries(draw, table):
    """Random queries drawn from the operator inventory, grounded in ``table``."""
    name = draw(st.sampled_from([value.display() for value in table.column_values("Name")]))
    category = draw(
        st.sampled_from([value.display() for value in table.column_values("Category")])
    )
    threshold = draw(st.integers(min_value=0, max_value=50))
    numeric_column = draw(st.sampled_from(["Score", "Total"]))
    choice = draw(st.integers(min_value=0, max_value=9))
    if choice == 0:
        return q.column_values(numeric_column, q.column_records("Name", name))
    if choice == 1:
        return q.count(q.column_records("Category", category))
    if choice == 2:
        return q.column_values("Name", q.argmax_records(numeric_column))
    if choice == 3:
        return q.max_(q.column_values(numeric_column, q.all_records()))
    if choice == 4:
        return q.count(q.comparison_records(numeric_column, ">", threshold))
    if choice == 5:
        return q.most_common("Category")
    if choice == 6:
        return q.value_in_last_record("Name")
    if choice == 7:
        return q.column_values(
            "Name", q.next_records(q.column_records("Name", name))
        )
    if choice == 8:
        other = draw(
            st.sampled_from([value.display() for value in table.column_values("Name")])
        )
        return q.count_difference("Name", name, other)
    return q.column_values(
        "Name",
        q.intersection(
            q.column_records("Category", category),
            q.comparison_records(numeric_column, ">=", threshold),
        ),
    )


table_and_query = tables().flatmap(
    lambda table: st.tuples(st.just(table), queries(table))
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# ---------------------------------------------------------------------------
# value properties
# ---------------------------------------------------------------------------


class TestValueProperties:
    @given(st.text(alphabet=string.printable, max_size=30))
    @SETTINGS
    def test_parse_value_never_crashes(self, text):
        value = parse_value(text)
        assert value.display() is not None

    @given(
        st.one_of(
            st.integers(min_value=-10**6, max_value=10**6),
            st.text(alphabet=string.ascii_letters + string.digits + " ,.$%", max_size=20),
        ),
        st.one_of(
            st.integers(min_value=-10**6, max_value=10**6),
            st.text(alphabet=string.ascii_letters + string.digits + " ,.$%", max_size=20),
        ),
    )
    @SETTINGS
    def test_values_equal_is_symmetric(self, left_raw, right_raw):
        left, right = parse_value(left_raw), parse_value(right_raw)
        assert values_equal(left, right) == values_equal(right, left)

    @given(st.integers(min_value=-10**9, max_value=10**9))
    @SETTINGS
    def test_number_display_roundtrip(self, number):
        value = NumberValue(number)
        assert values_equal(parse_value(value.display()), value)

    @given(st.text(alphabet=string.ascii_letters + " ", min_size=1, max_size=20))
    @SETTINGS
    def test_string_normalisation_idempotent(self, text):
        value = StringValue(text)
        assert StringValue(value.normalized).normalized == value.normalized


# ---------------------------------------------------------------------------
# query properties
# ---------------------------------------------------------------------------


class TestQueryProperties:
    @given(table_and_query)
    @SETTINGS
    def test_sexpr_roundtrip(self, pair):
        _table, query = pair
        assert from_sexpr(to_sexpr(query)) == query

    @given(table_and_query)
    @SETTINGS
    def test_execution_is_deterministic(self, pair):
        table, query = pair
        try:
            first = execute(query, table).answer_strings()
            second = execute(query, table).answer_strings()
        except DCSError:
            return
        assert first == second

    @given(table_and_query)
    @SETTINGS
    def test_sql_translation_agrees_with_executor(self, pair):
        table, query = pair
        try:
            report = check_equivalence(query, table)
        except DCSError:
            return
        assert report.equivalent, report.detail


class TestMemoizedExecutionProperties:
    """The memoized executor is a drop-in for the plain one (ISSUE 1)."""

    @given(table_and_query)
    @SETTINGS
    def test_memoized_result_equivalent_to_plain(self, pair):
        table, query = pair
        try:
            plain = Executor(table).execute(query)
            plain_error = None
        except DCSError as error:
            plain, plain_error = None, error

        executor = MemoizedExecutor(table)
        for _round in ("cold", "warm"):
            try:
                memoized = executor.execute(query)
            except DCSError as error:
                assert plain_error is not None, (
                    f"memoized raised on the {_round} round but plain succeeded: {error}"
                )
                assert type(error) is type(plain_error)
                assert str(error) == str(plain_error)
            else:
                assert plain_error is None, (
                    f"plain raised {plain_error} but memoized succeeded ({_round})"
                )
                # Full ExecutionResult equality: kind, record indices,
                # output cells, answer values and aggregate markers.
                assert memoized == plain

    @given(table_and_query)
    @SETTINGS
    def test_memoization_covers_every_subquery(self, pair):
        table, query = pair
        executor = MemoizedExecutor(table)
        try:
            executor.execute(query)
        except DCSError:
            return
        for node in query.walk():
            assert to_sexpr(node) in executor.memo


@st.composite
def degenerate_tables(draw):
    """Tables stressing the index's corner cases: NaN numbers, empty and
    numeric strings, bare-year dates, and heavily duplicated values."""
    from repro.tables.values import DateValue, NumberValue

    num_rows = draw(st.integers(min_value=1, max_value=8))
    pool = [
        "x", "X ", "", "1896", "2,000", "$5", NumberValue(float("nan")),
        NumberValue(5.0), 1896, DateValue(1896), DateValue(2013, 6, 8),
        "June 8, 2013", 0, -3.5,
    ]
    rows = [
        [draw(st.sampled_from(pool)), draw(st.sampled_from(pool))]
        for _ in range(num_rows)
    ]
    return Table(columns=["A", "B"], rows=rows, name="degenerate")


@st.composite
def degenerate_queries(draw):
    from repro.tables.values import DateValue, NumberValue

    column = draw(st.sampled_from(["A", "B"]))
    target = draw(
        st.sampled_from(
            ["x", "", "1896", 1896, 5, NumberValue(float("nan")),
             DateValue(1896), DateValue(2013, 6, 8), "June 8, 2013"]
        )
    )
    op = draw(st.sampled_from([">", ">=", "<", "<=", "!="]))
    choice = draw(st.integers(min_value=0, max_value=4))
    if choice == 0:
        return q.column_records(column, target)
    if choice == 1:
        return q.comparison_records(column, op, target)
    if choice == 2:
        return q.argmax_records(column)
    if choice == 3:
        return q.most_common(column)
    return q.argmin_records(column, q.comparison_records(column, op, target))


class TestIndexedExecutionProperties:
    """The indexed executor is bit-identical to the row-scan path (ISSUE 2)."""

    @staticmethod
    def _assert_identical(table, query):
        try:
            scan = Executor(table, use_index=False).execute(query)
            scan_error = None
        except DCSError as error:
            scan, scan_error = None, error
        try:
            indexed = Executor(table, use_index=True).execute(query)
        except DCSError as error:
            assert scan_error is not None, (
                f"indexed raised but the scan path succeeded: {error}"
            )
            assert type(error) is type(scan_error)
            assert str(error) == str(scan_error)
        else:
            assert scan_error is None, (
                f"scan raised {scan_error} but indexed succeeded"
            )
            # Full ExecutionResult equality: kind, record indices, output
            # cells (order included), answer values and aggregate markers.
            assert indexed == scan

    @given(table_and_query)
    @SETTINGS
    def test_indexed_equals_scan_on_regular_tables(self, pair):
        table, query = pair
        self._assert_identical(table, query)

    @given(degenerate_tables().flatmap(
        lambda table: st.tuples(st.just(table), degenerate_queries())
    ))
    @SETTINGS
    def test_indexed_equals_scan_on_degenerate_tables(self, pair):
        table, query = pair
        self._assert_identical(table, query)

    @given(table_and_query)
    @SETTINGS
    def test_memoized_indexed_executor_matches_scan(self, pair):
        """The production stack — memoization over the index — still equals
        the plain scan executor."""
        table, query = pair
        try:
            expected = Executor(table, use_index=False).execute(query)
        except DCSError:
            return
        assert MemoizedExecutor(table).execute(query) == expected


# ---------------------------------------------------------------------------
# provenance / explanation properties
# ---------------------------------------------------------------------------


class TestProvenanceProperties:
    @given(table_and_query)
    @SETTINGS
    def test_chain_is_always_ordered(self, pair):
        table, query = pair
        try:
            provenance = compute_provenance(query, table)
        except DCSError:
            return
        assert provenance.chain_is_ordered()

    @given(table_and_query)
    @SETTINGS
    def test_highlights_stay_inside_query_columns(self, pair):
        table, query = pair
        try:
            highlighted = highlight(query, table)
        except DCSError:
            return
        allowed = set(query.columns())
        for (row, column), level in highlighted.levels.items():
            if level != HighlightLevel.NONE:
                assert column in allowed

    @given(table_and_query)
    @SETTINGS
    def test_output_cells_are_subset_of_colored_or_framed(self, pair):
        table, query = pair
        try:
            highlighted = highlight(query, table)
        except DCSError:
            return
        for cell in highlighted.provenance.output.cells:
            assert highlighted.level(cell.row_index, cell.column) == HighlightLevel.COLORED


class TestUtteranceProperties:
    @given(table_and_query)
    @SETTINGS
    def test_every_query_has_an_utterance(self, pair):
        _table, query = pair
        text = utterance(query)
        assert isinstance(text, str) and len(text) > 0

    @given(table_and_query)
    @SETTINGS
    def test_utterance_mentions_every_column(self, pair):
        _table, query = pair
        text = utterance(query)
        for column in query.columns():
            assert column in text


# ---------------------------------------------------------------------------
# knowledge-base / index parity properties
# ---------------------------------------------------------------------------


_KB_PROBES = [
    "x", "", "1896", "2,000", "$5", 1896, 5, 0, -3.5,
    "June 8, 2013", "nope",
]


class TestKnowledgeBaseIndexParity:
    """ISSUE 3: ``KnowledgeBase.records_with_value`` obeys the same
    ``values_equal`` contract as the ``TableIndex`` equality lookups —
    every record whose cell matches is returned, cross-type bridges
    included, on tables with NaN/empty/duplicate/mixed-type cells."""

    @given(
        degenerate_tables().flatmap(
            lambda table: st.tuples(
                st.just(table),
                st.sampled_from(["A", "B"]),
                st.sampled_from(_KB_PROBES),
            )
        )
    )
    @SETTINGS
    def test_kb_matches_index_and_scan(self, example):
        from repro.tables import KnowledgeBase, table_index
        from repro.tables.values import NumberValue as NV

        table, column, raw = example
        probe = parse_value(raw)
        brute = frozenset(
            record.index
            for record in table.records
            if values_equal(record.value(column), probe)
        )
        kb = KnowledgeBase(table)
        assert kb.records_with_value(column, probe) == brute

        # The index contract: a superset of candidates that survives a
        # values_equal re-check down to exactly the brute-force set.
        candidates = table_index(table).column(column).equality_candidates(probe)
        rechecked = frozenset(
            row
            for row in candidates
            if values_equal(table.column_cells(column)[row].value, probe)
        )
        assert rechecked == brute

    @given(
        degenerate_tables().flatmap(
            lambda table: st.tuples(st.just(table), st.sampled_from(["A", "B"]))
        )
    )
    @SETTINGS
    def test_kb_nan_probe_matches_nothing(self, example):
        from repro.tables import KnowledgeBase
        from repro.tables.values import NumberValue as NV

        table, column = example
        assert KnowledgeBase(table).records_with_value(
            column, NV(float("nan"))
        ) == frozenset()


# ---------------------------------------------------------------------------
# SQL-oracle hardening: Difference / Aggregate / MostCommonValue
# ---------------------------------------------------------------------------


@st.composite
def difference_queries(draw, table):
    """Both :class:`Difference` flavours over random operand records."""
    names = [value.display() for value in table.column_values("Name")]
    left = draw(st.sampled_from(names))
    right = draw(st.sampled_from(names))
    if draw(st.booleans()):
        column = draw(st.sampled_from(["Score", "Total"]))
        return q.value_difference(column, "Name", left, right)
    return q.count_difference("Name", left, right)


@st.composite
def aggregate_queries(draw, table):
    """Every :class:`Aggregate` kind over random VALUES restrictions."""
    column = draw(st.sampled_from(["Score", "Total"]))
    category = draw(
        st.sampled_from([value.display() for value in table.column_values("Category")])
    )
    threshold = draw(st.integers(min_value=0, max_value=50))
    records = draw(
        st.sampled_from(
            [
                q.all_records(),
                q.column_records("Category", category),
                q.comparison_records(column, ">", threshold),
                q.comparison_records(column, "<=", threshold),
            ]
        )
    )
    kind = draw(st.sampled_from(["count", "max", "min", "sum", "avg"]))
    if kind == "count":
        return q.count(records)
    builder_fn = {"max": q.max_, "min": q.min_, "sum": q.sum_, "avg": q.avg}[kind]
    return builder_fn(q.column_values(column, records))


@st.composite
def most_common_queries(draw, table):
    """:class:`MostCommonValue`, unrestricted and over sub-VALUES."""
    column = draw(st.sampled_from(["Category", "Name"]))
    if draw(st.booleans()):
        return q.most_common(column)
    threshold = draw(st.integers(min_value=0, max_value=50))
    numeric = draw(st.sampled_from(["Score", "Total"]))
    return q.most_common(
        column,
        q.column_values(column, q.comparison_records(numeric, ">=", threshold)),
    )


def _oracle_pairs(strategy_fn):
    return tables().flatmap(
        lambda table: st.tuples(st.just(table), strategy_fn(table))
    )


class TestOracleHardeningProperties:
    """`to_sql` agrees with the DCS executor on the operators whose SQL
    shapes are the least direct: ``Difference`` (two correlated scalar
    subqueries), ``Aggregate`` (empty-set and NULL conventions differ
    between sqlite and the executor and must be papered over in the
    translation), and ``MostCommonValue`` (GROUP BY + ORDER BY with the
    executor's first-appearance tie-break)."""

    @given(_oracle_pairs(difference_queries))
    @SETTINGS
    def test_difference_matches_sql(self, pair):
        table, query = pair
        try:
            report = check_equivalence(query, table)
        except DCSError:
            return
        assert report.equivalent, report.detail

    @given(_oracle_pairs(aggregate_queries))
    @SETTINGS
    def test_aggregate_matches_sql(self, pair):
        table, query = pair
        try:
            report = check_equivalence(query, table)
        except DCSError:
            return
        assert report.equivalent, report.detail

    @given(_oracle_pairs(most_common_queries))
    @SETTINGS
    def test_most_common_matches_sql(self, pair):
        table, query = pair
        try:
            report = check_equivalence(query, table)
        except DCSError:
            return
        assert report.equivalent, report.detail
