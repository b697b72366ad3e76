"""S-expression serialisation of lambda DCS queries.

The semantic-parsing literature (SEMPRE, Pasupat & Liang 2015) exchanges
lambda DCS formulas as s-expressions; this module does the same for the
reproduction so that queries can be logged, stored as dataset annotations
and round-tripped through text.

Grammar (informal)::

    query      := "(" head arg* ")"
    head       := operator name, e.g. column-records, aggregate, union ...
    arg        := query | string | number

Examples::

    (column-records "Country" (value "Greece"))
    (aggregate max (column-values "Year" (column-records "Country" (value "Greece"))))
    (difference (column-values "Total" (column-records "Nation" (value "Fiji")))
                (column-values "Total" (column-records "Nation" (value "Tonga"))))
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple, Union

from ..tables.values import DateValue, NumberValue, StringValue, Value, parse_value
from . import ast
from .ast import AggregateFunction, ComparisonOperator, Query, SuperlativeKind
from .errors import SexprError

Token = str
Atom = Union[str, float]
Node = Union[Atom, List["Node"]]

_TOKEN_RE = re.compile(r'\(|\)|"(?:[^"\\]|\\.)*"|[^\s()"]+')


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def to_sexpr(query: Query) -> str:
    """Serialise a query to its canonical s-expression string."""
    return compose_sexpr(query, [to_sexpr(child) for child in query.children()])


def compose_sexpr(query: Query, children: Sequence[str]) -> str:
    """``query``'s s-expression from its children's, in ``children()`` order.

    :func:`to_sexpr` is this applied bottom-up; a caller that already
    holds each child's string (the parser's per-call node facts) builds
    a node's string without re-walking its sub-trees.
    """
    for node_class in type(query).__mro__:
        template = _TEMPLATES.get(node_class)
        if template is not None:
            return template(query, *children)
    raise SexprError(f"cannot serialise {type(query).__name__}")


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _value_atom(value: Value) -> str:
    if isinstance(value, NumberValue):
        return value.display()
    if isinstance(value, DateValue):
        return _quote(value.display())
    return _quote(value.display())


#: Each node class's s-expression, given its children's.
_TEMPLATES = {
    ast.ValueLiteral: lambda query: f"(value {_value_atom(query.value)})",
    ast.AllRecords: lambda query: "(all-records)",
    ast.ColumnRecords: lambda query, value: (
        f"(column-records {_quote(query.column)} {value})"
    ),
    ast.ComparisonRecords: lambda query, value: (
        f"(comparison-records {_quote(query.column)} {query.op.value} {value})"
    ),
    ast.PrevRecords: lambda query, records: f"(prev-records {records})",
    ast.NextRecords: lambda query, records: f"(next-records {records})",
    ast.Intersection: lambda query, left, right: f"(intersection {left} {right})",
    ast.JoinRecords: lambda query, records: (
        f"(join-records {_quote(query.left_column)} "
        f"{_quote(query.right_column)} {records})"
    ),
    ast.Union: lambda query, left, right: f"(union {left} {right})",
    ast.SuperlativeRecords: lambda query, records: (
        f"(superlative-records {query.kind.value} {_quote(query.column)} {records})"
    ),
    ast.FirstLastRecords: lambda query, records: (
        f"(first-last-records {query.kind.value} {records})"
    ),
    ast.ColumnValues: lambda query, records: (
        f"(column-values {_quote(query.column)} {records})"
    ),
    ast.IndexSuperlative: lambda query, records: (
        f"(index-superlative {query.kind.value} {_quote(query.column)} {records})"
    ),
    ast.MostCommonValue: lambda query, values: (
        f"(most-common {query.kind.value} {_quote(query.column)} {values})"
    ),
    ast.CompareValues: lambda query, values: (
        f"(compare-values {query.kind.value} {_quote(query.key_column)} "
        f"{_quote(query.value_column)} {values})"
    ),
    ast.Aggregate: lambda query, operand: (
        f"(aggregate {query.function.value} {operand})"
    ),
    ast.Difference: lambda query, left, right: f"(difference {left} {right})",
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def from_sexpr(text: str) -> Query:
    """Parse an s-expression string back into a :class:`Query`."""
    tree, remainder = _read(_tokenize(text))
    if remainder:
        raise SexprError(f"trailing tokens after query: {remainder!r}")
    return _build(tree)


def _tokenize(text: str) -> List[Token]:
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise SexprError("empty s-expression")
    return tokens


def _read(tokens: Sequence[Token]) -> Tuple[Node, List[Token]]:
    if not tokens:
        raise SexprError("unexpected end of input")
    head, rest = tokens[0], list(tokens[1:])
    if head == "(":
        items: List[Node] = []
        while rest and rest[0] != ")":
            item, rest = _read(rest)
            items.append(item)
        if not rest:
            raise SexprError("missing closing parenthesis")
        return items, rest[1:]
    if head == ")":
        raise SexprError("unexpected closing parenthesis")
    return _atom(head), rest


def _atom(token: Token) -> Atom:
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return token


def _expect_list(node: Node, context: str) -> List[Node]:
    if not isinstance(node, list) or not node:
        raise SexprError(f"expected a list for {context}, got {node!r}")
    return node


def _string(node: Node, context: str) -> str:
    if isinstance(node, list):
        raise SexprError(f"expected a string for {context}, got a list")
    return str(node)


def _literal_value(atom: Node) -> Value:
    if isinstance(atom, list):
        raise SexprError(f"expected a literal value, got {atom!r}")
    return parse_value(atom)


def _superlative(token: Node, context: str) -> SuperlativeKind:
    name = _string(token, context)
    try:
        return SuperlativeKind(name)
    except ValueError:
        raise SexprError(f"unknown superlative kind {name!r}") from None


def _build(node: Node) -> Query:
    items = _expect_list(node, "query")
    head = _string(items[0], "operator")
    args = items[1:]

    def arity(n: int) -> None:
        if len(args) != n:
            raise SexprError(f"{head} expects {n} argument(s), got {len(args)}")

    if head == "value":
        arity(1)
        return ast.ValueLiteral(_literal_value(args[0]))
    if head == "all-records":
        if args:
            raise SexprError("all-records takes no arguments")
        return ast.AllRecords()
    if head == "column-records":
        arity(2)
        return ast.ColumnRecords(_string(args[0], "column"), _build(args[1]))
    if head == "comparison-records":
        arity(3)
        op_name = _string(args[1], "comparison operator")
        try:
            op = ComparisonOperator(op_name)
        except ValueError:
            raise SexprError(f"unknown comparison operator {op_name!r}") from None
        return ast.ComparisonRecords(_string(args[0], "column"), op, _build(args[2]))
    if head == "prev-records":
        arity(1)
        return ast.PrevRecords(_build(args[0]))
    if head == "next-records":
        arity(1)
        return ast.NextRecords(_build(args[0]))
    if head == "intersection":
        arity(2)
        return ast.Intersection(_build(args[0]), _build(args[1]))
    if head == "join-records":
        arity(3)
        return ast.JoinRecords(
            _string(args[0], "left column"),
            _string(args[1], "right column"),
            _build(args[2]),
        )
    if head == "union":
        arity(2)
        return ast.Union(_build(args[0]), _build(args[1]))
    if head == "superlative-records":
        arity(3)
        return ast.SuperlativeRecords(
            _superlative(args[0], "kind"), _string(args[1], "column"), _build(args[2])
        )
    if head == "first-last-records":
        arity(2)
        return ast.FirstLastRecords(_superlative(args[0], "kind"), _build(args[1]))
    if head == "column-values":
        arity(2)
        return ast.ColumnValues(_string(args[0], "column"), _build(args[1]))
    if head == "index-superlative":
        arity(3)
        return ast.IndexSuperlative(
            _superlative(args[0], "kind"), _string(args[1], "column"), _build(args[2])
        )
    if head == "most-common":
        arity(3)
        return ast.MostCommonValue(
            column=_string(args[1], "column"),
            values=_build(args[2]),
            kind=_superlative(args[0], "kind"),
        )
    if head == "compare-values":
        arity(4)
        return ast.CompareValues(
            kind=_superlative(args[0], "kind"),
            key_column=_string(args[1], "key column"),
            value_column=_string(args[2], "value column"),
            values=_build(args[3]),
        )
    if head == "aggregate":
        arity(2)
        function_name = _string(args[0], "aggregate function")
        try:
            function = AggregateFunction(function_name)
        except ValueError:
            raise SexprError(f"unknown aggregate function {function_name!r}") from None
        return ast.Aggregate(function, _build(args[1]))
    if head == "difference":
        arity(2)
        return ast.Difference(_build(args[0]), _build(args[1]))
    raise SexprError(f"unknown operator {head!r}")
