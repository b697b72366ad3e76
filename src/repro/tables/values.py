"""Typed cell values for web tables.

The paper's data model (Section 3.1) allows table cells to hold strings,
numbers or dates.  Lambda DCS operators compare, aggregate and subtract
values, so every cell content is normalised into one of three value classes:

* :class:`StringValue` -- free text, compared case-insensitively,
* :class:`NumberValue` -- a float (possibly extracted from text such as
  ``"$150,000"`` or ``"130 medals"``),
* :class:`DateValue`  -- a (year, month, day) triple with partial dates
  allowed (e.g. a bare year ``2004``).

The :func:`parse_value` helper mirrors the normalisation performed by the
WikiTableQuestions preprocessing: it attempts date parsing, then numeric
parsing, and falls back to a string value.

Values, like the cells, records and fingerprints built on them, are frozen
slotted dataclasses: an instance holds its fields in slots, with no
attribute dict, and pickles as its field tuple (:func:`pickles_as_fields`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import total_ordering
from operator import attrgetter
from typing import Optional, Tuple, Union


class ValueError_(Exception):
    """Raised when a value cannot be interpreted in the requested way."""


# ---------------------------------------------------------------------------
# the pickling rule of the slotted table model
# ---------------------------------------------------------------------------


def _restore(cls: type, state: Tuple) -> object:
    """Rebuild an instance from the field tuple its ``__reduce__`` shipped.

    Sets each slot in field order and runs neither ``__init__`` nor
    ``__post_init__``: the fields were normalised and validated when the
    original was built, so a restore trusts them as pickled.  A field
    declared ``init=False`` is not in the tuple, and its slot stays unset
    for the class to derive on first read.
    """
    instance = object.__new__(cls)
    for set_field, value in zip(cls._field_setters, state):
        set_field(instance, value)
    return instance


def _refuse_state(self, state) -> None:
    raise TypeError(
        f"{type(self).__name__} pickles as a field tuple; refusing a "
        f"{type(state).__name__} state written by an older, dict-backed layout"
    )


def pickles_as_fields(cls: type) -> type:
    """Give a frozen slotted dataclass the table model's one pickling rule.

    ``__reduce__`` returns the field tuple (read through
    :func:`operator.attrgetter`) and :func:`_restore` sets it back
    through the slots' own descriptors.  The dataclass default for a
    frozen slotted class pickles through a Python ``fields()`` loop
    instead, about twice as slow to dump and to load a list of tables.
    The price against the dict-backed classes: a Python restore per
    object where a dict state was set in C, so a slotted pickle still
    loads more slowly (a full-parse process reply about 1.2 times as
    slowly, with the collector paused on both sides).

    ``__setstate__`` refuses every state.  Only a pickle of the old
    dict-backed classes carries one, and the dataclass default would load
    it without error by zipping the dict's *keys* into the fields
    (``Cell.value == 'value'``); refusing makes such a pickle fail to load,
    so a disk cache counts it as an unreadable entry, never as a hit.

    The tuple holds the ``__init__`` fields (``__match_args__``): a class
    with none, such as :class:`~repro.dcs.ast.AllRecords`, pickles as the
    empty tuple, and an ``init=False`` field is never pickled.
    """
    names = cls.__match_args__
    if not names:

        def read(instance) -> Tuple:
            return ()

    elif len(names) == 1:
        read_one = attrgetter(names[0])

        def read(instance) -> Tuple:
            return (read_one(instance),)

    else:
        read = attrgetter(*names)

    def __reduce__(self):
        return _restore, (type(self), read(self))

    cls.__reduce__ = __reduce__
    # Setting through the descriptors skips the frozen ``__setattr__`` and
    # a per-field name lookup: about a fifth of a slotted reply's load time.
    cls._field_setters = tuple(getattr(cls, name).__set__ for name in names)
    cls.__setstate__ = _refuse_state
    return cls


@total_ordering
@dataclass(frozen=True, slots=True)
class Value:
    """Abstract base class for typed cell values.

    Values are immutable, hashable and totally ordered *within* the same
    type; comparisons across types fall back to a stable type ordering so
    that sorting mixed columns never raises.
    """

    def sort_key(self):
        raise NotImplementedError

    # -- ordering -----------------------------------------------------------
    def __lt__(self, other: "Value") -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    # -- numeric view -------------------------------------------------------
    @property
    def is_numeric(self) -> bool:
        return False

    def as_number(self) -> float:
        raise ValueError_(f"{self!r} is not numeric")

    def display(self) -> str:
        raise NotImplementedError


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class StringValue(Value):
    """A textual cell value.  Equality is case- and whitespace-insensitive."""

    text: str

    def __post_init__(self):
        object.__setattr__(self, "text", str(self.text))

    @property
    def normalized(self) -> str:
        return " ".join(self.text.strip().lower().split())

    def sort_key(self):
        return (2, self.normalized)

    def display(self) -> str:
        return self.text

    def __eq__(self, other):
        if isinstance(other, StringValue):
            return self.normalized == other.normalized
        return NotImplemented

    def __hash__(self):
        return hash(("str", self.normalized))


#: Inverse granularity of the numeric equality grid: two numbers are equal
#: when they round to the same multiple of 1e-9.  Both ``__eq__`` and
#: ``__hash__`` derive from this one bucket, which is what makes the
#: ``a == b  ⇒  hash(a) == hash(b)`` invariant hold by construction (the
#: seed's ``math.isclose`` equality was *wider* than its rounded hash, so
#: equal values could hash apart and silently miss dict/set/index lookups).
_NUMBER_QUANTUM_INV = 10 ** 9


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class NumberValue(Value):
    """A numeric cell value (stored as a float).

    Equality is quantized: numbers are compared on a 1e-9 grid (see
    :data:`_NUMBER_QUANTUM_INV`), which absorbs float arithmetic noise
    (``0.1 + 0.2 == 0.3``) while staying transitive and consistent with
    ``__hash__`` — unlike tolerance-based ``isclose`` equality, which no
    hash function can be consistent with.
    """

    number: float

    def __post_init__(self):
        # -0.0 + 0.0 is 0.0: a zero read back from its display "0" is the same float.
        object.__setattr__(self, "number", float(self.number) + 0.0)

    @property
    def is_numeric(self) -> bool:
        return True

    def as_number(self) -> float:
        return self.number

    def sort_key(self):
        return (0, self.number)

    def display(self) -> str:
        if math.isfinite(self.number) and float(self.number).is_integer():
            return str(int(self.number))
        return str(self.number)

    def _bucket(self):
        """The quantized equality key shared by ``__eq__`` and ``__hash__``."""
        scaled = self.number * _NUMBER_QUANTUM_INV
        if math.isinf(scaled):
            # Either the number itself is infinite or it is too large for
            # the grid; at that magnitude the grid is finer than float
            # spacing anyway, so exact identity is the right bucket.  The
            # tag keeps this domain disjoint from the grid's integers —
            # round(n * 1e9) of a smaller number must never collide with
            # the raw float of one 1e9 times larger.
            return ("xl", self.number)
        return round(scaled)

    def __eq__(self, other):
        if isinstance(other, NumberValue):
            if math.isnan(self.number) or math.isnan(other.number):
                return False
            return self._bucket() == other._bucket()
        return NotImplemented

    def __hash__(self):
        if math.isnan(self.number):
            return hash(("num", "nan"))
        return hash(("num", self._bucket()))


@pickles_as_fields
@dataclass(frozen=True, slots=True)
class DateValue(Value):
    """A (possibly partial) date value.

    Missing components are ``None``; a bare year such as ``1896`` is a valid
    date value (``DateValue(1896)``).  Ordering treats missing components as
    the smallest possible value so that ``1896`` sorts before ``1896-04-06``.
    """

    year: Optional[int] = None
    month: Optional[int] = None
    day: Optional[int] = None

    def __post_init__(self):
        if self.year is None and self.month is None and self.day is None:
            raise ValueError_("a DateValue needs at least one component")
        if self.month is not None and not 1 <= self.month <= 12:
            raise ValueError_(f"month out of range: {self.month}")
        if self.day is not None and not 1 <= self.day <= 31:
            raise ValueError_(f"day out of range: {self.day}")

    @property
    def is_numeric(self) -> bool:
        # A bare year behaves like a number for aggregation/difference.
        return self.month is None and self.day is None and self.year is not None

    def as_number(self) -> float:
        if self.year is None:
            raise ValueError_("date without a year has no numeric view")
        return float(self.year)

    def sort_key(self):
        return (
            1,
            self.year if self.year is not None else -math.inf,
            self.month if self.month is not None else 0,
            self.day if self.day is not None else 0,
        )

    def display(self) -> str:
        parts = []
        if self.year is not None:
            parts.append(f"{self.year:04d}")
        if self.month is not None:
            parts.append(f"{self.month:02d}")
        if self.day is not None:
            parts.append(f"{self.day:02d}")
        return "-".join(parts)

    def __eq__(self, other):
        if isinstance(other, DateValue):
            return (self.year, self.month, self.day) == (other.year, other.month, other.day)
        return NotImplemented

    def __hash__(self):
        return hash(("date", self.year, self.month, self.day))


RawValue = Union[Value, str, int, float, None]

_MONTH_NAMES = {
    "january": 1, "jan": 1,
    "february": 2, "feb": 2,
    "march": 3, "mar": 3,
    "april": 4, "apr": 4,
    "may": 5,
    "june": 6, "jun": 6,
    "july": 7, "jul": 7,
    "august": 8, "aug": 8,
    "september": 9, "sep": 9, "sept": 9,
    "october": 10, "oct": 10,
    "november": 11, "nov": 11,
    "december": 12, "dec": 12,
}

# Thousands separators must delimit groups of exactly three digits after a
# 1-3 digit leading group ("1,234", "$1,000,000").  The seed's permissive
# ``[\d,]+`` silently read malformed groupings such as ``"1,2,3"`` or
# ``"12,34"`` as numbers; those cells now stay strings.
_NUMBER_RE = re.compile(r"^[+-]?\$?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?%?$")
_ISO_DATE_RE = re.compile(r"^(\d{4})-(\d{1,2})(?:-(\d{1,2}))?$")
_TEXT_DATE_RE = re.compile(
    r"^(?P<month>[A-Za-z]+)\s+(?P<day>\d{1,2})\s*,?\s+(?P<year>\d{4})$"
)
_DAY_MONTH_YEAR_RE = re.compile(
    r"^(?P<day>\d{1,2})\s+(?P<month>[A-Za-z]+)\s+(?P<year>\d{4})$"
)
_YEAR_RE = re.compile(r"^\d{4}$")


def parse_number(text: str) -> Optional[float]:
    """Parse a numeric string such as ``"1,234"``, ``"$150,000"`` or ``"42%"``.

    Returns ``None`` when the text is not numeric, including texts with
    malformed thousands groupings (``"1,2,3"``, ``"12,34"``) — cells like
    those are identifiers or lists, not numbers.
    """
    candidate = text.strip()
    if not candidate or not _NUMBER_RE.match(candidate):
        return None
    cleaned = candidate.replace(",", "").replace("$", "").replace("%", "")
    try:
        return float(cleaned)
    except ValueError:
        return None


def parse_date(text: str) -> Optional[DateValue]:
    """Parse ISO (``2013-06-08``) and textual (``June 8, 2013``) dates."""
    candidate = text.strip()
    match = _ISO_DATE_RE.match(candidate)
    if match:
        year, month = int(match.group(1)), int(match.group(2))
        day = int(match.group(3)) if match.group(3) else None
        if 1 <= month <= 12 and (day is None or 1 <= day <= 31):
            return DateValue(year=year, month=month, day=day)
        return None
    for pattern in (_TEXT_DATE_RE, _DAY_MONTH_YEAR_RE):
        match = pattern.match(candidate)
        if match:
            month = _MONTH_NAMES.get(match.group("month").lower())
            if month is None:
                return None
            day = int(match.group("day"))
            if not 1 <= day <= 31:
                return None
            return DateValue(year=int(match.group("year")), month=month, day=day)
    return None


def parse_value(raw: RawValue, prefer_date_for_years: bool = False) -> Value:
    """Normalise a raw cell content into a typed :class:`Value`.

    Parameters
    ----------
    raw:
        A python object: an existing :class:`Value` (returned untouched),
        a number, or a string to be interpreted.
    prefer_date_for_years:
        When True, a bare four-digit string such as ``"1896"`` becomes a
        :class:`DateValue`; otherwise it becomes a :class:`NumberValue`.
    """
    if isinstance(raw, Value):
        return raw
    if raw is None:
        return StringValue("")
    if isinstance(raw, bool):
        return StringValue(str(raw))
    if isinstance(raw, (int, float)):
        if (
            prefer_date_for_years
            and float(raw).is_integer()
            and 1000 <= float(raw) <= 2999
        ):
            return DateValue(year=int(raw))
        return NumberValue(float(raw))
    text = str(raw)
    stripped = text.strip()
    if _YEAR_RE.match(stripped):
        if prefer_date_for_years:
            return DateValue(year=int(stripped))
        return NumberValue(float(stripped))
    date = parse_date(stripped)
    if date is not None:
        return date
    number = parse_number(stripped)
    if number is not None:
        return NumberValue(number)
    return StringValue(text)


def values_equal(left: Value, right: Value) -> bool:
    """Equality across value types.

    String/number cross-type comparison succeeds when the string parses to
    the same number (so the cell ``"2004"`` matches the constant ``2004``).
    A numeric :class:`DateValue` (bare year) also matches an equal number.
    """
    if type(left) is type(right):
        return left == right
    if isinstance(left, StringValue) and isinstance(right, (NumberValue, DateValue)):
        reparsed = parse_value(left.text)
        if isinstance(reparsed, StringValue):
            return False
        return values_equal(reparsed, right)
    if isinstance(right, StringValue) and isinstance(left, (NumberValue, DateValue)):
        reparsed = parse_value(right.text)
        if isinstance(reparsed, StringValue):
            return False
        return values_equal(left, reparsed)
    if left.is_numeric and right.is_numeric:
        return math.isclose(left.as_number(), right.as_number(), rel_tol=1e-9, abs_tol=1e-9)
    return False
