"""Unit tests for typed cell values and parsing."""

import math

import pytest

from repro.tables.values import (
    DateValue,
    NumberValue,
    StringValue,
    ValueError_,
    parse_date,
    parse_number,
    parse_value,
    values_equal,
)


class TestStringValue:
    def test_equality_is_case_insensitive(self):
        assert StringValue("Athens") == StringValue("athens")

    def test_equality_ignores_extra_whitespace(self):
        assert StringValue("  New   Caledonia ") == StringValue("New Caledonia")

    def test_hash_consistent_with_equality(self):
        assert hash(StringValue("Fiji")) == hash(StringValue("FIJI"))

    def test_display_preserves_original_text(self):
        assert StringValue("Rio de Janeiro").display() == "Rio de Janeiro"

    def test_not_numeric(self):
        assert not StringValue("Athens").is_numeric
        with pytest.raises(ValueError_):
            StringValue("Athens").as_number()


class TestNumberValue:
    def test_integral_display_has_no_decimal_point(self):
        assert NumberValue(130.0).display() == "130"

    def test_fractional_display(self):
        assert NumberValue(2.5).display() == "2.5"

    def test_equality_uses_tolerance(self):
        assert NumberValue(0.1 + 0.2) == NumberValue(0.3)

    def test_as_number(self):
        assert NumberValue(42).as_number() == 42.0

    def test_ordering(self):
        assert NumberValue(4) < NumberValue(20)

    def test_a_negative_zero_is_stored_as_zero(self):
        """``-0`` displays as ``0``, so a table read back from its display
        must hold the same float, or its fingerprint would change."""
        value = parse_value("-0.0")
        assert value.display() == "0"
        assert math.copysign(1.0, value.number) == 1.0
        assert math.copysign(1.0, NumberValue(-0.0).number) == 1.0


class TestDateValue:
    def test_requires_at_least_one_component(self):
        with pytest.raises(ValueError_):
            DateValue()

    def test_rejects_bad_month(self):
        with pytest.raises(ValueError_):
            DateValue(year=2004, month=13)

    def test_rejects_bad_day(self):
        with pytest.raises(ValueError_):
            DateValue(year=2004, month=5, day=42)

    def test_bare_year_is_numeric(self):
        assert DateValue(year=1896).is_numeric
        assert DateValue(year=1896).as_number() == 1896.0

    def test_full_date_is_not_numeric(self):
        assert not DateValue(year=2013, month=6, day=8).is_numeric

    def test_display_formats(self):
        assert DateValue(year=2013, month=6, day=8).display() == "2013-06-08"
        assert DateValue(year=1896).display() == "1896"

    def test_ordering_by_components(self):
        assert DateValue(year=1896) < DateValue(year=1900)
        assert DateValue(year=2013, month=5) < DateValue(year=2013, month=6, day=8)


class TestParseNumber:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1234", 1234.0),
            ("1,234", 1234.0),
            ("$150,000", 150000.0),
            ("42%", 42.0),
            ("-7", -7.0),
            ("3.14", 3.14),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_number(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["Athens", "", "4th Round", "12-3", "1 234 567 m"])
    def test_rejects(self, text):
        assert parse_number(text) is None


class TestParseDate:
    def test_iso_date(self):
        assert parse_date("2013-06-08") == DateValue(2013, 6, 8)

    def test_iso_year_month(self):
        assert parse_date("2013-06") == DateValue(2013, 6)

    def test_textual_date(self):
        assert parse_date("June 8, 2013") == DateValue(2013, 6, 8)

    def test_day_month_year(self):
        assert parse_date("8 June 2013") == DateValue(2013, 6, 8)

    def test_rejects_nonsense_month(self):
        assert parse_date("Juni 8, 2013") is None

    def test_rejects_out_of_range(self):
        assert parse_date("2013-13-08") is None

    def test_rejects_plain_text(self):
        assert parse_date("Athens") is None


class TestParseValue:
    def test_existing_value_passes_through(self):
        value = NumberValue(5)
        assert parse_value(value) is value

    def test_none_becomes_empty_string(self):
        assert parse_value(None) == StringValue("")

    def test_int_becomes_number(self):
        assert parse_value(42) == NumberValue(42)

    def test_year_becomes_number_by_default(self):
        assert parse_value("1896") == NumberValue(1896)

    def test_year_becomes_date_when_preferred(self):
        assert parse_value("1896", prefer_date_for_years=True) == DateValue(year=1896)

    def test_textual_date_detected(self):
        assert parse_value("June 8, 2013") == DateValue(2013, 6, 8)

    def test_currency_detected(self):
        assert parse_value("$150,000") == NumberValue(150000)

    def test_plain_text_falls_back_to_string(self):
        assert parse_value("Did not qualify") == StringValue("Did not qualify")

    def test_bool_is_not_treated_as_number(self):
        assert parse_value(True) == StringValue("True")


class TestValuesEqual:
    def test_same_type(self):
        assert values_equal(StringValue("Fiji"), StringValue("fiji"))

    def test_string_number_cross_type(self):
        assert values_equal(StringValue("2004"), NumberValue(2004))
        assert values_equal(NumberValue(2004), StringValue("2004"))

    def test_string_date_cross_type(self):
        assert values_equal(StringValue("June 8, 2013"), DateValue(2013, 6, 8))

    def test_number_vs_year_date(self):
        assert values_equal(NumberValue(1896), DateValue(year=1896))

    def test_non_numeric_string_never_equals_number(self):
        assert not values_equal(StringValue("Athens"), NumberValue(3))

    def test_unequal_numbers(self):
        assert not values_equal(NumberValue(4), NumberValue(5))

    def test_text_vs_full_date_mismatch(self):
        assert not values_equal(StringValue("Athens"), DateValue(2013, 6, 8))


class TestNumberValueHashEqualityInvariant:
    """ISSUE 3: ``a == b`` must imply ``hash(a) == hash(b)``.

    The seed compared with ``math.isclose`` (rel+abs tolerance) but hashed
    ``round(number, 9)``, so equal values could hash apart and silently
    miss dict/set/index lookups.  Equality and hash now share one
    quantized bucket.
    """

    def test_seed_counterexample(self):
        # isclose(5e-10, 1.4e-9, abs_tol=1e-9) was True while the rounded
        # hashes differed — the exact mismatch the seed shipped.
        a, b = NumberValue(5e-10), NumberValue(1.4e-9)
        if a == b:
            assert hash(a) == hash(b)

    def test_float_noise_still_equal(self):
        assert NumberValue(0.1 + 0.2) == NumberValue(0.3)
        assert hash(NumberValue(0.1 + 0.2)) == hash(NumberValue(0.3))

    def test_dict_lookup_respects_equality(self):
        index = {NumberValue(0.3): "hit"}
        assert index[NumberValue(0.1 + 0.2)] == "hit"

    def test_nan_is_never_equal(self):
        nan = float("nan")
        assert NumberValue(nan) != NumberValue(nan)
        hash(NumberValue(nan))  # hashable regardless

    def test_infinities(self):
        assert NumberValue(float("inf")) == NumberValue(float("inf"))
        assert hash(NumberValue(float("inf"))) == hash(NumberValue(float("inf")))
        assert NumberValue(float("inf")) != NumberValue(float("-inf"))

    def test_equality_is_transitive_on_the_grid(self):
        # Tolerance-based equality was not transitive; bucket equality is.
        a, b, c = NumberValue(1.0), NumberValue(1.0 + 4e-10), NumberValue(1.0 + 8e-10)
        if a == b and b == c:
            assert a == c

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12, 1e300])
    def test_invariant_over_magnitudes(self, scale):
        import random

        rng = random.Random(2019)
        values = [NumberValue(rng.uniform(-1, 1) * scale) for _ in range(80)]
        # Seed perturbed near-duplicates to stress the bucket boundaries.
        values += [NumberValue(v.number + rng.uniform(-2e-9, 2e-9)) for v in values]
        for left in values:
            for right in values:
                if left == right:
                    assert hash(left) == hash(right), (left.number, right.number)


class TestParseNumberGroupings:
    """ISSUE 3: thousands separators must sit on real group boundaries."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1,234", 1234.0),
            ("12,345", 12345.0),
            ("$1,000,000", 1000000.0),
            ("1,234.56", 1234.56),
            ("-1,234", -1234.0),
            ("1,234%", 1234.0),
            ("1234567", 1234567.0),
        ],
    )
    def test_well_formed(self, text, expected):
        assert parse_number(text) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "text",
        ["1,2,3", "12,34", "1,23", "1234,567", ",123", "1,", "$1,0000", "1,234,56"],
    )
    def test_malformed_groupings_stay_non_numeric(self, text):
        assert parse_number(text) is None

    def test_malformed_cells_become_strings(self):
        assert parse_value("1,2,3") == StringValue("1,2,3")
        assert parse_value("12,34") == StringValue("12,34")

    def test_grid_overflow_domain_never_collides_with_the_grid(self):
        # round(2e290 * 1e9) is a finite grid integer equal in value to
        # the float 2e299, whose own bucket lives in the overflow domain;
        # the domains must stay disjoint or the two numbers alias.
        assert NumberValue(2e290) != NumberValue(2e299)
        assert NumberValue(2e299) == NumberValue(2e299)
        assert hash(NumberValue(2e299)) == hash(NumberValue(2e299))
