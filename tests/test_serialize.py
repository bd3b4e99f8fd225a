import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conefourier.errors import MalformedInputError
from conefourier.serialize import _EXPONENT, format_json, parse_rational

# --- the indented JSON writer -------------------------------------------------

# characters that json escapes or passes through as they are, beside any others
SPECIAL_CHARACTERS = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "\udfff", "😀"])
strings = st.text(st.one_of(SPECIAL_CHARACTERS, st.characters(exclude_categories=())), max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324]),
    strings,
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300)
@given(values)
@example([[], {}, (), [[]], {"": {}}])
@example({"\ud800": ["\udfff", -0.0, math.nan, math.inf, -math.inf, 2**64, True, None]})
def test_writer_equals_json_dumps(value):
    assert format_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1}, [1, Fraction(3)], {"a": [{"b": {2}}]}, (object(),)])
def test_writer_raises_json_type_error(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as raised:
        format_json(value)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("key", [1, 2.5, True, None])
def test_writer_refuses_keys_that_are_not_strings(key):
    """json converts these keys to strings; the writer's values have
    string keys only, so it refuses the others."""
    json.dumps({key: 1}, indent=2)
    with pytest.raises(TypeError):
        format_json({key: 1})


# --- the integer fast path of parse_rational -----------------------------------


def regex_parse(value: str) -> Fraction:
    """parse_rational on a string, without its integer fast path: Fraction's
    own parser, with the exponent held to the digit limit."""
    try:
        exponent = _EXPONENT.search(value)
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"exponent {exponent[1]} exceeds the limit ({limit} digits)")
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as err:
        raise MalformedInputError(f"cannot parse rational {value!r}: {err}") from None


def outcome(parse, value):
    try:
        result = parse(value)
    except MalformedInputError as err:
        return "error", err.message
    return type(result), result


@settings(max_examples=300)
@given(st.text(st.sampled_from("0123456789-+ _/.eE\t١٣²１"), max_size=10))
@example("-4")
@example("007")
@example("-0")
@example("1_000")
@example("")
@example("-")
@example("--1")
@example("+1")
@example(" 1 ")
@example("١٢")
@example("1" * 4301)
@example("-" + "1" * 4301)
@example("3/0")
@example("1e4301")
def test_parse_rational_equals_the_regex_path(value):
    assert outcome(parse_rational, value) == outcome(regex_parse, value)
