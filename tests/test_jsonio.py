"""Canonical JSON emission: the exact text of small values and the refusals."""

import json
import math
import sys

import numpy as np
import pytest

from unlattice import jsonio
from unlattice.errors import ValidationError

NESTED = {"a": [1.0, {"b": (), "c": {}}], "d": (True, None, -3, "x\"\né")}


@pytest.mark.parametrize("obj, indent, text", [
    ({}, 0, "{}"),
    ([], 2, "[]"),
    ((), 2, "[]"),
    ((1, 2.5), 0, "[1, 2.5]"),
    ([True, False, None, 7, 1e16, -0.0, 0.1], 0,
     "[true, false, null, 7, 10000000000000000.0, -0.0, 0.10000000000000001]"),
    ("tab\there \"q\" ☃", 0, '"tab\\there \\"q\\" \\u2603"'),
    (NESTED, 0, '{"a": [1.0, {"b": [], "c": {}}], "d": [true, null, -3, "x\\"\\n\\u00e9"]}'),
    (NESTED, 2, '{\n  "a": [\n    1.0,\n    {\n      "b": [],\n      "c": {}\n    }\n  ],\n'
                '  "d": [\n    true,\n    null,\n    -3,\n    "x\\"\\n\\u00e9"\n  ]\n}'),
    ({"k": [[1]]}, 1, '{\n "k": [\n  [\n   1\n  ]\n ]\n}'),
])
def test_emitted_text(obj, indent, text):
    assert jsonio.dumps(obj, indent=indent) == text


@pytest.mark.parametrize("x, text", [
    (1e16, "10000000000000000.0"),
    (-1e16, "-10000000000000000.0"),
    (9.999999999999999e16, "99999999999999984.0"),
    (1e17, "1e+17"),
    # past 1e17, and the smallest subnormal: the 17-digit form
    (1e300, "1.0000000000000001e+300"),
    (-1e300, "-1.0000000000000001e+300"),
    (5e-324, "4.9406564584124654e-324"),
])
def test_integral_floats_read_back_as_floats(x, text):
    assert jsonio.dumps(x) == text
    back = json.loads(text)
    assert type(back) is float and back == x


@pytest.mark.parametrize("obj, message", [
    ({1: 2.0}, "JSON object keys must be strings"),
    ([1.0, math.nan], "reports may not contain NaN or infinities"),
    ({"a": -math.inf}, "reports may not contain NaN or infinities"),
    ({"a": {1.5}}, "cannot serialize set"),
    ([object()], "cannot serialize object"),
])
def test_refusals(obj, message):
    for indent in (0, 2):
        with pytest.raises(ValidationError, match=message):
            jsonio.dumps(obj, indent=indent)


# -- the column path: lists and tuples of exactly float, or of exactly str --

MIN_NORMAL = sys.float_info.min
EDGES = [0.0, -0.0, 1e16, 9.999999999999998e16, 1e17, -1e17, 5e-324, MIN_NORMAL,
         sys.float_info.max, -sys.float_info.max, 2.0 ** 53 - 2, 2.0 ** 53 + 2, 1e15 + 0.5]


def per_value(xs, indent: int) -> str:
    """The text of the list ``xs`` of floats item by item, as the per-item
    path renders it: each through ``_fmt_float``."""
    if not xs:
        return "[]"
    inner = "\n" + " " * indent if indent else ""
    return ("[" + inner + ("," + inner if inner else ", ").join(map(jsonio._fmt_float, xs))
            + ("\n" if indent else "") + "]")


def difference(got: str, expected: str) -> str | None:
    """None when the texts are equal, else where they first differ (a
    short message: pytest's diff of two long texts takes minutes)."""
    if got == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
              min(len(got), len(expected)))
    return f"at {at}: {got[at - 30:at + 30]!r} != {expected[at - 30:at + 30]!r}"


def columns():
    rng = np.random.default_rng(26)
    mixed = rng.standard_normal(4096) * 10.0 ** rng.integers(-320, 300, 4096)
    mixed[::7] = np.round(mixed[::7] * 1e-290)  # integral values, 0.0 and -0.0 among them
    yield "edges", EDGES
    yield "empty", []
    yield "one", [1e15 + 0.5]
    yield "two", [2.0 ** 53 + 2, -0.0]
    yield "4096", mixed.tolist()


@pytest.mark.parametrize("indent", [0, 1, 2])
@pytest.mark.parametrize("name, xs", list(columns()), ids=[name for name, _ in columns()])
def test_a_float_column_is_its_values_text(name, xs, indent):
    expected = per_value(xs, indent)
    assert not difference(jsonio.dumps(xs, indent=indent), expected)
    assert not difference(jsonio.dumps(tuple(xs), indent=indent), expected)
    # nested one level down, at the depth of a report's values
    nested = jsonio.dumps({"values": xs}, indent=indent)
    assert json.loads(nested) == {"values": xs}
    assert not difference(nested, jsonio.dumps({"values": [_Float(x) for x in xs]},
                                                indent=indent))


class _Float(float):
    """A float that is not exactly ``float``: the per-item path."""


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 2048, 4095])
def test_a_float_column_refuses_a_value_that_is_not_finite(bad, at):
    xs = [0.5] * 4096
    xs[at] = bad
    for indent in (0, 2):
        with pytest.raises(ValidationError, match="^reports may not contain NaN or infinities$"):
            jsonio.dumps({"values": xs}, indent=indent)


@pytest.mark.parametrize("xs, text", [
    ([1.0, True, 2.5], "[1.0, true, 2.5]"),
    ([1.0, 2, 2.5], "[1.0, 2, 2.5]"),
    ([1.0, np.float64(2.0), np.float64(0.1)], "[1.0, 2.0, 0.10000000000000001]"),
    ([0.5, [1.0, 1e17], ()], "[0.5, [1.0, 1e+17], []]"),
    (("a", 1.0), '["a", 1.0]'),
    (["1", 2], '["1", 2]'),
])
def test_mixed_lists_keep_the_per_item_text(xs, text):
    assert jsonio._column(xs, ", ") is None  # the per-item path
    assert jsonio.dumps(xs) == text


@pytest.mark.parametrize("indent", [0, 1, 2])
def test_a_string_column_is_escaped_item_by_item(indent):
    labels = ["1", "", 'q"uote', "back\\slash", "tab\t", "line\n", "é", "☃", "\x00", "𝄞"]
    for xs in (labels, tuple(labels), ["17"]):
        text = jsonio.dumps(xs, indent=indent)
        inner = "\n" + " " * indent if indent else ""
        sep = "," + inner if inner else ", "
        assert text == "[" + inner + sep.join(json.dumps(s) for s in xs) + (
            "\n" if indent else "") + "]"
        assert json.loads(text) == list(xs)
