"""Canonical JSON emission: the exact text of small values and the refusals."""

import json
import math

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
