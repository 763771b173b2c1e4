"""Canonical JSON emission: fixed field order, 17-significant-digit floats.

Doubles round-trip exactly at 17 significant digits, so identical inputs
yield byte-identical reports regardless of platform.  Every report's bytes
rest on the two float forms of ``_specs``, so both stay: ``%.17g``, and
``%.1f`` for an integral value below 1e17, which is exact and keeps the
".0" that marks it as a float.  A report's long columns (values, limsup and
liminf, coordinate labels) are lists whose items are all exactly ``float``
or all exactly ``str``; each such list is rendered in one pass, floats with
one ``%``-operation over per-item specs, with the text the per-item path
gives.  Every other list (bools, ints, ``np.float64``, mixed or nested
items) takes the per-item path.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string

from .errors import ValidationError

_NOT_FINITE = "reports may not contain NaN or infinities"


def _specs(xs) -> list[str]:
    """The %-format of each finite float of ``xs`` in a report (a comprehension:
    a call per item would cost a column about 7 % more)."""
    # 17 digits at most: .1f is exact, and keeps ".0"
    return ["%.1f" if x.is_integer() and abs(x) < 1e17 else "%.17g" for x in xs]


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(_NOT_FINITE)
    return _specs((x,))[0] % x


def check_finite(xs) -> None:
    """Refuse the floats ``xs`` as ``_fmt_float`` refuses one of them."""
    if not all(map(math.isfinite, xs)):
        raise ValidationError(_NOT_FINITE)


def dumps(obj, indent: int = 0) -> str:
    """Serialize with insertion-ordered keys and canonical float formatting."""
    return _dumps(obj, "\n" if indent else "", " " * indent)


def _key(k) -> str:
    if not isinstance(k, str):
        raise ValidationError("JSON object keys must be strings")
    return _string(k)


def _column(xs, sep: str) -> list[str] | None:
    """The texts of the items of the list or tuple ``xs`` joined by ``sep``,
    as a one-item list, when they are all exactly ``float`` (each in the form
    ``_fmt_float`` picks) or all exactly ``str``; else None."""
    types = set(map(type, xs))
    if types == {float}:
        check_finite(xs)
        return [sep.join(_specs(xs)) % tuple(xs)]
    if types == {str}:
        return [sep.join(map(_string, xs))]
    return None


def _dumps(obj, nl: str, step: str) -> str:
    """The text of ``obj``; ``nl`` breaks a line at its depth ("" on one
    line) and ``step`` is one level of indentation."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = nl + step
    sep = "," + inner if inner else ", "
    if isinstance(obj, dict):
        texts, ends = [_key(k) + ": " + _dumps(v, inner, step) for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        texts, ends = _column(obj, sep) or [_dumps(v, inner, step) for v in obj], "[]"
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")
    if not texts:
        return ends
    return ends[0] + inner + sep.join(texts) + nl + ends[1]
