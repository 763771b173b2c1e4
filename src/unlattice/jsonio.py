"""Canonical JSON emission: fixed field order, 17-significant-digit floats.

Doubles round-trip exactly at 17 significant digits, so identical inputs
yield byte-identical reports regardless of platform.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string

from .errors import ValidationError


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError("reports may not contain NaN or infinities")
    if x.is_integer() and abs(x) < 1e17:  # 17 digits at most: .1f is exact, and keeps ".0"
        return f"{x:.1f}"
    return f"{x:.17g}"


def dumps(obj, indent: int = 0) -> str:
    """Serialize with insertion-ordered keys and canonical float formatting."""
    return _dumps(obj, "\n" if indent else "", " " * indent)


def _key(k) -> str:
    if not isinstance(k, str):
        raise ValidationError("JSON object keys must be strings")
    return _string(k)


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
    if isinstance(obj, dict):
        texts, ends = [_key(k) + ": " + _dumps(v, inner, step) for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        texts, ends = [_dumps(v, inner, step) for v in obj], "[]"
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")
    if not texts:
        return ends
    return ends[0] + inner + ("," + inner if inner else ", ").join(texts) + nl + ends[1]
