"""Scenario dispatch shared by the gallery regression table and the CLI.

``bind`` checks every scenario object against the keyword parameters of the
function that consumes it.  A diagnostic spec is {"name": <diagnostic>,
...params}; test vectors and functionals are element literals or named families.
"""

from __future__ import annotations

import inspect
from typing import Mapping

import numpy as np

from . import convergence as cv
from .convergence import TailReport, ToleranceSpec, VectorSequence
from .errors import ValidationError
from .gallery import direct_sum_witness, get_entry
from .spaces import (
    DirectSumVector,
    Element,
    StepFunction,
    constant_one,
    element_from_dict,
    elements_from_dicts,
    geometric_point,
    linf,
    lp,
    lp_step,
    quasi_interior_point,
    zero,
)


#: The JSON type of every scenario key.  A key means the same thing wherever
#: it appears, so one table covers the whole format.
SCHEMA = dict(schema="integer", name="string", expect="string", source="object",
              diagnostic="object", tolerance="object", tol="number", window="integer",
              gallery="string", params="object", inline="object", elements="array",
              horizon="integer", max_level="integer", p="number", delta="number",
              modulus="boolean", limit="object", tests="string|array",
              functionals="string|array")
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def bind(fn, obj, what: str, *args):
    """Call ``fn(*args, **obj)`` once ``obj`` is an object whose keys are keyword
    parameters of ``fn``, holding every one without a default, each value of its
    ``SCHEMA`` type; raise ``ValidationError`` naming ``what`` otherwise."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object, not {_json_type(obj)}")
    params = list(inspect.signature(fn).parameters.values())[len(args):]
    unknown = obj.keys() - {q.name for q in params}
    if unknown:
        raise ValidationError(f"{what}: unknown fields {sorted(unknown, key=str)}; "
                              f"known: {[q.name for q in params]}")
    for q in params:  # a default is checked like a given value
        value = obj.get(q.name, q.default)
        if value is q.empty:
            raise ValidationError(f"{what}: missing {q.name!r}")
        allowed, got = SCHEMA[q.name].split("|"), _json_type(value)
        if not (got in allowed or got == "integer" and "number" in allowed
                or value is None and q.default is None):
            raise ValidationError(f"{what}: {q.name!r} must be {' or '.join(allowed)}, not {got}")
    return fn(*args, **obj)


# ---------------------------------------------------------------------------
# named vector / functional families
# ---------------------------------------------------------------------------

def _step_functionals(seq: VectorSequence, *rows) -> list[Element]:
    """The constant one, then a level-2 step function per row, on seq's model."""
    if seq.tag.kind != "lp_step":
        raise ValidationError("step functionals need a step-model sequence")
    base = lp_step(seq.tag.p, seq.tag.measure)
    return [constant_one(base)] + [StepFunction(base, 2, np.array(row)) for row in rows]


TEST_FAMILIES = {
    "qip": lambda seq: [quasi_interior_point(seq.tag)],
    "l1_part_units": lambda seq: [DirectSumVector(quasi_interior_point(lp(1)), zero(linf()))],
    "direct_sum_witness": lambda seq: [direct_sum_witness()],
    "profile": lambda seq: [seq.at(1).abs()],
}
FUNCTIONAL_FAMILIES = {
    # a fixed level-2 family: rich enough to catch non-cancelling sequences
    "step_family": lambda seq: _step_functionals(seq, [1.0, -1.0, 2.0, 0.5], [1.0, 0.0, 0.0, 0.0]),
    "constant_one": lambda seq: _step_functionals(seq),
    # linf's quasi-interior point 1 is not summable: it takes (2**-n) as c0 and lp do
    "summable_units": lambda seq: [geometric_point(seq.tag) if seq.tag.kind == "linf"
                                   else quasi_interior_point(seq.tag)],
}


def resolve(families: Mapping, spec, seq: VectorSequence) -> list[Element]:
    """The family named ``spec`` in ``families``, or a list of element literals."""
    if isinstance(spec, str):
        if spec not in families:
            raise ValidationError(f"unknown family {spec!r}; known: {list(families)}")
        return families[spec](seq)
    return elements_from_dicts(spec)


# ---------------------------------------------------------------------------
# diagnostic dispatch
# ---------------------------------------------------------------------------

def _limit(limit, seq: VectorSequence) -> Element:
    return zero(seq.tag) if limit is None else element_from_dict(limit)


#: (test family, space kind) pairs that ``un`` reads in closed form, with no
#: horizon: linf's qip is its strong unit 1, and the direct sum's witness
#: 0 (+) 1 is the strong unit on the linf part
_STRONG_UNIT = (("qip", "linf"), ("direct_sum_witness", "l1_oplus_linf"))

#: One adapter per diagnostic; its keyword parameters are the diagnostic's
#: params, and it looks the diagnostic up in ``convergence`` at call time.
DIAGNOSTICS = {
    "norm": lambda seq, ts, limit=None: cv.norm_tail(seq, _limit(limit, seq), ts),
    "un": lambda seq, ts, tests="qip", limit=None: (
        cv.un_strong_unit(seq, _limit(limit, seq), ts) if (tests, seq.tag.kind) in _STRONG_UNIT
        else cv.un_tail(seq, _limit(limit, seq), resolve(TEST_FAMILIES, tests, seq), ts)),
    "un_qip": lambda seq, ts, horizon=cv.DEFAULT_HORIZON, limit=None: cv.un_tail_qip(
        seq, _limit(limit, seq), ts, horizon=horizon),
    "in_measure": lambda seq, ts, delta: cv.in_measure_tail(seq, delta, ts),
    "pointwise": lambda seq, ts: cv.pointwise_tail(seq, ts),
    "weak": lambda seq, ts, functionals, modulus=False: cv.weak_tail(
        seq, resolve(FUNCTIONAL_FAMILIES, functionals, seq), ts, modulus=modulus),
}


def run_diagnostic(seq: VectorSequence, diag: Mapping, ts: ToleranceSpec) -> TailReport:
    """Run the diagnostic ``{"name": <diagnostic>, ...params}`` on ``seq``."""
    name = diag.get("name")
    if not isinstance(name, str) or name not in DIAGNOSTICS:
        raise ValidationError(f"unknown diagnostic {name!r}; known: {list(DIAGNOSTICS)}")
    params = {k: v for k, v in diag.items() if k != "name"}
    return bind(DIAGNOSTICS[name], params, f"{name} diagnostic", seq, ts)


# ---------------------------------------------------------------------------
# sequence sources
# ---------------------------------------------------------------------------

def _gallery_source(gallery, params=None) -> VectorSequence:
    return bind(get_entry(gallery).build, params or {}, f"{gallery} params")


def _inline_source(inline) -> VectorSequence:
    return bind(lambda elements, name="inline": cv.sequence_from_list(
        elements_from_dicts(elements), name=name), inline, "inline")


def build_sequence(source: Mapping) -> VectorSequence:
    """The sequence ``{"gallery": <entry>, "params": {...}}`` or
    ``{"inline": {"elements": [...], "name": ...}}`` describes."""
    inline = isinstance(source, dict) and "inline" in source
    return bind(_inline_source if inline else _gallery_source, source, "source")
