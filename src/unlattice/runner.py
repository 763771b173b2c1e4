"""Scenario dispatch shared by the gallery regression table and the CLI.

A diagnostic spec is a plain dict: {"name": <diagnostic>, ...params}; test
vectors and functionals may be given inline as element literals or by the
named families below.
"""

from __future__ import annotations

from typing import Mapping, Sequence

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
    linf,
    lp,
    lp_step,
    quasi_interior_point,
    zero,
)


# ---------------------------------------------------------------------------
# named vector / functional families
# ---------------------------------------------------------------------------

def _step_functional_family(tag) -> list[Element]:
    # a fixed level-2 family: rich enough to catch non-cancelling sequences
    base = lp_step(tag.p, tag.measure)
    return [
        constant_one(base),
        StepFunction(base, 2, np.array([1.0, -1.0, 2.0, 0.5])),
        StepFunction(base, 2, np.array([1.0, 0.0, 0.0, 0.0])),
    ]


def resolve_tests(spec, seq: VectorSequence) -> list[Element]:
    """Positive test vectors for the un diagnostic."""
    if isinstance(spec, str):
        if spec == "qip":
            return [quasi_interior_point(seq.tag)]
        if spec == "l1_part_units":
            return [DirectSumVector(quasi_interior_point(lp(1)), zero(linf()))]
        if spec == "direct_sum_witness":
            return [direct_sum_witness()]
        if spec == "profile":
            return [seq.at(1).abs()]
        raise ValidationError(f"unknown test family {spec!r}")
    return [element_from_dict(d) for d in spec]


def resolve_functionals(spec, seq: VectorSequence) -> list[Element]:
    if isinstance(spec, str):
        if spec == "step_family":
            return _step_functional_family(seq.tag)
        if spec == "constant_one":
            return [constant_one(lp_step(seq.tag.p, seq.tag.measure))]
        if spec == "summable_units":
            return [quasi_interior_point(seq.tag)]
        raise ValidationError(f"unknown functional family {spec!r}")
    return [element_from_dict(d) for d in spec]


# ---------------------------------------------------------------------------
# diagnostic dispatch
# ---------------------------------------------------------------------------

def run_diagnostic(seq: VectorSequence, diag: Mapping, ts: ToleranceSpec) -> TailReport:
    params = dict(diag)
    name = params.pop("name", None)
    if name is None:
        raise ValidationError("diagnostic spec needs a 'name'")
    limit = params.pop("limit", None)
    limit = element_from_dict(limit) if limit is not None else zero(seq.tag)

    if name == "norm":
        _reject_extra(params)
        return cv.norm_tail(seq, limit, ts)
    if name == "un":
        tests = resolve_tests(params.pop("tests", "qip"), seq)
        _reject_extra(params)
        return cv.un_tail(seq, limit, tests, ts)
    if name == "un_qip":
        horizon = int(params.pop("horizon", cv.DEFAULT_HORIZON))
        _reject_extra(params)
        return cv.un_tail_qip(seq, limit, ts, horizon=horizon)
    if name == "in_measure":
        delta = float(params.pop("delta"))
        _reject_extra(params)
        return cv.in_measure_tail(seq, delta, ts)
    if name == "pointwise":
        _reject_extra(params)
        return cv.pointwise_tail(seq, ts)
    if name == "weak":
        functionals = resolve_functionals(params.pop("functionals"), seq)
        modulus = bool(params.pop("modulus", False))
        _reject_extra(params)
        return cv.weak_tail(seq, functionals, ts, modulus=modulus)
    raise ValidationError(f"unknown diagnostic {name!r}")


def _reject_extra(params: dict) -> None:
    if params:
        raise ValidationError(f"unknown diagnostic parameters: {sorted(params)}")


# ---------------------------------------------------------------------------
# sequence sources
# ---------------------------------------------------------------------------

def build_sequence(source: Mapping) -> VectorSequence:
    source = dict(source)
    if "gallery" in source:
        entry = get_entry(source.pop("gallery"))
        params = source.pop("params", None)
        if source:
            raise ValidationError(f"unknown source fields: {sorted(source)}")
        params = {} if params is None else params
        if not isinstance(params, Mapping):
            raise ValidationError("gallery params must be an object")
        unknown = set(params) - set(entry.params)
        if unknown:
            raise ValidationError(f"unknown params {sorted(unknown)} for gallery entry "
                                  f"{entry.name!r}; it takes {list(entry.params)}")
        return entry.build(**params)
    if "inline" in source:
        inline = source.pop("inline")
        if source:
            raise ValidationError(f"unknown source fields: {sorted(source)}")
        elements = [element_from_dict(d) for d in inline["elements"]]
        return cv.sequence_from_list(elements, name=inline.get("name", "inline"))
    raise ValidationError("scenario source must name a gallery entry or be inline")
