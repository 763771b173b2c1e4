"""Digest corpus: the canonical output of every job of a seeded list, pinned
by digest.

A job calls one public function of ``convergence`` (``norm_tail``,
``un_tail``, ``un_tail_qip``, ``weak_tail`` with and without modulus,
``pairing``, ``order_witness_atomic``) or ``runner.run_diagnostic`` on
seeded random sparse c0 / lp / linf sequences (values near the underflow and
overflow edges, with and without a limit), random step sequences over
non-uniform measures (built in memory or decoded from inline literals),
random direct sums, the typewriter at several levels, or gallery entries at
several horizons; or it calls ``constructive.riesz_decompose`` on a seeded
random triple, or ``constructive.uo_extract`` on a typewriter, a random step
or sparse sequence or a gallery entry.  Its canonical output is the
canonical JSON of the report or witness (of the six parts y, z, a, b, c, d
of a Riesz witness; of the test vector, selection and report of a uo
extraction), the ``float.hex`` of a pairing, or ``Type: message`` of a
refusal.
``tests/digests.json`` holds ``sha256(output)[:16]`` per job id, with the
Python and numpy versions that wrote it.

To rewrite the file after an intended change of behaviour:

    PYTHONPATH=src python tests/test_digests.py

It prints each family's wall time, as ``<family> <seconds> s``, then each
job id whose digest it changed, added or removed, as ``changed <id>``,
``added <id>`` or ``removed <id>``.
"""

import hashlib
import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from unlattice import jsonio, runner
from unlattice import convergence as cv
from unlattice import gallery
from unlattice.constructive import RieszWitness, UoExtraction, riesz_decompose, uo_extract
from unlattice.errors import LatticeError
from unlattice.spaces import (
    DirectSumVector,
    LatticeVector,
    MeasureModel,
    StepFunction,
    c0,
    direct_sum,
    element_to_dict,
    linf,
    lp,
    lp_step,
    tag_to_dict,
    unit,
    zero,
)

DIGESTS = Path(__file__).parent / "digests.json"

SEQ_TAGS = (c0(), linf(), lp(1), lp(1.5), lp(2), lp(3))
#: the magnitude of a sequence's edge terms: subnormal values, squares that
#: underflow, squares that overflow, and l1 sums that overflow
EDGES = (1.0, 1e-310, 1e-200, 1e200, 1e308)
FAR = (10 ** 12, 2 ** 62 - 1)
TOLS = (1e-6, 1e-3, 0.5)


def _coords(rng, magnitude: float, positive: bool = False, max_size: int = 6) -> dict:
    """Up to ``max_size`` random coordinates of about ``magnitude``, mostly at
    small indices, some far out."""
    indices = rng.integers(1, 25, int(rng.integers(0, max_size + 1))).tolist()
    if rng.random() < 0.15:
        indices.append(FAR[int(rng.integers(0, 2))])
    values = rng.uniform(0.5, 1.5, len(indices)) * magnitude
    if not positive:
        values *= rng.choice([-1.0, 1.0], len(indices))
    return dict(zip(indices, values.tolist()))


def _vector(rng, tag, magnitude=1.0, positive=False, max_size=6) -> LatticeVector:
    return LatticeVector(tag, _coords(rng, magnitude, positive, max_size))


def _terms(rng, make, length: int):
    """``length`` terms ``make(magnitude)``: the sequence's edge magnitude at
    about a third of them, 1.0 or 1e-5 elsewhere."""
    edge = EDGES[int(rng.integers(0, len(EDGES)))]
    return [make(edge if rng.random() < 0.3 else (1.0, 1e-5)[int(rng.integers(0, 2))])
            for _ in range(length)]


def _tolerance(rng, length: int) -> cv.ToleranceSpec:
    window = None if rng.random() < 0.5 else int(rng.integers(1, length + 1))
    return cv.ToleranceSpec(TOLS[int(rng.integers(0, len(TOLS)))], window)


def _diagnostics(prefix, seq, limit, tests, functionals, ts, pairs):
    """The tail diagnostics of one case, and the pairings of ``pairs``."""
    yield f"{prefix}/norm", lambda: cv.norm_tail(seq, limit, ts)
    yield f"{prefix}/un", lambda: cv.un_tail(seq, limit, tests, ts)
    yield f"{prefix}/un_qip", lambda: cv.un_tail_qip(seq, limit, ts)
    yield f"{prefix}/weak", lambda: cv.weak_tail(seq, functionals, ts)
    yield f"{prefix}/weak_modulus", lambda: cv.weak_tail(seq, functionals, ts, modulus=True)
    for j, (f, x) in enumerate(pairs):
        yield f"{prefix}/pairing_{j}", lambda f=f, x=x: cv.pairing(f, x)


def _pairs(rng, functionals, terms, k=3):
    return [(functionals[int(rng.integers(0, len(functionals)))],
             terms[int(rng.integers(0, len(terms)))]) for _ in range(k)]


def sparse_jobs():
    for tag in SEQ_TAGS:
        for s in range(30):
            rng = np.random.default_rng([1, SEQ_TAGS.index(tag), s])
            length = int(rng.integers(4, 25))
            terms = _terms(rng, lambda m: _vector(rng, tag, m), length)
            limit = zero(tag) if s % 2 else _vector(rng, tag)
            tests = [_vector(rng, tag, 10.0 ** -int(rng.integers(0, 4)), positive=True)
                     for _ in range(int(rng.integers(1, 4)))]
            functionals = [_vector(rng, tag, EDGES[int(rng.integers(0, 4))] if s % 3 else 1.0)
                           for _ in range(int(rng.integers(1, 4)))]
            yield from _diagnostics(f"sparse/{tag.describe()}/{s}", cv.sequence_from_list(terms),
                                    limit, tests, functionals, _tolerance(rng, length),
                                    _pairs(rng, functionals, terms))


def _step(rng, tags, magnitude, positive=False, extra=0) -> StepFunction:
    """A random step function on one of the compatible ``tags``, at up to
    three levels above its measure's (plus ``extra``), zero on some cells."""
    tag = tags[int(rng.integers(0, len(tags)))]
    level = tag.measure.level + int(rng.integers(0, 4)) + extra
    v = rng.uniform(0.5, 1.5, 2 ** level) * magnitude
    if not positive:
        v *= rng.choice([-1.0, 1.0], v.size)
        v[rng.random(v.size) < 0.3] = 0.0
    return StepFunction(tag, level, v)


def step_jobs():
    for p in (1.0, 1.5, 2.0):
        for s in range(20):
            rng = np.random.default_rng([2, int(2 * p), s])
            base = int(rng.integers(0, 3))
            measure = MeasureModel(base, tuple(rng.uniform(0.1, 2.0, 2 ** base).tolist()))
            tags = [lp_step(p, measure.refined(base + k)) for k in range(3)]
            length = int(rng.integers(3, 17))
            terms = _terms(rng, lambda m: _step(rng, tags, min(m, 1e300)), length)
            seq = cv.sequence_from_list(terms)
            limit = zero(seq.tag) if s % 2 else _step(rng, tags, 1.0, extra=1)
            tests = [_step(rng, tags, 1.0, positive=True, extra=1)
                     for _ in range(int(rng.integers(1, 3)))]
            functionals = [_step(rng, tags, 1e300 if s % 7 == 3 else 1.0, extra=1)
                           for _ in range(int(rng.integers(1, 3)))]
            yield from _diagnostics(f"step/p{p:g}/{s}", seq, limit, tests, functionals,
                                    _tolerance(rng, length), _pairs(rng, functionals, terms, 2))


def _direct(rng, magnitude, positive=False, zero_left=False) -> DirectSumVector:
    left = zero(lp(1)) if zero_left else _vector(rng, lp(1), magnitude, positive)
    return DirectSumVector(left, _vector(rng, linf(), magnitude, positive))


def direct_sum_jobs():
    for s in range(40):
        rng = np.random.default_rng([3, s])
        length = int(rng.integers(4, 25))
        terms = _terms(rng, lambda m: _direct(rng, m), length)
        limit = zero(terms[0].tag) if s % 2 else _direct(rng, 1.0)
        tests = [_direct(rng, 10.0 ** -int(rng.integers(0, 3)), positive=True,
                         zero_left=rng.random() < 0.4) for _ in range(int(rng.integers(1, 4)))]
        functionals = [_direct(rng, EDGES[int(rng.integers(0, 4))] if s % 3 else 1.0)
                       for _ in range(int(rng.integers(1, 4)))]
        yield from _diagnostics(f"direct_sum/{s}", cv.sequence_from_list(terms), limit, tests,
                                functionals, _tolerance(rng, length),
                                _pairs(rng, functionals, terms))


#: entry -> (horizons, diagnostics)
GALLERY_DIAGNOSTICS = {
    "direct_sum": ((64, 512, 4096, 8192),
                   ({"name": "norm"}, {"name": "un", "tests": "direct_sum_witness"},
                    {"name": "un", "tests": "l1_part_units"}, {"name": "un_qip"},
                    {"name": "weak", "functionals": "summable_units"})),
    "std_units_c0": ((64, 8192), ({"name": "norm"}, {"name": "un_qip"},
                                  {"name": "weak", "functionals": "summable_units"})),
    "std_units_l1": ((64, 8192), ({"name": "un", "tests": "qip"}, {"name": "un_qip", "horizon": 64},
                                  {"name": "weak", "functionals": "summable_units",
                                   "modulus": True})),
    "std_units_linf": ((64, 8192), ({"name": "norm"}, {"name": "un"},
                                    {"name": "weak", "functionals": "summable_units"})),
    "overlap_l2": ((64, 256), ({"name": "norm"}, {"name": "un_qip"},
                                {"name": "weak", "functionals": "summable_units",
                                 "modulus": True})),
}


def gallery_jobs():
    ts = cv.ToleranceSpec()
    for entry, (horizons, diagnostics) in GALLERY_DIAGNOSTICS.items():
        for horizon in horizons:
            seq = runner.build_sequence({"gallery": entry, "params": {"horizon": horizon}})
            for diag in diagnostics:
                name = "_".join(str(v) for v in diag.values())
                yield (f"gallery/{entry}/{horizon}/{name}",
                       lambda seq=seq, diag=diag: runner.run_diagnostic(seq, diag, ts))
    # the direct-sum sequence against its witness 0 (+) 1 read past the witness's horizon
    l1, sup = lp(1), linf()
    for horizon in (64, 8192):
        seq = cv.VectorSequence(
            direct_sum(), horizon,
            lambda n: DirectSumVector(unit(l1, n).scale(0.5), unit(sup, n).scale(-2.0)))
        yield (f"gallery/direct_sum_scaled/{horizon}/un",
               lambda seq=seq: cv.un_tail(seq, zero(seq.tag),
                                          runner.TEST_FAMILIES["direct_sum_witness"](seq), ts))


WITNESS_TAGS = (c0(), lp(1), lp(2), lp(3), linf())


def order_witness_jobs():
    ts = cv.ToleranceSpec()
    for tag in WITNESS_TAGS:
        for s in range(25):
            rng = np.random.default_rng([4, WITNESS_TAGS.index(tag), s])
            atoms = rng.choice(np.arange(1, 41), int(rng.integers(0, 31)), replace=False)
            bound = LatticeVector(tag, dict(zip(atoms.tolist(),
                                                rng.uniform(0.2, 2.0, atoms.size).tolist())))
            decay = (0.5, 0.8, 0.95, 1.0)[int(rng.integers(0, 4))]
            length = int(rng.integers(1, 41))
            terms = [{a: float(rng.choice([-1.0, 1.0]) * bound[a] * rng.uniform(0.0, 1.0)
                               * decay ** n)
                      for a in bound.coords if rng.random() < 0.6} for n in range(1, length + 1)]
            # one term of some cases exceeds the bound by about the slack, or
            # stores a coordinate outside the atoms, within or past the slack
            coords = terms[int(rng.integers(0, length))]
            if s % 5 == 0 and coords:
                a = next(iter(coords))
                coords[a] = bound[a] + float(rng.choice([0.5, 2.0])) * cv.ORDER_SLACK
            elif s % 5 in (1, 2):
                coords[41 + int(rng.integers(0, 5))] = (5e-13, 1e-3)[s % 5 - 1]
            terms = [LatticeVector(tag, coords) for coords in terms]
            seq = cv.sequence_from_list(terms)
            yield (f"order_witness/{tag.describe()}/{s}",
                   lambda seq=seq, bound=bound: cv.order_witness_atomic(seq, bound, ts))
        bound = LatticeVector(tag, {a: 1.0 for a in range(1, 129)})
        seq = cv.VectorSequence(tag, 64, lambda n, bound=bound: bound.scale(0.7 ** n))
        yield (f"order_witness/{tag.describe()}/128_atoms",
               lambda seq=seq, bound=bound: cv.order_witness_atomic(seq, bound, ts))


def refusal_jobs():
    ts = cv.ToleranceSpec()
    l1, sup, step = lp(1), linf(), lp_step(1)
    e1 = unit(l1, 1)
    big = DirectSumVector(e1.scale(1e308), unit(sup, 1).scale(1e308))
    ones = DirectSumVector(e1, unit(sup, 1))
    ds = cv.sequence_from_list([ones, ones.scale(0.5)])
    half = DirectSumVector(e1.scale(1e308), unit(sup, 1).scale(7e307))
    units = cv.sequence_from_list([unit(c0(), 1), unit(c0(), 2)])
    steps = cv.sequence_from_list([StepFunction(step, 0, np.array([1e308]))])
    overflowing = LatticeVector(l1, {1: 1e308, 2: 1e308, 3: -1e308})
    cases = {
        "pairing_tag_mismatch": lambda: cv.pairing(unit(c0(), 1), unit(lp(2), 1)),
        "pairing_l1_exact_past_a_partial_sum": lambda: cv.pairing(
            overflowing, LatticeVector(l1, {1: 1.0, 2: 1.0, 3: 1.0})),
        "pairing_l1_overflow": lambda: cv.pairing(overflowing, LatticeVector(l1, {1: 1.0, 2: 1.0})),
        "pairing_step_overflow": lambda: cv.pairing(steps.at(1), steps.at(1)),
        "pairing_direct_sum_overflow": lambda: cv.pairing(big, ones),
        "pairing_direct_sum_finite_edge": lambda: cv.pairing(half, ones),
        "weak_direct_sum_overflow": lambda: cv.weak_tail(ds, [big], ts),
        "weak_modulus_direct_sum_overflow": lambda: cv.weak_tail(ds, [big], ts, modulus=True),
        "weak_direct_sum_finite_edge": lambda: cv.weak_tail(ds, [half], ts),
        "weak_step_overflow": lambda: cv.weak_tail(steps, [steps.at(1)], ts),
        "weak_no_functionals": lambda: cv.weak_tail(units, [], ts),
        "weak_tag_mismatch": lambda: cv.weak_tail(units, [unit(l1, 1)], ts),
        "un_no_tests": lambda: cv.un_tail(units, zero(c0()), [], ts),
        "un_negative_test": lambda: cv.un_tail(units, zero(c0()), [unit(c0(), 1).scale(-1.0)], ts),
        "un_zero_test": lambda: cv.un_tail(units, zero(c0()), [zero(c0())], ts),
        "un_tag_mismatch": lambda: cv.un_tail(units, zero(c0()), [unit(sup, 1)], ts),
        "norm_limit_tag_mismatch": lambda: cv.norm_tail(units, zero(l1), ts),
        "norm_direct_sum_overflow": lambda: cv.norm_tail(
            cv.sequence_from_list([big, ones]), big.scale(-1.0), ts),
        "un_qip_direct_sum": lambda: cv.un_tail_qip(ds, zero(ds.tag), ts),
        "un_qip_horizon_0": lambda: cv.un_tail_qip(units, zero(c0()), ts, horizon=0),
        "order_witness_step": lambda: cv.order_witness_atomic(steps, steps.at(1), ts),
        "order_witness_direct_sum": lambda: cv.order_witness_atomic(ds, ones, ts),
        "order_witness_negative_bound": lambda: cv.order_witness_atomic(
            units, unit(c0(), 1).scale(-1.0), ts),
        "order_witness_tag_mismatch": lambda: cv.order_witness_atomic(units, unit(l1, 1), ts),
    }
    for name, job in cases.items():
        yield f"refusal/{name}", job


#: the spaces of perfbench's ``small_elements`` Riesz batches
RIESZ_TAGS = (c0(), linf(), lp(1), lp(2), lp(3), lp_step(1, level=1),
              lp_step(2, MeasureModel(2, (0.1, 0.2, 0.3, 0.4))), direct_sum())
RIESZ_TOLS = (1e-9, 1e-12, 1e-3)


def _split(rng, a: np.ndarray) -> np.ndarray:
    """Fractions t of ``a`` >= 0 for u = t * a: some 0 and some 1, so that u
    or v = a - u lacks a coordinate or a cell that the other has."""
    t = rng.uniform(0.0, 1.0, a.size)
    t[rng.random(a.size) < 0.15] = 0.0
    t[rng.random(a.size) < 0.15] = 1.0
    return t * a


def _seq_riesz(rng, tag, magnitude, tol):
    """x, u, v with u + v = |x| up to rounding; at magnitudes up to 1, u or v
    sometimes stores a coordinate of tol / 4 off x's support, which the
    tolerance admits."""
    x = _coords(rng, magnitude)
    keys, ax = list(x), np.abs(np.array(list(x.values()), dtype=float))
    us = _split(rng, ax)
    u, v = dict(zip(keys, us.tolist())), dict(zip(keys, (ax - us).tolist()))
    if magnitude <= 1.0 and rng.random() < 0.3:
        (u, v)[int(rng.integers(0, 2))][int(rng.integers(25, 30))] = tol / 4
    return tuple(LatticeVector(tag, c) for c in (x, u, v))


def _step_riesz(rng, tags, magnitude):
    """x, u, v with u + v = |x| up to rounding, at different levels: the
    coarser of u and v takes a share of the least |x| over each of its cells,
    the finer one the rest.  x and u draw their tags apart, so they often carry
    distinct but compatible measures; some values are -0.0."""
    tx, tu = (tags[int(rng.integers(0, len(tags)))] for _ in range(2))
    lx = tx.measure.level + int(rng.integers(0, 3))
    x = rng.uniform(0.5, 1.5, 2 ** lx) * magnitude * rng.choice([-1.0, 1.0], 2 ** lx)
    x[rng.random(x.size) < 0.25] = 0.0
    x[rng.random(x.size) < 0.1] = -0.0
    coarse_tag, fine_tag = (tu, tx) if rng.random() < 0.5 else (tx, tu)
    lc = coarse_tag.measure.level + int(rng.integers(0, 3))
    top = max(lx, lc)
    ax = np.abs(np.repeat(x, 2 ** (top - lx)))
    coarse = _split(rng, ax.reshape(2 ** lc, -1).min(axis=1))
    lf = max(top, fine_tag.measure.level) + int(rng.integers(0, 2))
    fine = np.repeat(ax, 2 ** (lf - top)) - np.repeat(coarse, 2 ** (lf - lc))
    fine[(fine == 0.0) & (rng.random(fine.size) < 0.5)] = -0.0
    parts = [StepFunction(coarse_tag, lc, coarse), StepFunction(fine_tag, lf, fine)]
    if coarse_tag is not tu:
        parts.reverse()
    return (StepFunction(tx, lx, x), *parts)


def _riesz_triple(rng, tag, magnitude, tol):
    if tag.kind == "lp_step":
        base = tag.measure
        tags = [lp_step(tag.p, base.refined(base.level + k)) for k in range(3)]
        return _step_riesz(rng, tags, min(magnitude, 1e300))
    if tag.kind == "l1_oplus_linf":
        left = _seq_riesz(rng, lp(1), magnitude, tol)
        right = _seq_riesz(rng, linf(), magnitude, tol)
        return tuple(DirectSumVector(a, b) for a, b in zip(left, right))
    return _seq_riesz(rng, tag, magnitude, tol)


def riesz_jobs():
    for tag in RIESZ_TAGS:
        for s in range(30):
            rng = np.random.default_rng([5, RIESZ_TAGS.index(tag), s])
            magnitude = EDGES[int(rng.integers(0, len(EDGES)))] if s % 3 else 1.0
            tol = RIESZ_TOLS[s % len(RIESZ_TOLS)]
            x, u, v = _riesz_triple(rng, tag, magnitude, tol)
            if s % 10 == 9:
                v = v.scale(1.5)  # most such triples are no decomposition
            yield (f"riesz/{tag.describe()}/{s}",
                   lambda x=x, u=u, v=v, tol=tol: riesz_decompose(x, u, v, tol))
    l2, sup, ds = lp(2), linf(), direct_sum()
    x = LatticeVector(l2, {1: 1.0, 2: -2.0})
    big = LatticeVector(l2, {1: 1e308, 2: 1e308})
    dx = DirectSumVector(LatticeVector(lp(1), {1: -1.0}), LatticeVector(sup, {2: 1.0}))
    dbig = DirectSumVector(LatticeVector(lp(1), {1: 1e308}), zero(sup))
    tiny = lp_step(1, MeasureModel(1, (1e-12, 1.0)))
    sx = StepFunction(tiny, 1, np.array([-1.0, 0.0]))
    su = StepFunction(tiny, 1, np.array([1.5, 0.0]))
    sbig = StepFunction(tiny, 1, np.array([1e308, 0.0]))
    flat = lp_step(1, level=1)
    fx = StepFunction(flat, 1, np.array([-1.0, 0.0]))
    cases = {
        "tag_mismatch_u": lambda: riesz_decompose(x, unit(c0(), 1), x.abs()),
        "tag_mismatch_v": lambda: riesz_decompose(x, x.abs(), unit(lp(3), 1)),
        "tag_mismatch_step": lambda: riesz_decompose(
            sx, su, StepFunction(lp_step(1, MeasureModel(1, (0.5, 0.5))), 1, np.zeros(2))),
        "tag_mismatch_direct_sum": lambda: riesz_decompose(dx, unit(sup, 1), dx.abs()),
        "negative_u": lambda: riesz_decompose(x, x.abs().scale(-1.0), x.abs().scale(2.0)),
        "negative_v": lambda: riesz_decompose(x, x.abs().scale(2.0), x.abs().scale(-1.0)),
        "negative_step": lambda: riesz_decompose(sx, su.scale(-1.0), su),
        "negative_direct_sum": lambda: riesz_decompose(dx, dx, dx.abs()),
        "not_a_decomposition": lambda: riesz_decompose(x, x.abs(), x.abs()),
        "not_a_decomposition_step": lambda: riesz_decompose(fx, fx.abs(), fx.abs()),
        "not_a_decomposition_direct_sum": lambda: riesz_decompose(dx, dx.abs(), dx.abs()),
        "overflow_sequence": lambda: riesz_decompose(x, big, big),
        "overflow_sequence_before_tolerance": lambda: riesz_decompose(x, big, big, float("nan")),
        "overflow_step": lambda: riesz_decompose(sx, sbig, sbig),
        "overflow_direct_sum": lambda: riesz_decompose(dx, dbig, dbig),
        "negative_part_d": lambda: riesz_decompose(sx, su, zero(tiny)),
        "negative_part_d_tol": lambda: riesz_decompose(sx, su, zero(tiny), 1e-6),
        "tol_nan": lambda: riesz_decompose(x, x.abs(), zero(l2), float("nan")),
        "tol_negative": lambda: riesz_decompose(x, x.abs(), zero(l2), -1.0),
        "tol_zero": lambda: riesz_decompose(x, x.abs(), zero(l2), 0.0),
        "tol_zero_step": lambda: riesz_decompose(sx, sx.abs(), zero(tiny), 0.0),
        "tol_negative_tag_mismatch": lambda: riesz_decompose(x, unit(c0(), 1), x.abs(), -1.0),
        "tol_inf": lambda: riesz_decompose(x, x.abs(), zero(l2), float("inf")),
        "tol_inf_negative_part_d": lambda: riesz_decompose(sx, su, zero(tiny), float("inf")),
    }
    for name, job in cases.items():
        yield f"riesz/edge/{name}", job


#: the typewriter's levels: runs of one to seven terms, then several chunks per level
TYPEWRITER_LEVELS = (1, 2, 3, 7, 10, 11)
TYPEWRITER_DIAGNOSTICS = ({"name": "norm"}, {"name": "un_qip"},
                          {"name": "in_measure", "delta": 0.5}, {"name": "pointwise"},
                          {"name": "weak", "functionals": "step_family"})


def typewriter_jobs():
    for max_level in TYPEWRITER_LEVELS:
        # the gallery's window where the run is long enough, length // 4 below it
        ts = cv.ToleranceSpec(tol=1e-2, window=256 if max_level >= 9 else None)
        for p in (1.0, 2.0):
            seq = runner.build_sequence(
                {"gallery": "typewriter", "params": {"max_level": max_level, "p": p}})
            for diag in TYPEWRITER_DIAGNOSTICS:
                yield (f"typewriter/{max_level}/p{p:g}/{diag['name']}",
                       lambda seq=seq, diag=diag, ts=ts: runner.run_diagnostic(seq, diag, ts))


def _step_literal(rng, tags, magnitude) -> dict:
    """The literal of a random step function on one of the compatible ``tags``."""
    x = _step(rng, tags, magnitude)
    return {"tag": tag_to_dict(x.tag), "level": x.level, "values": x.values.tolist()}


def inline_step_jobs():
    for p in (1.0, 2.0):
        for s in range(12):
            rng = np.random.default_rng([6, int(p), s])
            base = int(rng.integers(0, 3))
            measure = MeasureModel(base, tuple(rng.uniform(0.1, 2.0, 2 ** base).tolist()))
            tags = [lp_step(p, measure.refined(base + k)) for k in range(3)]
            length = int(rng.integers(3, 41))
            elements = _terms(rng, lambda m: _step_literal(rng, tags, min(m, 1e300)), length)
            seq = runner.build_sequence({"inline": {"elements": elements}})
            ts = _tolerance(rng, length)
            delta = (1e-3, 0.5)[s % 2]
            yield (f"inline_step/p{p:g}/{s}/in_measure",
                   lambda seq=seq, ts=ts, delta=delta: cv.in_measure_tail(seq, delta, ts))
            yield f"inline_step/p{p:g}/{s}/pointwise", lambda seq=seq, ts=ts: cv.pointwise_tail(seq, ts)


UO_TS = cv.ToleranceSpec(tol=1e-2, window=2)


def uo_jobs():
    for max_level in range(4, 11):
        for p in (1.0, 2.0):
            yield (f"uo/typewriter/{max_level}/p{p:g}",
                   lambda max_level=max_level, p=p: uo_extract(gallery.typewriter(max_level, p),
                                                                 UO_TS))
    for p in (1.0, 2.0):
        for s in range(10):
            rng = np.random.default_rng([7, int(p), s])
            base = int(rng.integers(0, 3))
            measure = MeasureModel(base, tuple(rng.uniform(0.1, 2.0, 2 ** base).tolist()))
            tags = [lp_step(p, measure.refined(base + k)) for k in range(3)]
            length = int(rng.integers(3, 33))
            # null-ish sequences decay, so the selection finds its indices
            decay = (1.0, 0.5, 0.1)[s % 3]
            terms = _terms(rng, lambda m: _step(rng, tags, min(m, 1e300)), length)
            terms = [x.scale(decay ** n) for n, x in enumerate(terms)]
            if s % 4 == 1:
                terms[int(rng.integers(0, length))] = zero(tags[0])
            seq = cv.sequence_from_list(terms)
            ts = cv.ToleranceSpec(TOLS[s % len(TOLS)], (None, 2)[s % 2])
            yield f"uo/step/p{p:g}/{s}", lambda seq=seq, ts=ts: uo_extract(seq, ts)
    for tag in (c0(), lp(1), lp(2), linf()):
        for s in range(8):
            rng = np.random.default_rng([8, SEQ_TAGS.index(tag), s])
            length = int(rng.integers(3, 25))
            decay = (1.0, 0.5, 0.1, 1e-3)[s % 4]
            terms = _terms(rng, lambda m: _vector(rng, tag, m), length)
            terms = [x.scale(decay ** n) for n, x in enumerate(terms)]
            seq = cv.sequence_from_list(terms)
            ts = cv.ToleranceSpec(TOLS[s % len(TOLS)], (None, 2)[s % 2])
            yield f"uo/sparse/{tag.describe()}/{s}", lambda seq=seq, ts=ts: uo_extract(seq, ts)
    # past n = 1074 the weight 2**-n of e underflows to 0.0 and e stops growing
    for entry, horizon in (("std_units_c0", 2048), ("std_units_l2", 64), ("overlap_l2", 64),
                           ("direct_sum", 64)):
        seq = runner.build_sequence({"gallery": entry, "params": {"horizon": horizon}})
        yield f"uo/gallery/{entry}/{horizon}", lambda seq=seq: uo_extract(seq, cv.ToleranceSpec())
    # e overflows: a term's norm is subnormal, or its mass sits on a cell of weight 0
    light = lp_step(1, MeasureModel(1, (0.0, 1.0)))
    cases = {
        "subnormal_norm_c0": [LatticeVector(c0(), {1: 1e-310}), unit(c0(), 2)],
        "subnormal_norm_l1": [unit(lp(1), 1), LatticeVector(lp(1), {2: 3e-320, 5: 1.0e-310})],
        "weightless_cell": [StepFunction(light, 1, np.array([1e300, 1e-300])),
                            StepFunction(light, 1, np.array([0.0, 1.0]))],
        "zero_sequence": [zero(lp(2))] * 4,
    }
    for name, terms in cases.items():
        yield (f"uo/edge/{name}",
               lambda terms=terms: uo_extract(cv.sequence_from_list(terms), cv.ToleranceSpec()))


FAMILIES = {"sparse": sparse_jobs, "step": step_jobs, "direct_sum": direct_sum_jobs,
            "gallery": gallery_jobs, "order_witness": order_witness_jobs,
            "refusal": refusal_jobs, "riesz": riesz_jobs, "typewriter": typewriter_jobs,
            "inline_step": inline_step_jobs, "uo": uo_jobs}


def canonical(job) -> str:
    """The canonical output of ``job()``: a report or witness as canonical
    JSON, a float by its hex, a refusal as ``Type: message``."""
    try:
        out = job()
        if isinstance(out, float):
            return out.hex()
        if isinstance(out, RieszWitness):
            return jsonio.dumps({name: element_to_dict(getattr(out, name))
                                 for name in ("y", "z", "a", "b", "c", "d")})
        if isinstance(out, UoExtraction):
            return jsonio.dumps({"test_vector": element_to_dict(out.test_vector),
                                 "subindices": out.subindices, "meet_norms": out.meet_norms,
                                 "report": out.report.to_json_dict(),
                                 "degenerate": out.degenerate})
        return jsonio.dumps(out.to_json_dict())
    except LatticeError as exc:
        return f"{type(exc).__name__}: {exc}"


def render_digests(family: str) -> dict[str, str]:
    return {job_id: hashlib.sha256(canonical(job).encode()).hexdigest()[:16]
            for job_id, job in FAMILIES[family]()}


def _pinned() -> dict:
    return json.loads(DIGESTS.read_text())


def test_corpus_lists_every_family():
    assert {job_id.split("/")[0] for job_id in _pinned()["digests"]} == set(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_family_matches_digests(family):
    corpus = _pinned()
    pinned = {k: v for k, v in corpus["digests"].items() if k.split("/")[0] == family}
    got = render_digests(family)
    assert list(got) == list(pinned)  # no job dropped, added or reordered
    changed = [job_id for job_id, digest in got.items() if digest != pinned[job_id]]
    assert not changed, (f"{len(changed)} of {len(got)} outputs changed: {changed[:20]} "
                         f"(pinned with Python {corpus['python']} and numpy {corpus['numpy']}; "
                         f"running {platform.python_version()} and {np.__version__})")


if __name__ == "__main__":
    pinned = _pinned()["digests"] if DIGESTS.exists() else {}
    digests = {}
    for family in FAMILIES:  # the wall time of each family: the Tier-1 cost it adds
        start = time.perf_counter()
        digests.update(render_digests(family))
        print(family, f"{time.perf_counter() - start:.2f}", "s")
    DIGESTS.write_text(json.dumps({"python": platform.python_version(),
                                   "numpy": np.__version__, "jobs": len(digests),
                                   "digests": digests}, indent=1) + "\n")
    # the job ids whose digest this run changed, added or removed, one a line
    for job_id, digest in digests.items():
        if job_id not in pinned:
            print("added", job_id)
        elif pinned[job_id] != digest:
            print("changed", job_id)
    for job_id in pinned:
        if job_id not in digests:
            print("removed", job_id)
