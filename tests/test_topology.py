"""Neighborhood base of the unbounded-norm topology."""

import hashlib
import inspect
import json
import struct
from unittest import mock

import numpy as np
import pytest

from unlattice import topology
from unlattice.convergence import NOT_NULL, NULL, ToleranceSpec, un_tail_qip, zero
from unlattice.errors import NoRoom, ValidationError
from unlattice.gallery import std_units
from unlattice.spaces import (
    DirectSumVector,
    LatticeVector,
    MeasureModel,
    StepFunction,
    c0,
    direct_sum,
    element_to_dict,
    is_disjoint,
    linf,
    lp,
    lp_step,
    quasi_interior_point,
    unit,
)
from unlattice.topology import (
    Neighborhood,
    axiom_suite,
    base_intersection,
    contains,
    gauge,
    tag_from_name,
    translate,
)

L2 = lp(2)


def _rand_vec(rng, tag=L2, positive=False, max_index=32):
    size = int(rng.integers(1, 7))
    support = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    vals = rng.uniform(-2, 2, size)
    if positive:
        vals = np.abs(vals) + 0.01
    return LatticeVector(tag, {int(i): float(v) for i, v in zip(support, vals)})


def test_membership_basics():
    V = Neighborhood(unit(L2, 1), 0.5)
    assert contains(V, zero(L2))
    assert contains(V, unit(L2, 2).scale(100.0))  # disjoint from u
    assert not contains(V, unit(L2, 1))
    assert gauge(V, unit(L2, 1).scale(-3.0)) == 1.0


def test_membership_is_strict_at_the_boundary():
    V = Neighborhood(unit(L2, 1), 1.0)
    assert not contains(V, unit(L2, 1))  # gauge == eps exactly
    assert contains(V, unit(L2, 1).scale(1.0 - 1e-12))


def test_neighborhood_validation():
    with pytest.raises(ValidationError):
        Neighborhood(zero(L2), 0.5)
    with pytest.raises(ValidationError):
        Neighborhood(unit(L2, 1).scale(-1.0), 0.5)
    with pytest.raises(ValidationError):
        Neighborhood(unit(L2, 1), 0.0)
    V = Neighborhood(unit(L2, 1), 0.5)
    for y in (unit(L2, 1).scale(0.5), unit(L2, 1)):  # gauge == eps, gauge > eps
        with pytest.raises(NoRoom):
            translate(V, y)
    # translate builds its result through the checked constructor
    with mock.patch.object(Neighborhood, "__post_init__",
                           side_effect=ValidationError("refused")):
        with pytest.raises(ValidationError, match="refused"):
            translate(V, unit(L2, 2))


def test_trusted_neighborhoods_equal_the_checked_ones():
    # every neighborhood the axiom suite and base_intersection build without
    # the checks is one the checked constructor accepts and builds equal
    built = {}
    trusted = Neighborhood._trusted

    def record(u, eps):
        V = trusted(u, eps)
        built.setdefault(inspect.currentframe().f_back.f_code.co_name, []).append(V)
        return V

    with mock.patch.object(Neighborhood, "_trusted", staticmethod(record)):
        for tag in (c0(), lp(2), linf(), lp_step(1), lp_step(2, MeasureModel(1, (0.25, 0.75)))):
            axiom_suite(tag, samples=20, rng_seed=3)
    assert sorted(built) == ["base_intersection", "fresh_v", "t_addition"]
    for site, nbhds in built.items():
        for V in nbhds:
            assert Neighborhood(V.u, V.eps) == V, site
    # the additive-halving axiom doubles the eps of a drawn neighborhood
    doubled = {(id(V.u), 2.0 * V.eps) for V in built["fresh_v"]}
    assert all((id(W.u), W.eps) in doubled for W in built["t_addition"])


# ---------------------------------------------------------------------------
# the one-pass kernel || |x| /\ |y| || against the element composition
# ---------------------------------------------------------------------------

STEP_MEASURE = MeasureModel(2, (0.1, 0.2, 0.3, 0.4))
KERNEL_TAGS = [c0(), lp(1), lp(2), lp(3), linf(), lp_step(1, STEP_MEASURE),
               lp_step(2, STEP_MEASURE), lp_step(3, STEP_MEASURE), direct_sum()]
#: 1e-160 and 1e-310 make the power sums subnormal or zero, 1e200 overflows
#: them, so the rescaled sums of the norms run
KERNEL_SCALES = (1.0, 1e-160, 1e-310, 1e200)


def _kernel_element(rng, tag, scale, positive=False):
    if tag.kind == "l1_oplus_linf":
        return DirectSumVector(_kernel_element(rng, lp(1), scale, positive),
                               _kernel_element(rng, linf(), scale, positive))
    if tag.kind == "lp_step":
        level = int(rng.integers(2, 6))
        vals = rng.uniform(-1.0, 1.0, 2 ** level) * scale
        vals[rng.random(2 ** level) < 0.2] = 0.0
        if positive:
            vals = np.abs(vals)
        vals[rng.random(2 ** level) < 0.1] = -0.0
        return StepFunction(tag, level, vals)
    size = int(rng.integers(0, 7))
    support = rng.choice(16, size=size, replace=False) + 1
    vals = rng.uniform(-1.0, 1.0, size) * scale
    if positive:
        vals = np.abs(vals)
    return LatticeVector(tag, dict(zip(support.tolist(), vals.tolist())))


def _bits(v: float) -> bytes:
    return struct.pack("d", v)


@pytest.mark.parametrize("tag", KERNEL_TAGS, ids=lambda t: t.describe())
def test_gauge_kernel_is_bit_identical(tag):
    rng = np.random.default_rng(59)
    for scale in KERNEL_SCALES:
        for _ in range(40):
            x = _kernel_element(rng, tag, scale)
            u = _kernel_element(rng, tag, scale, positive=True)
            if u.is_zero():
                continue
            V = Neighborhood(u, 1.0)
            assert _bits(gauge(V, x)) == _bits(x.abs().meet(u).norm())


@pytest.mark.parametrize("tag", KERNEL_TAGS, ids=lambda t: t.describe())
def test_is_disjoint_kernel_is_bit_identical(tag):
    rng = np.random.default_rng(61)
    for scale in KERNEL_SCALES:
        for _ in range(40):
            x = _kernel_element(rng, tag, scale)
            y = _kernel_element(rng, tag, scale)
            m = x.abs().meet(y.abs()).norm()
            assert _bits(x._abs_meet_norm(y)) == _bits(m)
            size = 1.0 + x.norm() + y.norm()
            for tol in (0.0, 1e-3, m / size):
                assert is_disjoint(x, y, tol) == (m <= tol * size)


def test_membership_monotone_in_order():
    rng = np.random.default_rng(31)
    for _ in range(200):
        u = _rand_vec(rng, positive=True)
        V = Neighborhood(u, float(rng.uniform(0.05, 1.0)))
        y = _rand_vec(rng)
        x = y.abs().meet(_rand_vec(rng).abs())  # 0 <= x <= |y|
        if contains(V, y):
            assert contains(V, x)


def test_base_intersection_contained_in_both():
    rng = np.random.default_rng(41)
    for _ in range(200):
        V1 = Neighborhood(_rand_vec(rng, positive=True), float(rng.uniform(0.05, 1)))
        V2 = Neighborhood(_rand_vec(rng, positive=True), float(rng.uniform(0.05, 1)))
        W = base_intersection(V1, V2)
        assert W.eps == min(V1.eps, V2.eps)
        x = _rand_vec(rng)
        if not contains(W, x):
            x = x.scale(0.9 * W.eps / x.norm())
        assert contains(V1, x) and contains(V2, x)


def test_translate_keeps_sums_inside():
    rng = np.random.default_rng(43)
    for _ in range(200):
        V = Neighborhood(_rand_vec(rng, positive=True), float(rng.uniform(0.1, 1)))
        y = _rand_vec(rng)
        if not contains(V, y):
            y = y.scale(0.5 * V.eps / y.norm())
        W = translate(V, y)
        assert W.eps == pytest.approx(V.eps - gauge(V, y))
        z = _rand_vec(rng)
        if not contains(W, z):
            z = z.scale(0.9 * W.eps / z.norm())
        assert contains(V, y + z)


def test_translate_requires_membership():
    V = Neighborhood(unit(L2, 1), 0.5)
    with pytest.raises(NoRoom):
        translate(V, unit(L2, 1))


def test_separation_gauge_is_exact():
    rng = np.random.default_rng(47)
    for _ in range(200):
        x = _rand_vec(rng)
        V = Neighborhood(x.abs(), x.norm())
        assert gauge(V, x) == x.norm()
        assert not contains(V, x)


def test_axiom_suite_small_runs_clean():
    for tag in (lp(2), c0(), lp_step(1)):
        report = axiom_suite(tag, samples=300, rng_seed=1)
        assert report.total_failures == 0
        assert [c.axiom for c in report.checks] == [
            "zero-membership", "base-intersection", "additive-halving",
            "scalar-absorption", "hausdorff-separation",
        ]
        d = report.to_json_dict()
        assert d["total_failures"] == 0 and len(d["checks"]) == 5


def test_axiom_suite_deterministic_per_seed():
    a = axiom_suite(lp(2), samples=100, rng_seed=7).to_json_dict()
    b = axiom_suite(lp(2), samples=100, rng_seed=7).to_json_dict()
    assert a == b


#: sha256 prefixes of the elements axiom_suite(tag, samples=4, rng_seed=0)
#: samples, in order: a change that re-seeds the suite changes them
SAMPLE_DIGESTS = {
    "c0": "7bb6a5e00633f08e",
    "l1": "43793f294dbf7d66",
    "l2": "0de9c87ba65a5bee",
    "linf": "0d8c113c0fb07036",
    "l1-step": "1cf9b0ff2a1f8850",
    "l2-step": "d6d9e91cdac44898",
}


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_axiom_suite_draws_are_pinned(name):
    drawn = []
    sample = topology._sample_element

    def record(*args, **kwargs):
        x = sample(*args, **kwargs)
        drawn.append(element_to_dict(x))
        return x

    with mock.patch.object(topology, "_sample_element", side_effect=record):
        axiom_suite(tag_from_name(name), samples=4, rng_seed=0)
    assert len(drawn) == 40
    assert hashlib.sha256(json.dumps(drawn).encode()).hexdigest()[:16] == SAMPLE_DIGESTS[name]


def test_tag_from_name():
    assert tag_from_name("c0") == c0()
    assert tag_from_name("l2") == lp(2)
    assert tag_from_name("linf") == linf()
    assert tag_from_name("l1-step") == lp_step(1)
    with pytest.raises(ValidationError):
        tag_from_name("hilbert")


def test_topology_agrees_with_un_diagnostic():
    ts = ToleranceSpec()
    seq = std_units(c0(), 64)
    e = quasi_interior_point(c0())
    assert un_tail_qip(seq, zero(c0()), ts).verdict == NULL
    V = Neighborhood(e, ts.tol)
    for n in range(49, 65):
        assert contains(V, seq.at(n))

    seq_inf = std_units(linf(), 64)
    assert un_tail_qip(seq_inf, zero(linf()), ts).verdict == NOT_NULL
    W = Neighborhood(quasi_interior_point(linf(), 64), ts.tol)
    assert not any(contains(W, seq_inf.at(n)) for n in range(49, 65))
