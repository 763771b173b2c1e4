"""Neighborhood base of the unbounded-norm topology."""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from unlattice import topology
from unlattice.convergence import NOT_NULL, NULL, ToleranceSpec, un_tail_qip, zero
from unlattice.errors import NoRoom, ValidationError
from unlattice.gallery import std_units
from unlattice.spaces import (
    LatticeVector,
    c0,
    element_to_dict,
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
