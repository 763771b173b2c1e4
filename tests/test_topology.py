"""Neighborhood base of the unbounded-norm topology."""

import hashlib
import inspect
import json
import struct
from unittest import mock

import numpy as np
import pytest

from unlattice import jsonio, topology
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
    ones,
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
            with np.errstate(over="ignore"):  # the kernel's caller holds it
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
    with pytest.raises(ValidationError, match="axiom suite does not sample l1"):
        axiom_suite(direct_sum(), samples=1)


def test_axiom_suite_records_the_failures_of_a_wrong_membership():
    # a membership that holds nowhere fails every axiom but separation, each
    # on every sample, and keeps the first counterexample of each
    for tag, shown in ((lp(2), "{"), (lp_step(1), "step(level=")):
        with mock.patch.object(topology, "_member", lambda V, x: False):
            report = axiom_suite(tag, samples=5, rng_seed=2)
        failures = {c.axiom: (c.failures, c.first_counterexample) for c in report.checks}
        assert report.total_failures == 20 and failures["hausdorff-separation"] == (0, None)
        assert set(failures["zero-membership"][1]) == {"eps"}
        for axiom, key in (("base-intersection", "x"), ("additive-halving", "x1"),
                           ("scalar-absorption", "x")):
            count, first = failures[axiom]
            assert count == 5 and first[key].startswith(shown)
        assert report.to_json_dict()["total_failures"] == 20
    # one that holds everywhere fails only separation
    with mock.patch.object(topology, "_member", lambda V, x: True):
        report = axiom_suite(lp(2), samples=3, rng_seed=2)
    assert [c.failures for c in report.checks] == [0, 0, 0, 0, 3]
    assert report.checks[-1].first_counterexample["x"].startswith("{")


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


def _uniform_element(tag, rng, positive=False, max_index=64):
    """The suite's draw as it was written with ``Generator.uniform``: the
    reference that its ``Generator.random`` draws must match bit for bit."""
    if tag.kind == "lp_step":
        level = max(tag.measure.level, int(rng.integers(1, 7)))
        vals = rng.uniform(-1.0, 1.0, size=2 ** level)
        if positive:
            vals = np.abs(vals)
        return StepFunction._trusted(tag, level, vals)
    size = int(rng.integers(1, 9))
    support = rng.choice(max_index, size=size, replace=False) + 1
    vals = rng.uniform(-1.0, 1.0, size=size)
    if positive:
        vals = np.abs(vals)
    coords = {i: v for i, v in zip(support.tolist(), vals.tolist()) if v}
    return LatticeVector._trusted(
        tag, coords, positive or not coords or min(coords.values()) > 0.0)


def _uniform_eps(rng):
    return float(10.0 ** rng.uniform(-4.0, 0.0))


def _uniform_member(V, rng):
    x = _uniform_element(V.tag, rng)
    if topology._member(V, x):
        return x
    n = x._norm()
    if n == 0.0:
        return x
    return x.scale(0.9 * V.eps * float(rng.uniform(0.1, 1.0)) / n)


def _state(rng, seed):
    """The bit generator's state after the draws of ``rng``: a Generator's
    own, or for the suite's draw source a fresh PCG64(seed) advanced by the
    words it used and given its held half-word."""
    if isinstance(rng, np.random.Generator):
        return rng.bit_generator.state
    bits = np.random.PCG64(seed)
    bits.advance(rng.used)
    state = bits.state
    state["has_uint32"], state["uinteger"] = int(rng._has_half), rng._half
    return state


@pytest.mark.parametrize("block", [topology._BLOCK, 5])
def test_draw_source_is_the_generator_bit_for_bit(block):
    """The suite's draw source decodes PCG64 words as numpy's Generator does:
    the same values and the same state after a mixed script of its calls,
    over blocks of words that arrays and the held half-word straddle."""
    with mock.patch.object(topology, "_BLOCK", block):
        for seed in range(150):
            script = np.random.default_rng(10 ** 6 + seed)
            src, gen = topology._Draws(seed), np.random.default_rng(seed)
            for op in script.integers(0, 7, 120).tolist():
                if op == 0:
                    assert src.random().hex() == gen.random().hex()
                elif op == 1:
                    n = int(script.integers(1, 70))
                    assert src.random(n).tobytes() == gen.random(n).tobytes()
                elif op in (2, 3):
                    hi = 7 if op == 2 else 9
                    assert src.integers(1, hi) == gen.integers(1, hi)
                elif op == 4:
                    k = int(script.integers(1, 9))
                    assert src.choice(64, k) == gen.choice(64, k, replace=False).tolist()
                else:  # ranges whose Lemire rejection is ~1/2 and 0
                    hi = 2 ** 31 + 1 if op == 5 else 2 ** 32
                    assert src.integers(0, hi) == gen.integers(0, hi)
            assert _state(src, seed) == gen.bit_generator.state


def _draws(element, rng, tag, seed, positive):
    """200 elements drawn from ``rng``, and the generator's state after them."""
    drawn = [element_to_dict(element(tag, rng, positive=positive)) for _ in range(200)]
    return drawn, _state(rng, seed)


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
@pytest.mark.parametrize("positive", [False, True])
def test_axiom_suite_draws_equal_the_uniform_draws(name, positive):
    tag = tag_from_name(name)
    for seed in range(20):
        drawn = _draws(topology._sample_element, topology._Draws(seed), tag, seed, positive)
        assert drawn == _draws(_uniform_element, np.random.default_rng(seed), tag, seed, positive)


def _members(element, eps, member, rng, tag, seed):
    """The eps and a member of 200 neighborhoods drawn from ``rng``, and the
    generator's state after them."""
    drawn = []
    for _ in range(200):
        u = element(tag, rng, positive=True)
        if not u.is_zero():
            V = Neighborhood._trusted(u, eps(rng))
            drawn.append((V.eps.hex(), element_to_dict(member(V, rng))))
    return drawn, _state(rng, seed)


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_axiom_suite_eps_and_rescales_equal_the_uniform_draws(name):
    tag = tag_from_name(name)
    with np.errstate(over="ignore", invalid="ignore"):  # as the suite holds it
        for seed in range(5):
            drawn = _members(topology._sample_element, topology._sample_eps,
                             topology._sample_member, topology._Draws(seed), tag, seed)
            assert drawn == _members(_uniform_element, _uniform_eps, _uniform_member,
                                     np.random.default_rng(seed), tag, seed)


#: sha256 prefixes of jsonio.dumps of axiom_suite(tag, 300, seed), and of
#: every (u, eps, x) the suite's membership tests see in axiom_suite(tag, 50,
#: seed): the reports and the draws of the uniform sampler
SUITE_DIGESTS = {
    ("c0", 3): ("67c40058d235ec10", "b3ed0e69fdcb125c"),
    ("c0", 11): ("32e7a469326c3842", "4140e49f30318c05"),
    ("l1", 3): ("da89cdede6bf780f", "24367c7230efc13f"),
    ("l1", 11): ("83ebaddd7dc51337", "33432cb1fa28bc2b"),
    ("l2", 3): ("f09d847086cc4b4b", "244dfbf7d275129e"),
    ("l2", 11): ("ad5d002798a79b44", "8a3684c4b39d4bdc"),
    ("linf", 3): ("d4bb0075a2ca5664", "844fd2f6060d10eb"),
    ("linf", 11): ("87d970b1329d0a22", "9e450e8058f26dad"),
    ("l1-step", 3): ("d797d313ed73823f", "34077fd515cb8fa1"),
    ("l1-step", 11): ("a0a14d90395e1ca8", "3481ce9c21bb8c43"),
    ("l2-step", 3): ("efb86c3fd845d39c", "dcc9d03f5e7bd257"),
    ("l2-step", 11): ("64e67c46a3c68a6c", "9815648e530cd425"),
    ("l1.5", 3): ("59369826270c9803", "bf39581dd249b3b3"),
    ("l1.5", 11): ("c1b1c72e1f1c9432", "fa4a44df593118fb"),
    ("l1.5-step-weighted", 3): ("b97cd175d49c6877", "d7833276195ad10c"),
    ("l1.5-step-weighted", 11): ("962e066ca0c37ae9", "510e141ecd362454"),
}

#: the SUITE_DIGESTS tags that tag_from_name does not name: a non-uniform
#: measure at level 2, so a drawn level 1 is raised to the measure's
_SUITE_TAGS = {"l1.5-step-weighted": lp_step(1.5, MeasureModel(2, (0.1, 0.2, 0.3, 0.4)))}


@pytest.mark.parametrize("name, seed", sorted(SUITE_DIGESTS))
def test_axiom_suite_reports_and_memberships_are_pinned(name, seed):
    tag = _SUITE_TAGS[name] if name in _SUITE_TAGS else tag_from_name(name)
    report = jsonio.dumps(axiom_suite(tag, 300, seed).to_json_dict())
    seen = hashlib.sha256()
    member = topology._member

    def record(V, x):
        seen.update(json.dumps([element_to_dict(V.u), V.eps.hex(), element_to_dict(x)]).encode())
        return member(V, x)

    with mock.patch.object(topology, "_member", side_effect=record):
        axiom_suite(tag, 50, seed)
    assert (hashlib.sha256(report.encode()).hexdigest()[:16],
            seen.hexdigest()[:16]) == SUITE_DIGESTS[name, seed]


def test_tag_from_name():
    assert tag_from_name("c0") == c0()
    assert tag_from_name("l2") == lp(2)
    assert tag_from_name("linf") == linf()
    assert tag_from_name("l1-step") == lp_step(1)
    with pytest.raises(ValidationError):
        tag_from_name("hilbert")


def test_tag_from_name_takes_only_the_listed_forms():
    assert tag_from_name("L1.5") == lp(1.5)
    assert tag_from_name("l3-step") == lp_step(3)
    for name in ("l1-step-x", "l2-anystep", "l1-stepper", "l2-step-step", "l-step", "lstep",
                 "l", "l1.2.3", "l.", "l2-", "l 2", "l+2", "l1e0", "lnan", "linfinity", "l2_0",
                 "l2-STEP-1", "c0-step", "linf-step"):
        with pytest.raises(ValidationError, match="unknown space name"):
            tag_from_name(name)
    with pytest.raises(ValidationError, match="lp spaces need a finite p >= 1"):
        tag_from_name("l0.5-step")


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
    W = Neighborhood(ones(linf(), 64), ts.tol)
    assert not any(contains(W, seq_inf.at(n)) for n in range(49, 65))
