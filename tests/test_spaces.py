"""Element models: lattice algebra, norms, tags, serialization."""

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlattice import convergence, spaces, topology
from unlattice.constructive import riesz_decompose, uo_extract
from unlattice.convergence import ToleranceSpec, un_tail_qip
from unlattice.errors import NegativeInput, TagMismatch, ValidationError
from unlattice.gallery import std_units
from unlattice.spaces import (
    DirectSumVector,
    LatticeVector,
    MeasureModel,
    SpaceTag,
    StepFunction,
    c0,
    check_tags,
    constant_one,
    direct_sum,
    element_from_dict,
    element_to_dict,
    elements_from_dicts,
    indicator,
    is_disjoint,
    linf,
    lp,
    lp_step,
    ones,
    quasi_interior_point,
    tag_from_dict,
    truncate,
    unit,
    zero,
)

L2 = lp(2)

coords_st = st.dictionaries(
    st.integers(min_value=1, max_value=24),
    st.floats(min_value=-10, max_value=10, allow_nan=False, width=32),
    max_size=6,
)


def vec(coords, tag=L2):
    return LatticeVector(tag, coords)


# ---------------------------------------------------------------------------
# lattice algebra
# ---------------------------------------------------------------------------

@given(coords_st, coords_st)
def test_meet_join_commute(a, b):
    x, y = vec(a), vec(b)
    assert x.meet(y).coords == y.meet(x).coords
    assert x.join(y).coords == y.join(x).coords


@given(coords_st, coords_st)
def test_absorption(a, b):
    x, y = vec(a), vec(b)
    assert x.meet(x.join(y)).coords == x.coords
    assert x.join(x.meet(y)).coords == x.coords


@given(coords_st)
def test_parts_reassemble(a):
    x = vec(a)
    assert (x.pos() - x.neg()).coords == x.coords
    assert (x.pos() + x.neg()).coords == x.abs().coords
    assert x.pos().meet(x.neg()).is_zero()


@given(coords_st, coords_st)
def test_meet_plus_join_identity(a, b):
    x, y = vec(a).abs(), vec(b).abs()
    lhs = x.meet(y) + x.join(y)
    rhs = x + y
    assert lhs.approx_eq(rhs)


def test_positive_meet_matches_generic():
    rng = np.random.default_rng(7)
    for _ in range(200):
        sa = rng.choice(np.arange(1, 40), size=rng.integers(1, 8), replace=False)
        sb = rng.choice(np.arange(1, 40), size=rng.integers(1, 8), replace=False)
        x = vec({int(i): float(v) for i, v in zip(sa, rng.uniform(0.01, 2, sa.size))})
        y = vec({int(i): float(v) for i, v in zip(sb, rng.uniform(0.01, 2, sb.size))})
        expected = {i: min(x[i], y[i]) for i in x.support & y.support}
        assert x.meet(y).coords == expected


def test_meet_with_signs():
    x = vec({1: -2.0, 2: 3.0})
    y = vec({1: 1.0, 3: -1.0})
    assert x.meet(y).coords == {1: -2.0, 3: -1.0}
    # positivity is a property of each operand, derived ones included
    assert vec({1: 1.0}).meet(vec({2: -1.0})).coords == {2: -1.0}
    assert vec({1: 2.0}).scale(-1.0).meet(vec({2: 1.0})).coords == {1: -2.0}
    assert x.join(y).coords == {1: 1.0, 2: 3.0}
    assert x.abs().coords == {1: 2.0, 2: 3.0}


@given(coords_st, coords_st)
def test_leq_defines_meet(a, b):
    x, y = vec(a), vec(b)
    m = x.meet(y)
    assert m.leq(x) and m.leq(y)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_sequence_norms():
    coords = {1: 1.0, 2: -2.0}
    assert vec(coords, lp(1)).norm() == 3.0
    assert vec(coords, lp(2)).norm() == pytest.approx(math.sqrt(5.0))
    assert vec(coords, lp(3)).norm() == pytest.approx(9.0 ** (1 / 3))
    assert vec(coords, linf()).norm() == 2.0
    assert vec(coords, c0()).norm() == 2.0
    assert zero(L2).norm() == 0.0
    # power sums that underflow or overflow are rescaled by the largest modulus
    tiny = {1: 2.0 ** -600}
    assert vec(tiny, lp(2)).norm() == 2.0 ** -600
    assert vec(tiny, lp(3)).norm() == 2.0 ** -600
    huge = vec({1: 1e200, 2: 1e200}, lp(2)).norm()
    assert abs(huge - 1e200 * math.sqrt(2)) <= math.ulp(huge)
    assert vec({1: 1e200}, lp(3)).norm() == 1e200


@given(coords_st, coords_st)
def test_norm_triangle_and_monotone(a, b):
    x, y = vec(a), vec(b)
    assert (x + y).norm() <= x.norm() + y.norm() + 1e-12
    assert x.abs().meet(y.abs()).norm() <= min(x.norm(), y.norm()) + 1e-12


def test_step_norms():
    tag = lp_step(1)
    f = StepFunction(tag, 1, np.array([1.0, -1.0]))
    assert f.norm() == 1.0
    g = StepFunction(lp_step(2), 1, np.array([1.0, -1.0]))
    assert g.norm() == 1.0
    # non-uniform measure: mass concentrates on the first cell
    mu = MeasureModel(1, (0.75, 0.25))
    h = StepFunction(lp_step(1, mu), 1, np.array([2.0, 4.0]))
    assert h.norm() == pytest.approx(0.75 * 2 + 0.25 * 4)
    # power sums that underflow or overflow are rescaled by the largest modulus
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert StepFunction(lp_step(2), 0, np.array([1e-200])).norm() == 1e-200
        huge = StepFunction(lp_step(2, level=1), 1, np.array([1e200, 1e200])).norm()
        assert abs(huge - 1e200) <= math.ulp(huge)
        assert StepFunction(lp_step(3), 0, np.array([1e200])).norm() == 1e200
        assert StepFunction(lp_step(2, level=1), 1, np.zeros(2)).norm() == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_step_norm_past_the_float_range_is_inf_without_a_warning(p):
    # cell weights of 3.0 take w * |v|**p past the float range, at every p and
    # in one cell at p = 1; the norm is inf, one step function or a block row
    big = [StepFunction(lp_step(p, MeasureModel(1, (3.0, 3.0))), 1, np.array([1.5e308] * 2))]
    if p == 1.0:
        big.append(StepFunction(lp_step(p, MeasureModel(0, (3.0,))), 0, np.array([1e308])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in big:
            assert x.norm() == math.inf
            seq = convergence.sequence_from_list([x, x])
            assert convergence._tail_norms(seq, zero(x.tag)).tolist() == [[math.inf]] * 2


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_a_weightless_cell_adds_nothing_to_a_step_norm(p):
    # |v|**p overflows on the cell of weight 0, so the power sum is nan; the
    # rescale takes the largest modulus of a cell of positive weight, not 1e300
    tag = lp_step(p, MeasureModel(1, (0.0, 1.0)))
    x = StepFunction(tag, 1, np.array([1e300, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert x.norm() == 2.0
        seq = convergence.sequence_from_list([x, x])
        assert convergence._tail_norms(seq, zero(tag)).tolist() == [[2.0]] * 2
        assert topology.gauge(topology.Neighborhood(x.abs(), 1.0), x) == 2.0
        assert not is_disjoint(x, x)
        # a sum that underflows is rescaled by the same modulus
        assert StepFunction(tag, 1, np.array([1.0, 1e-250])).norm() == 1e-250


def test_step_norm_batches_past_the_float_range_are_inf_without_a_warning():
    # the callers that hold one errstate for a batch of step norms
    big = StepFunction(lp_step(1, MeasureModel(1, (3.0, 3.0))), 1, np.array([1.5e308] * 2))
    V = topology.Neighborhood(big.abs(), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert topology.gauge(V, big) == math.inf and not topology.contains(V, big)
        assert not is_disjoint(big, big)
        witness = riesz_decompose(big, big.abs(), zero(big.tag))
        assert witness.y.values.tolist() == big.values.tolist()
        out = uo_extract(convergence.sequence_from_list([big, big]), ToleranceSpec())
        assert out.test_vector.is_zero()


def test_direct_sum_norm_is_max():
    x = DirectSumVector(vec({1: 1.0, 2: 1.0}, lp(1)), vec({1: 0.5}, linf()))
    assert x.norm() == 2.0
    assert x.abs().norm() == 2.0
    assert (-x).norm() == 2.0


def test_direct_sum_join_and_meet_are_part_by_part():
    # parts that cross, so that the join and the meet differ in both parts
    x = DirectSumVector(vec({1: 1.0, 2: -1.0}, lp(1)), vec({1: 2.0, 3: -0.5}, linf()))
    y = DirectSumVector(vec({1: 0.5, 2: 1.0}, lp(1)), vec({1: -1.0, 3: 1.0}, linf()))
    join, meet = x.join(y), x.meet(y)
    assert (join.left.coords, join.right.coords) == ({1: 1.0, 2: 1.0}, {1: 2.0, 3: 1.0})
    assert (meet.left.coords, meet.right.coords) == ({1: 0.5, 2: -1.0}, {1: -1.0, 3: -0.5})
    assert join.left.tag == lp(1) and join.right.tag == linf()
    assert (join + meet).left.coords == (x + y).left.coords  # x \/ y + x /\ y = x + y
    assert (join + meet).right.coords == (x + y).right.coords


def test_direct_sum_span_norm_identity():
    # the span of the paired units is isometric to l1
    rng = np.random.default_rng(3)
    for _ in range(50):
        alphas = rng.uniform(-2, 2, size=rng.integers(1, 9))
        s = zero(direct_sum())
        for k, a in enumerate(alphas, start=1):
            s = s + DirectSumVector(unit(lp(1), k), unit(linf(), k)).scale(float(a))
        assert s.norm() == pytest.approx(float(np.abs(alphas).sum()), abs=1e-12)


# ---------------------------------------------------------------------------
# tags and validation
# ---------------------------------------------------------------------------

def test_tag_mismatch():
    with pytest.raises(TagMismatch):
        vec({1: 1.0}, lp(1)).meet(vec({1: 1.0}, lp(2)))
    with pytest.raises(TagMismatch):
        vec({1: 1.0}, c0()) + vec({1: 1.0}, linf())
    # a direct-sum vector against a vector of another family, either way round
    ds, x = DirectSumVector(vec({1: 1.0}, lp(1)), vec({1: 1.0}, linf())), vec({1: 1.0}, lp(1))
    for refused in (lambda: ds.leq(x), lambda: ds.meet(x), lambda: ds + x, lambda: x.leq(ds)):
        with pytest.raises(TagMismatch):
            refused()


def test_step_tags_compatible_across_levels():
    f = StepFunction(lp_step(1), 0, np.array([1.0]))
    g = StepFunction(lp_step(1), 2, np.array([1.0, 0.0, 2.0, 0.0]))
    assert (f + g).values.tolist() == [2.0, 1.0, 3.0, 1.0]
    mu = MeasureModel(1, (0.7, 0.3))
    h = StepFunction(lp_step(1, mu), 1, np.array([1.0, 1.0]))
    with pytest.raises(TagMismatch):
        f.meet(h)
    check_tags(lp_step(1, mu), lp_step(1, mu.refined(3)))
    check_tags(lp_step(1, mu.refined(3)), lp_step(1, MeasureModel(2, (0.35, 0.35, 0.15, 0.15))))
    # equal levels, different weights
    with pytest.raises(TagMismatch):
        check_tags(lp_step(1, mu), lp_step(1, MeasureModel(1, (0.3, 0.7))))
    with pytest.raises(TagMismatch):
        check_tags(lp_step(1, mu.refined(2)), lp_step(1, MeasureModel(2, (0.35, 0.35, 0.3, 0.0))))
    with pytest.raises(TagMismatch):
        check_tags(lp_step(1, mu), lp_step(2, mu))


def test_weight_arrays_are_cached_and_read_only():
    mu = MeasureModel(1, (0.75, 0.25))
    for level in (1, 3):
        w = mu.weight_array(level)
        assert w is mu.weight_array(level)
        assert not w.flags.writeable
        assert w.tolist() == list(mu.refined(level).weights)
    assert mu.weight_array(3).tolist() == [0.1875] * 4 + [0.0625] * 4


def test_vector_validation():
    with pytest.raises(ValidationError):
        vec({0: 1.0})
    with pytest.raises(ValidationError):
        vec({2 ** 62: 1.0})  # indices must fit numpy's int64 blocks
    assert vec({2 ** 62 - 1: 1.0}).norm() == 1.0
    with pytest.raises(ValidationError):
        vec({1: float("nan")})
    with pytest.raises(ValidationError):
        StepFunction(lp_step(1), 1, np.array([1.0]))
    with pytest.raises(ValidationError):
        StepFunction(c0(), 0, np.array([1.0]))
    for refused, message in (
            (lambda: MeasureModel(1, (0.0, 0.0)), "total mass must be positive"),
            (lambda: MeasureModel(-1, (1.0,)), "measure level must be >= 0"),
            (lambda: MeasureModel(0, (-1.0,)), "cell weights must be finite and >= 0"),
            (lambda: MeasureModel(2, (0.25,) * 4).refined(1), "cannot coarsen a measure"),
            # the one subnormal weight halves to 0.0
            (lambda: MeasureModel(0, (5e-324,)).refined(1), "total mass must be positive"),
            (lambda: SpaceTag("c0", p=2.0), "c0 takes no exponent"),
            (lambda: SpaceTag("lp_step", p=1.0), "lp_step needs a MeasureModel"),
            (lambda: SpaceTag("c0", measure=MeasureModel(0, (1.0,))), "c0 takes no measure"),
            (lambda: LatticeVector(lp_step(1), {1: 1.0}), "requires a sequence-space tag"),
            (lambda: ones(lp_step(1)), "requires a sequence-space tag"),
            (lambda: constant_one(c0()), "requires an lp_step tag"),
            (lambda: DirectSumVector(vec({1: 1.0}, lp(2)), zero(linf())),
             "left part must carry the l1 tag"),
            (lambda: DirectSumVector(zero(lp(1)), vec({1: 1.0}, c0())),
             "right part must carry the linf tag")):
        with pytest.raises(ValidationError, match=message):
            refused()
    with pytest.raises(ValidationError):
        lp(0.5)
    for p in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            SpaceTag("lp", p=p)
        with pytest.raises(ValidationError):
            lp_step(p)


def test_checked_results_overflow_and_underflow():
    big = vec({1: 1e308})
    with pytest.raises(ValidationError):
        big + big
    with pytest.raises(ValidationError):
        vec({1: 1e300}).scale(1e10)
    with pytest.raises(ValidationError):
        vec({1: 1.0}).scale(math.nan)
    tiny = vec({1: 2.0 ** -600, 2: -1.0})
    for r in (tiny - tiny, tiny.scale(0.0), vec({1: 2.0 ** -600}).scale(2.0 ** -600)):
        assert r.coords == {} and r.is_zero()
    # a zero produced by a signed meet or join is dropped too
    assert vec({1: -1.0}).meet(vec({2: 1.0})).coords == {1: -1.0}
    assert vec({1: -1.0}).join(vec({2: 1.0})).coords == {2: 1.0}

    tag = lp_step(1)
    big = StepFunction(tag, 0, np.array([1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(ValidationError):
            big + big
        with pytest.raises(ValidationError):
            StepFunction(tag, 0, np.array([1e300])).scale(1e10)
        with pytest.raises(ValidationError):
            big * big
    tiny = StepFunction(tag, 0, np.array([2.0 ** -600]))
    for r in (tiny - tiny, tiny.scale(0.0), tiny.scale(2.0 ** -600)):
        assert r.is_zero()


def test_step_overflow_raises_without_warning():
    tag = lp_step(1)
    big = StepFunction(tag, 0, np.array([1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for overflow in (lambda: big + big, lambda: big - big.scale(-1.0),
                         lambda: big.scale(1e10), lambda: big * big,
                         lambda: big.scale(math.inf)):
            with pytest.raises(ValidationError):
                overflow()


@given(coords_st, coords_st, st.floats(min_value=-4, max_value=4),
       st.floats(min_value=0, max_value=20))
def test_results_keep_vector_invariants(a, b, c, slack):
    x, y = vec(a), vec(b)
    raw = {i: v * c for i, v in a.items()}  # zeros and signs for _checked
    for r in (x.abs(), x.pos(), x.neg(), x.abs().meet(y.abs()), x.meet(y), x.join(y),
              x + y, x - y, x.scale(c), LatticeVector._checked(L2, raw)):
        # validating a result again changes nothing
        again = LatticeVector(r.tag, r.coords)
        assert r.coords == again.coords and r._positive == again._positive
        assert all(type(i) is int and i >= 1 for i in r.coords)
        assert all(type(v) is float and v != 0.0 for v in r.coords.values())
        # is_positive may trust the flag
        assert r._positive == all(v > 0 for v in r.coords.values())
        for s in (0.0, slack):
            assert r.is_positive(s) == all(v >= -s for v in r.coords.values())


def test_step_results_own_read_only_values():
    mu = MeasureModel(1, (0.75, 0.25))
    tag = lp_step(2, mu)
    raw = np.array([1.5, -2.0])
    f = StepFunction(tag, 1, raw)
    g = StepFunction(tag, 2, np.array([0.5, -1.0, 3.0, 0.0]))
    results = (f.abs(), f.pos(), f.neg(), f.meet(g), f.join(g), f.meet(f), f.refined(3),
               f + g, f - g, f * g, f.scale(2.0))
    for r in results:
        v = r.values
        assert v.dtype == np.float64 and v.shape == (2 ** r.level,)
        assert not v.flags.writeable and v.flags.owndata
        assert not np.shares_memory(v, raw) and not np.shares_memory(v, f.values)
        assert not np.shares_memory(v, g.values)
        assert np.isfinite(v).all()
    assert f.refined(3).values.tolist() == [1.5] * 4 + [-2.0] * 4
    assert f.meet(g).values.tolist() == [0.5, -1.0, -2.0, -2.0]
    assert f.neg().values.tolist() == [0.0, 2.0]


def test_zero_coords_dropped():
    x = vec({1: 0.0, 2: 3.0})
    assert x.support == {2}
    assert not x.is_zero()
    assert vec({5: 0.0}).is_zero()


def test_step_values_immutable():
    f = constant_one(lp_step(1))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


# ---------------------------------------------------------------------------
# quasi-interior points, truncation, disjointness
# ---------------------------------------------------------------------------

def test_quasi_interior_points():
    e = quasi_interior_point(c0(), horizon=8)
    assert e.coords == {n: 2.0 ** -n for n in range(1, 9)}
    f = quasi_interior_point(lp_step(2, level=2))
    assert f.values.tolist() == [1.0] * 4
    for tag in (c0(), lp(1), lp_step(1)):
        q = quasi_interior_point(tag, horizon=16)
        assert q.is_positive() and not q.is_zero()
    # linf's strong unit 1 and the direct sum's (2**-n) (+) 1 are read in
    # closed form by un_tail_qip; no finite horizon stores them as one element
    for tag in (linf(), direct_sum()):
        with pytest.raises(ValidationError, match="^no canonical quasi-interior point for "):
            quasi_interior_point(tag, horizon=4)


def test_quasi_interior_point_memory_is_bounded():
    # 2**-n is 0.0 past n = 1074: a larger horizon stores no more coordinates
    for tag in (c0(), lp(2)):
        e = quasi_interior_point(tag, horizon=2 ** 40)
        assert e.coords == {n: 2.0 ** -n for n in range(1, 1075)}
        assert e.coords == quasi_interior_point(tag, horizon=1074).coords
    # the linf point would store every coordinate, so un_qip reads the strong
    # unit 1 in closed form instead and builds no point at any horizon
    seq = std_units(linf(), 8)
    with mock.patch.object(convergence, "quasi_interior_point",
                           side_effect=AssertionError("allocated")):
        report = un_tail_qip(seq, zero(linf()), ToleranceSpec(), horizon=2 ** 40)
    assert report.values == [1.0] * 8 and report.extras["qip_horizon"] == 2 ** 40


def test_truncate_example():
    u = ones(c0(), horizon=8)
    e = quasi_interior_point(c0(), horizon=8)
    t = truncate(u, e, 4)
    assert t.coords == {1: 1.0, 2: 1.0, 3: 0.5, 4: 0.25,
                        5: 0.125, 6: 0.0625, 7: 0.03125, 8: 0.015625}


def test_truncate_monotone_in_m():
    u = ones(c0(), horizon=16)
    e = quasi_interior_point(c0(), horizon=16)
    prev = truncate(u, e, 1)
    for m in range(2, 12):
        cur = truncate(u, e, m)
        assert prev.leq(cur)
        assert cur.leq(u)
        prev = cur


def test_truncate_rejects_bad_input():
    u = ones(c0(), 4)
    e = quasi_interior_point(c0(), 4)
    with pytest.raises(ValidationError):
        truncate(u, e, 0)
    with pytest.raises(NegativeInput):
        truncate(vec({1: -1.0}, c0()), e, 1)


def test_is_disjoint():
    assert is_disjoint(unit(L2, 1), unit(L2, 2))
    assert is_disjoint(unit(L2, 1).scale(-3), unit(L2, 2))
    assert not is_disjoint(unit(L2, 1), unit(L2, 1))
    tag = lp_step(1)
    assert is_disjoint(indicator(tag, 2, 0), indicator(tag, 2, 3))
    assert not is_disjoint(indicator(tag, 1, 0), indicator(tag, 2, 1))
    # tol gives relative slack
    x = unit(L2, 1)
    y = unit(L2, 1).scale(1e-14) + unit(L2, 2)
    assert not is_disjoint(x, y)
    assert is_disjoint(x, y, tol=1e-12)
    with pytest.raises(ValidationError, match="tol must be >= 0"):
        is_disjoint(x, y, tol=-1.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _roundtrip(x):
    return element_from_dict(element_to_dict(x))


def test_roundtrip_sequence_vector():
    x = vec({3: -1.5, 7: 2.0}, lp(1))
    y = _roundtrip(x)
    assert y.tag == x.tag and y.coords == x.coords
    with pytest.raises(ValidationError, match="cannot serialize float"):
        element_to_dict(3.0)


def test_roundtrip_step_function():
    mu = MeasureModel(1, (0.25, 0.75))
    f = StepFunction(lp_step(2, mu), 2, np.array([1.0, -2.0, 0.0, 0.5]))
    g = _roundtrip(f)
    assert g.tag == f.tag and g.level == f.level
    assert g.values.tolist() == f.values.tolist()


def test_literal_coordinates_convert_once_and_the_later_entry_wins():
    def literal(coords):
        return element_from_dict({"tag": {"kind": "c0"}, "coords": coords})

    assert literal({"1": 5.0, "01": 0.0}).is_zero()
    for coords in ({"1": 5.0, "01": 3.0}, {"1": -5.0, "01": 3.0}, {"1": 0.0, "01": 3.0}):
        x = literal(coords)
        assert x.coords == {1: 3.0} and x._positive
    x = literal({"2": 1.0, "1": 5.0, "01": -3.0})
    assert x.coords == {2: 1.0, 1: -3.0} and not x._positive
    with pytest.raises(ValidationError, match="malformed element literal"):
        literal({"x": 1.0})
    with pytest.raises(ValidationError, match="malformed element literal"):
        element_from_dict({"tag": {"kind": "lp_step", "p": 1.0,
                                   "measure": {"level": 0, "weights": [1.0]}},
                           "level": 0, "values": ["a"]})


STEP_TAG_LITERAL = {"kind": "lp_step", "p": 1,
                    "measure": {"level": 2, "weights": [0.1, 0.2, 0.3, 0.4]}}


def test_json_parsed_step_literals_share_one_tag():
    literals = [{"tag": STEP_TAG_LITERAL, "level": 2 + n % 2, "values": [float(n)] * (4 << n % 2)}
                for n in range(6)]
    xs = elements_from_dicts(json.loads(json.dumps(literals)))
    assert all(x.tag is xs[0].tag for x in xs)
    assert xs[0].tag == tag_from_dict(STEP_TAG_LITERAL)


class _CountedWeights(list):
    reads = 0

    def __iter__(self):
        type(self).reads += 1
        return super().__iter__()


@pytest.mark.parametrize("count", [2, 7])
def test_a_shared_tag_literal_builds_its_key_once(count):
    """Literals that hold one tag dict object read its weights as often
    whatever their number; a different tag between them is read again."""
    shared = dict(STEP_TAG_LITERAL, measure=dict(STEP_TAG_LITERAL["measure"],
                                                 weights=_CountedWeights([0.1, 0.2, 0.3, 0.4])))
    other = {"kind": "lp_step", "p": 2.0, "measure": {"level": 1, "weights": [0.25, 0.75]}}
    literals = [{"tag": shared, "level": 2, "values": [float(n)] * 4} for n in range(count)]
    _CountedWeights.reads = 0
    xs = elements_from_dicts(literals)
    assert _CountedWeights.reads == 2  # the key once, tag_from_dict once
    assert all(x.tag is xs[0].tag for x in xs) and xs[0].tag == tag_from_dict(STEP_TAG_LITERAL)
    mixed = literals[:1] + [{"tag": other, "level": 1, "values": [1.0, 2.0]}] + literals[1:]
    ys = elements_from_dicts(mixed)
    assert [y.tag.p for y in ys] == [1.0, 2.0] + [1.0] * (count - 1)
    assert ys[0].tag is ys[-1].tag


def test_equal_tag_literals_give_one_tag():
    measure = STEP_TAG_LITERAL["measure"]
    variants = [
        STEP_TAG_LITERAL,
        dict(STEP_TAG_LITERAL, p=1.0),
        dict(STEP_TAG_LITERAL, measure=dict(measure, level=2.0)),
        {"measure": {"weights": measure["weights"], "level": 2}, "p": 1, "kind": "lp_step"},
        dict(STEP_TAG_LITERAL, measure=dict(measure, weights=list(measure["weights"]))),
    ]
    literals = [{"tag": tag, "level": 2, "values": [1.0, 0.0, 2.0, 0.0]} for tag in variants]
    for ds in (literals, json.loads(json.dumps(literals))):
        tags = [x.tag for x in elements_from_dicts(ds)]
        assert all(tag is tags[0] for tag in tags)
        # repr tells 1 from 1.0 and -0.0 from 0.0, which == does not
        assert all(repr(tag_from_dict(d["tag"])) == repr(tags[0]) for d in ds)
    assert tags[0].p == 1.0 and type(tags[0].p) is float


def test_signed_zero_weights_give_one_tag():
    tags = [dict(STEP_TAG_LITERAL, measure={"level": 1, "weights": [w, 1.0]})
            for w in (-0.0, 0.0, 0)]
    xs = elements_from_dicts([{"tag": tag, "level": 1, "values": [1.0, 1.0]} for tag in tags])
    assert all(x.tag is xs[0].tag for x in xs)
    assert all(repr(tag_from_dict(tag)) == repr(xs[0].tag) for tag in tags)
    assert math.copysign(1.0, xs[0].tag.measure.weights[0]) == 1.0


def test_compatible_measures_written_out_keep_their_own_tags():
    mu = MeasureModel(1, (0.7, 0.3))
    direct = [StepFunction(lp_step(1, mu.refined(2)), 2, np.array([1.0, -2.0, 0.5, 0.0])),
              StepFunction(lp_step(1, mu), 1, np.array([3.0, -0.25])),
              StepFunction(lp_step(1, mu.refined(2)), 2, np.array([0.0, 0.0, 1.0, 1.0]))]
    literals = json.loads(json.dumps([element_to_dict(x) for x in direct]))
    xs = elements_from_dicts(literals)
    assert xs[0].tag is xs[2].tag and xs[0].tag is not xs[1].tag
    assert [x.tag.measure.level for x in xs] == [2, 1, 2]
    ts = ToleranceSpec()
    a = convergence.sequence_from_list(direct)
    b = convergence.sequence_from_list(xs)
    for report in (lambda s: convergence.norm_tail(s, zero(s.tag), ts),
                   lambda s: convergence.un_tail_qip(s, zero(s.tag), ts),
                   lambda s: convergence.in_measure_tail(s, 0.5, ts)):
        assert report(b).values == report(a).values
    assert convergence.norm_tail(b, zero(b.tag), ts).values == [x.norm() for x in direct]


def test_measures_that_differ_in_the_last_cell_keep_their_own_tags():
    tags = [dict(STEP_TAG_LITERAL, measure={"level": 4, "weights": [1.0] * 15 + [w]})
            for w in (1.0, 2.0, 3.0, 2)]
    xs = elements_from_dicts([{"tag": tag, "level": 4, "values": [1.0] * 16} for tag in tags])
    assert [x.tag.measure.weights[-1] for x in xs] == [1.0, 2.0, 3.0, 2.0]
    assert len({id(x.tag) for x in xs}) == 3 and xs[3].tag is xs[1].tag
    assert [x.tag for x in xs] == [tag_from_dict(tag) for tag in tags]


def test_unkeyable_tag_literals_keep_their_refusals():
    bad = [{"kind": ["lp"]}, {"kind": "lp", "p": "1"}, {"kind": "lp", "p": 10 ** 400},
           dict(STEP_TAG_LITERAL, measure={"level": 1, "weights": [[1.0], 1.0]}),
           dict(STEP_TAG_LITERAL, measure={"level": 1, "weights": "ab"}), "c0", 5]
    for tag in bad:
        literal = {"tag": tag, "coords": {"1": 1.0}, "level": 1, "values": [1.0, 1.0]}
        with pytest.raises(ValidationError) as single:
            element_from_dict(literal)
        with pytest.raises(ValidationError) as batch:
            elements_from_dicts([literal, literal])
        assert str(batch.value) == str(single.value)


def _decode_each(ds):
    """elements_from_dicts with every literal decoded on its own, as the
    per-element path does: the reference for the grouped and CSR decodings."""
    with mock.patch.object(spaces, "_step_elements", return_value=None), \
            mock.patch.object(spaces, "_sparse_rows", return_value=None):
        return elements_from_dicts(ds)


def _random_step_literals(rng, count):
    """Step literals over two measures, at mixed levels, each tag written in
    one of several equal ways; among the float values are ints, bools, -0.0
    and subnormal values, and some rows are tuples."""
    other = {"kind": "lp_step", "p": 2.0, "measure": {"level": 1, "weights": [0.25, 0.75]}}
    measure = STEP_TAG_LITERAL["measure"]
    tags = [STEP_TAG_LITERAL, dict(STEP_TAG_LITERAL, p=1.0),
            dict(STEP_TAG_LITERAL, measure=dict(measure, level=2.0)),
            {"measure": {"weights": list(measure["weights"]), "level": 2}, "p": 1,
             "kind": "lp_step"},
            other, dict(other, p=2)]
    literals = []
    for _ in range(count):
        tag = tags[int(rng.integers(len(tags)))]
        level = tag["measure"]["level"] + int(rng.integers(0, 3))
        values = rng.normal(size=2 ** int(level)) * (rng.random(2 ** int(level)) < 0.7)
        kinds = rng.choice(5, values.size, p=[0.6, 0.1, 0.1, 0.1, 0.1])
        values = [(v, -0.0, v * 1e-310, round(v * 4), v > 0)[k]
                  for v, k in zip(values.tolist(), kinds)]
        literals.append({"tag": tag, "level": level,
                         "values": tuple(values) if rng.random() < 0.3 else values})
    return literals


def _bits(literal):
    """``literal`` with every float written by its hex, so that == compares
    floats bit for bit, -0.0 apart from 0.0."""
    if isinstance(literal, float):
        return literal.hex()
    if isinstance(literal, dict):
        return {k: _bits(v) for k, v in literal.items()}
    if isinstance(literal, list):
        return [_bits(v) for v in literal]
    return literal


@pytest.mark.parametrize("seed", range(6))
def test_grouped_step_literals_decode_as_each_alone(seed):
    literals = _random_step_literals(np.random.default_rng(seed), 40)
    for ds in (literals, json.loads(json.dumps(literals))):
        xs, ys = elements_from_dicts(ds), _decode_each(ds)
        assert isinstance(xs, spaces.StepRows) and len(xs) == len(ys) == len(ds)
        for x, y in zip(xs, ys):
            assert type(x) is StepFunction and x.tag == y.tag
            assert x.level == y.level and type(x.level) is int
            assert x.values.dtype == y.values.dtype
            assert _bits(element_to_dict(x)) == _bits(element_to_dict(y))
            assert not x.values.flags.writeable
            with pytest.raises(ValueError):
                x.values[0] = 1.0
        # the same tag objects are shared, and between the same elements
        assert [[a.tag is b.tag for b in xs] for a in xs] == [[a.tag is b.tag for b in ys]
                                                              for a in ys]
        assert len({id(x.tag) for x in xs}) == 2
        # each element is a row of one block per (tag, level) group, made anew
        # on each access
        blocks = {(id(x.tag), x.level): x.values.base for x in xs}
        assert all(x.values.base is blocks[id(x.tag), x.level] for x in xs)
        assert xs[0] is not xs[0] and _bits(element_to_dict(xs[-1])) == _bits(
            element_to_dict(xs[len(ds) - 1]))  # a negative index
        with pytest.raises(IndexError):
            xs[len(ds)]


def test_a_list_with_other_literals_decodes_each_alone():
    ds = [{"tag": STEP_TAG_LITERAL, "level": 2, "values": [1.0, 2.0, 3.0, 4.0]},
          {"tag": {"kind": "c0"}, "coords": {"3": 1.5}}]
    for literals in (ds, ds[::-1]):
        xs, ys = elements_from_dicts(literals), _decode_each(literals)
        assert [type(x) for x in xs] == [type(y) for y in ys]
        assert [element_to_dict(x) for x in xs] == [element_to_dict(y) for y in ys]
    assert elements_from_dicts([]) == []


def _coords_of(x: LatticeVector) -> list:
    """x's stored coordinates in their order, each value by its bits."""
    return [(type(i), i, v.hex()) for i, v in x.coords.items()]


def _random_sparse_literals(rng, count):
    """Sequence literals of one kind, each tag written in one of several equal
    ways, with signed, zero and -0.0 values, empty literals and far indices."""
    kind = [{"kind": "c0"}, {"kind": "lp", "p": 2}, {"kind": "linf"}][int(rng.integers(3))]
    tags = [kind, dict(kind, p=2.0)] if "p" in kind else [kind, dict(kind)]
    literals = []
    for _ in range(count):
        size = int(rng.integers(0, 12))
        indices = rng.choice(10 ** 4, size, replace=False) + 1
        indices[rng.random(size) < 0.1] = 2 ** 62 - 1 - int(rng.integers(5))
        values = rng.normal(size=size) * (rng.random(size) < 0.8)
        values[rng.random(size) < 0.1] = -0.0
        if rng.random() < 0.3:
            values = np.abs(values)
        coords = dict(zip(indices.tolist(), values.tolist()))
        literals.append({"tag": tags[int(rng.integers(2))], "coords": coords})
    return literals


@pytest.mark.parametrize("seed", range(6))
def test_sparse_literals_decode_as_each_alone(seed):
    literals = _random_sparse_literals(np.random.default_rng(seed), 60)
    # int keys in memory, and the canonical string keys of a JSON text
    for ds in (literals, json.loads(json.dumps(literals))):
        xs, ys = elements_from_dicts(ds), _decode_each(ds)
        assert isinstance(xs, spaces.SparseRows) and len(xs) == len(ys) == len(ds)
        for x, y in zip(xs, ys):
            assert type(x) is LatticeVector and x.tag == y.tag
            assert _coords_of(x) == _coords_of(y) and x._positive == y._positive
        # the same tag objects are shared, and between the same elements
        assert [[a.tag is b.tag for b in xs] for a in xs] == [[a.tag is b.tag for b in ys]
                                                              for a in ys]
        assert _coords_of(xs[-1]) == _coords_of(xs[len(ds) - 1])  # a negative index
        with pytest.raises(IndexError):
            xs[len(ds)]


@pytest.mark.parametrize("coords", [
    {"1": 2.0, "01": -3.0}, {"1": 2.0, "3": 1.0, "01": 0.0}, {"+1": 1.0}, {" 2": 1.0},
    {"1_0": 1.0}, {"\u0661": 1.0}, {1: 1.0, "2": 2.0}, {True: 1.0}, {1.5: 1.0, 2: -1.0},
    {np.int64(3): 1.0}, {"1\n": 1.0},
])
def test_keys_that_may_name_one_index_twice_decode_each_alone(coords):
    ds = [{"tag": {"kind": "c0"}, "coords": {"5": 1.0}}, {"tag": {"kind": "c0"}, "coords": coords}]
    xs, ys = elements_from_dicts(ds), _decode_each(ds)
    assert type(xs) is list
    assert [_coords_of(x) for x in xs] == [_coords_of(y) for y in ys]
    assert [x._positive for x in xs] == [y._positive for y in ys]


def _sparse(coords, tag=None):
    return {"tag": tag or {"kind": "c0"}, "coords": coords}


SPARSE_GOOD = [_sparse({"1": 1.0, "4": -2.0}), _sparse({}), _sparse({"2": "1.5", "3": 0.0})]


@pytest.mark.parametrize("literals, message", [
    (SPARSE_GOOD + [_sparse({"0": 1.0})], "coordinate indices must be >= 1"),
    (SPARSE_GOOD + [_sparse({str(2 ** 62): 1.0})], "coordinate indices must be >= 1"),
    (SPARSE_GOOD + [_sparse({str(10 ** 30): 1.0})], "coordinate indices must be >= 1"),
    (SPARSE_GOOD + [_sparse({"-3": 1.0})], "coordinate indices must be >= 1"),
    (SPARSE_GOOD + [_sparse({"1": math.nan})], "coordinates must be finite"),
    (SPARSE_GOOD + [_sparse({"1": "inf"})], "coordinates must be finite"),
    (SPARSE_GOOD + [_sparse({"1": None})], "malformed element literal: TypeError"),
    (SPARSE_GOOD + [_sparse({"1": "abc"})], "malformed element literal: ValueError"),
    (SPARSE_GOOD + [_sparse({"1": 10 ** 400})], "malformed element literal: OverflowError"),
    (SPARSE_GOOD + [_sparse({"x": 1.0})], "malformed element literal: ValueError"),
    (SPARSE_GOOD + [_sparse([1.0])], "malformed element literal: AttributeError"),
    (SPARSE_GOOD + [{"tag": {"kind": "c0"}}], "malformed element literal: KeyError: 'coords'"),
    (SPARSE_GOOD + [_sparse({"1": 1.0}, {"kind": "lp"})], "lp spaces need a finite p"),
    # the first refusal in list order, not a later or a different one
    (SPARSE_GOOD + [_sparse({"1": math.inf, "0": 1.0}), _sparse({"-3": 1.0})],
     "coordinates must be finite"),
    (SPARSE_GOOD + [_sparse({"0": 1.0, "1": math.inf})], "coordinate indices must be >= 1"),
    (SPARSE_GOOD + [_sparse({"1": 1.0, "01": 2.0}), _sparse({"x": 1.0})],
     "malformed element literal: ValueError"),
])
def test_sparse_literals_keep_the_first_refusal(literals, message):
    for ds in (literals, json.loads(json.dumps(literals))):
        with pytest.raises(ValidationError, match=message) as batch:
            elements_from_dicts(ds)
        with pytest.raises(ValidationError) as each:
            _decode_each(ds)
        assert str(batch.value) == str(each.value)
        assert type(batch.value) is type(each.value)


def _decoded(decode, ds):
    """What ``decode(ds)`` gives: each element's tag, stored coordinates and
    sign flag, or the type and message of its refusal."""
    try:
        return [(x.tag, _coords_of(x), x._positive) for x in decode(ds)]
    except ValidationError as exc:
        return type(exc), str(exc)


#: keys that the one C parse of the joined string keys must read as the
#: per-element path does, or hand to it
PARSE_KEYS = [" 1", "1 ", "\t1", "1\n", "+1", "01", "1,2", "", "1_0", "٣", "-1", "0",
              "2.0", "1e3", "0x1", "9999999999999999999", str(2 ** 62), str(2 ** 62 - 1)]


@pytest.mark.parametrize("literals", [
    *([_sparse({key: 2.0})] for key in PARSE_KEYS),
    *([_sparse({"5": 1.0}), _sparse({"1": -1.0, key: 2.0}), _sparse({"3": 1.0})]
      for key in PARSE_KEYS),
    [_sparse({"1": 1.0, "01": 2.0})],
    [_sparse({"1": 1.0, "": 2.0})],  # "1," reads one index for two keys
    [_sparse({"2": 1.0}), _sparse({"3": 1.0, "\u00a01": 2.0})],
    [_sparse({1: 1.0, 2 ** 62 - 1: -2.0}), _sparse({7: 0.5})],
    [_sparse({1: 1.0, "2": -2.0})],
    [_sparse({"1": 1.0}), _sparse({2: -2.0})],
    [],
    [_sparse({})],
    [_sparse({}), _sparse({"4": 1.0}), _sparse({})],
    [_sparse({"1": "1.5"}), _sparse({"2": 1.0})],
    [_sparse({"2": 1.0}), _sparse({"1": math.nan})],
    [_sparse({"2": 1.0}), _sparse({"1": 10 ** 400})],
], ids=repr)
def test_string_keys_parse_as_each_alone(literals):
    for ds in (literals, json.loads(json.dumps(literals))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _decoded(elements_from_dicts, ds) == _decoded(
                lambda ds: [element_from_dict(d) for d in ds], ds)


def _step(level, values, tag=STEP_TAG_LITERAL):
    return {"tag": tag, "level": level, "values": values}


GOOD = [_step(2, [1.0, 2.0, 3.0, 4.0]), _step(3, [0.5] * 8), _step(2, [0.0] * 4)]


@pytest.mark.parametrize("literals, message", [
    (GOOD + [_step(2, [1.0] * 3)], "values must have 2\\*\\*level entries"),
    (GOOD + [_step(3, [1.0] * 4)], "values must have 2\\*\\*level entries"),
    # a group of rows of one length, the wrong one
    (GOOD + [_step(4, [1.0] * 8), _step(4, [2.0] * 8)], "values must have 2\\*\\*level entries"),
    # the first refusal in list order, though its group is checked after another's
    (GOOD + [_step(3, [1.0] * 7 + [math.nan]), _step(2, [1.0] * 3)], "values must be finite"),
    (GOOD + [_step(3, [math.inf] + [1.0] * 7)], "values must be finite"),
    (GOOD + [_step(1, [1.0, 1.0])], "function level below the measure's base level"),
    (GOOD + [_step(1, [[1.0], 2.0])], "function level below the measure's base level"),
    (GOOD + [_step(2, [[1.0, 2.0], 3.0, 4.0, 5.0])], "malformed element literal: ValueError"),
    (GOOD + [_step(2, [[1.0], [2.0], [3.0], [4.0]])], "values must have 2\\*\\*level entries"),
    (GOOD + [_step(2, 1.0)], "values must have 2\\*\\*level entries"),
    (GOOD + [_step(2, ["a"] * 4)], "malformed element literal: ValueError"),
    (GOOD + [{"tag": {"kind": "c0"}, "level": 2}], "malformed element literal: KeyError: 'coords'"),
    (GOOD + [{"tag": STEP_TAG_LITERAL, "level": 2}],
     "malformed element literal: KeyError: 'values'"),
    (GOOD + [{"tag": STEP_TAG_LITERAL, "values": [1.0] * 4}],
     "malformed element literal: KeyError: 'level'"),
    (GOOD + [_step(1.5, [1.0] * 4)], "a level must be an integer"),
    (GOOD + [[1.0]], "malformed element literal: TypeError"),
    # rows of 2**level entries that are not lists or tuples: a dict, a set (in
    # memory only) and strings
    (GOOD + [_step(2, {0.5: 1.0, 1.5: 2.0, 2.5: 3.0, 3.5: 4.0})],
     "malformed element literal: TypeError"),
    (GOOD + [_step(2, {0.5, 1.5, 2.5, 3.5})], "malformed element literal: TypeError"),
    (GOOD + [_step(2, "abcd")], "malformed element literal: ValueError"),
    (GOOD + [_step(2, "1234")], "values must have 2\\*\\*level entries"),
    # numeric-string rows decode; one past the float range or not a number is refused
    (GOOD + [_step(2, ["1.5", "2", "-0.0", "1e-3"]), _step(2, ["inf", "1", "2", "3"])],
     "values must be finite"),
    (GOOD + [_step(2, ["1e400", "1", "2", "3"])], "values must be finite"),
    (GOOD + [_step(2, ["1", "2", "3", "x"])], "malformed element literal: ValueError"),
    (GOOD + [_step(2, [10 ** 400, 1.0, 1.0, 1.0])], "malformed element literal: OverflowError"),
    # told by length, with no 2**level built
    (GOOD + [_step(10 ** 18, [1.0] * 4)], "values must have 2\\*\\*level entries"),
    (GOOD + [_step(10 ** 18, [1.0])], "values must have 2\\*\\*level entries"),
])
def test_grouped_step_literals_keep_the_first_refusal(literals, message):
    try:
        parsed = (json.loads(json.dumps(literals)),)
    except TypeError:  # a set row has no JSON text
        parsed = ()
    for ds in (literals, *parsed):
        with pytest.raises(ValidationError, match=message) as grouped:
            elements_from_dicts(ds)
        with pytest.raises(ValidationError) as each:
            _decode_each(ds)
        assert str(grouped.value) == str(each.value)
        assert type(grouped.value) is type(each.value)


@pytest.mark.parametrize("level", [1.9, "1", None, [1], math.inf, math.nan])
def test_non_integral_levels_are_refused(level):
    with pytest.raises(ValidationError, match="a level must be an integer"):
        element_from_dict({"tag": STEP_TAG_LITERAL, "level": level, "values": [1.0] * 4})
    tag = dict(STEP_TAG_LITERAL, measure={"level": level, "weights": [0.5, 0.5]})
    with pytest.raises(ValidationError, match="a level must be an integer"):
        element_from_dict({"tag": tag, "level": 1, "values": [1.0, 1.0]})


def test_integral_levels_are_accepted():
    tag = dict(STEP_TAG_LITERAL, measure={"level": 1.0, "weights": [0.5, 0.5]})
    for level in (1, 1.0, True):
        x = element_from_dict({"tag": tag, "level": level, "values": [1.0, 2.0]})
        assert x.level == 1 and type(x.level) is int
        assert x.tag.measure.level == 1 and type(x.tag.measure.level) is int


def test_huge_levels_are_refused_by_length():
    with pytest.raises(ValidationError, match="values must have 2\\*\\*level entries"):
        element_from_dict({"tag": STEP_TAG_LITERAL, "level": 10 ** 12, "values": [1.0] * 4})
    with pytest.raises(ValidationError, match="measure needs 2\\*\\*level cell weights"):
        MeasureModel(10 ** 12, (1.0,))
    with pytest.raises(ValidationError, match="values must have 2\\*\\*level entries"):
        StepFunction(lp_step(1), 2 ** 40, np.ones(1))


def test_roundtrip_direct_sum():
    x = DirectSumVector(vec({1: 1.0}, lp(1)), vec({2: -1.0}, linf()))
    y = _roundtrip(x)
    assert y.left.coords == x.left.coords and y.right.coords == x.right.coords
    assert y.tag == direct_sum()


# ---------------------------------------------------------------------------
# step-function specifics
# ---------------------------------------------------------------------------

def test_refinement_preserves_norm_and_order():
    mu = MeasureModel(1, (0.6, 0.4))
    f = StepFunction(lp_step(1, mu), 1, np.array([2.0, -1.0]))
    g = f.refined(4)
    assert g.norm() == pytest.approx(f.norm())
    assert f.leq(g) and g.leq(f)
    with pytest.raises(ValidationError):
        g.refined(2)


def test_step_pointwise_product():
    tag = lp_step(1)
    f = StepFunction(tag, 1, np.array([2.0, 3.0]))
    g = StepFunction(tag, 2, np.array([1.0, -1.0, 0.0, 2.0]))
    assert (f * g).values.tolist() == [2.0, -2.0, 0.0, 6.0]
    assert (2.0 * f).values.tolist() == [4.0, 6.0]


def test_measure_where():
    f = StepFunction(lp_step(1), 2, np.array([0.9, 0.1, 0.0, 0.6]))
    assert f.measure_where(lambda v: v > 0.5) == 0.5
    assert f.measure_where(lambda v: v > 2.0) == 0.0
