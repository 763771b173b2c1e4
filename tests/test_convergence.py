"""Tail diagnostics: frozen examples plus the algebraic invariants."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unlattice import convergence, spaces

from unlattice.convergence import (
    NOT_NULL,
    NULL,
    ToleranceSpec,
    VectorSequence,
    almost_order_bounded_check,
    in_measure_tail,
    norm_tail,
    order_witness_atomic,
    pairing,
    pointwise_tail,
    sequence_from_list,
    truncation_index,
    un_tail,
    un_tail_qip,
    weak_tail,
)
from unlattice.errors import (
    MNotFound,
    NegativeTestVector,
    NoIndexFound,
    NonStepSequence,
    NotOrderBounded,
    TagMismatch,
    ValidationError,
)
from unlattice.gallery import (
    rademacher_modulated,
    std_units,
    typewriter,
)
from unlattice.spaces import (
    DirectSumVector,
    LatticeVector,
    MeasureModel,
    StepFunction,
    c0,
    constant_one,
    linf,
    lp,
    lp_step,
    ones,
    quasi_interior_point,
    unit,
    zero,
)

TS = ToleranceSpec()


def geometric(tag, horizon=64, coord=1):
    return VectorSequence(tag, horizon,
                          lambda n: unit(tag, coord).scale(2.0 ** -n),
                          name="geometric")


# ---------------------------------------------------------------------------
# norm tail
# ---------------------------------------------------------------------------

def test_norm_tail_geometric_null():
    report = norm_tail(geometric(lp(2)), zero(lp(2)), TS)
    assert report.verdict == NULL
    assert report.values == [2.0 ** -n for n in range(1, 65)]
    assert report.window == 16 and report.horizon == 64
    assert report.witness is None


def test_norm_tail_units_not_null():
    report = norm_tail(std_units(linf(), 32), zero(linf()), TS)
    assert report.verdict == NOT_NULL
    assert report.values == [1.0] * 32
    assert report.witness == {"index": 25, "value": 1.0}


def test_norm_tail_nonzero_limit():
    x = LatticeVector(lp(1), {1: 1.0, 2: -1.0})
    seq = VectorSequence(lp(1), 32, lambda n: x + unit(lp(1), 3).scale(2.0 ** -n))
    report = norm_tail(seq, x, TS)
    assert report.verdict == NULL


def test_window_validation():
    with pytest.raises(ValidationError):
        ToleranceSpec(tol=0.0)
    with pytest.raises(ValidationError):
        ToleranceSpec(window=0)
    with pytest.raises(ValidationError):
        norm_tail(geometric(lp(2), 4), zero(lp(2)), ToleranceSpec(window=9))
    with pytest.raises(ValidationError):
        sequence_from_list([])


# ---------------------------------------------------------------------------
# un tail
# ---------------------------------------------------------------------------

def test_un_tail_units_against_strong_unit():
    seq = std_units(linf(), 32)
    report = un_tail(seq, zero(linf()), [ones(linf(), 32)], TS)
    assert report.verdict == NOT_NULL
    assert report.values == [1.0] * 32
    assert report.witness["test_index"] == 0


def test_un_tail_units_against_finite_support():
    seq = std_units(c0(), 32)
    u = unit(c0(), 1) + unit(c0(), 2)
    report = un_tail(seq, zero(c0()), [u], TS)
    assert report.verdict == NULL
    assert report.values[:3] == [1.0, 1.0, 0.0]


def test_un_tail_rejects_bad_tests():
    seq = std_units(c0(), 8)
    with pytest.raises(ValidationError):
        un_tail(seq, zero(c0()), [], TS)
    with pytest.raises(ValidationError):
        un_tail(seq, zero(c0()), [zero(c0())], TS)
    with pytest.raises(NegativeTestVector):
        un_tail(seq, zero(c0()), [unit(c0(), 1).scale(-1)], TS)


def test_un_values_dominated_by_norm_values():
    rng = np.random.default_rng(11)
    tag = lp(2)
    elems = [LatticeVector(tag, {int(i): float(v) for i, v in
                                 zip(rng.integers(1, 50, 5), rng.uniform(-1, 1, 5))})
             for _ in range(24)]
    seq = sequence_from_list(elems)
    u = quasi_interior_point(tag, 64)
    un = un_tail(seq, zero(tag), [u], TS)
    nm = norm_tail(seq, zero(tag), TS)
    for a, b in zip(un.values, nm.values):
        assert a <= b + 1e-12


# ---------------------------------------------------------------------------
# the sparse block reducer
# ---------------------------------------------------------------------------

BLOCK_TAGS = (c0(), linf(), lp(1), lp(1.5), lp(2), lp(3))
# near 1e-310 values are subnormal, near 1e-200 their squares underflow,
# near 1e200 their squares overflow, and two of +-1e308 overflow an l1 sum
block_value = st.one_of(st.builds(lambda m, f, sign: sign * m * f,
                                  st.sampled_from([1e-310, 1e-200, 1.0, 1e200]),
                                  st.floats(min_value=0.5, max_value=2.0),
                                  st.sampled_from([1.0, -1.0])),
                        st.sampled_from([1e308, -1e308]))
# small indices overlap; far ones must not make the reducer allocate up to them
block_index = st.one_of(st.integers(1, 24), st.integers(10 ** 12, 10 ** 12 + 4),
                        st.just(2 ** 62 - 1))
block_row = st.dictionaries(block_index, block_value, max_size=10)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _counted(seq: VectorSequence):
    """seq, and the list of the indices it generated."""
    calls = []

    def at(n):
        calls.append(n)
        return seq.at(n)

    return VectorSequence(seq.tag, seq.length, at, name=seq.name), calls


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BLOCK_TAGS), st.lists(block_row, min_size=1, max_size=12),
       st.dictionaries(block_index, st.floats(min_value=1e-3, max_value=2.0),
                       min_size=1, max_size=6),
       st.integers(1, 16))
def test_block_row_norms_are_vector_norms(tag, rows, test_coords, chunk_cells):
    terms = [LatticeVector(tag, row) for row in rows]
    seq = sequence_from_list(terms)
    u = LatticeVector(tag, test_coords)
    far = LatticeVector(tag, {100: 1.0})  # its support misses every row
    # small chunks: rows straddle chunk boundaries, and some chunks hold one row
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        norms = convergence._tail_norms(seq, zero(tag))
        meets = convergence._tail_norms(seq, zero(tag), [u, far])
    assert _bits(norms[:, 0]) == _bits(x.norm() for x in terms)
    assert _bits(meets[:, 0]) == _bits(x.abs().meet(u).norm() for x in terms)
    assert _bits(meets[:, 1]) == [(0.0).hex()] * len(terms)


@pytest.mark.parametrize("tag", BLOCK_TAGS, ids=lambda t: t.describe())
def test_block_tails_over_several_chunks(tag):
    rng = np.random.default_rng(3)
    length = 96
    terms = [LatticeVector(tag, {int(i): float(v) for i, v in zip(
        rng.choice(4000, 1500, replace=False) + 1,
        rng.uniform(-2.0, 2.0, 1500) * 2.0 ** -(n % 8))}) for n in range(length)]
    seq, calls = _counted(sequence_from_list(terms))
    limit = LatticeVector(tag, {1: 0.5, 7: -1.0, 3999: 0.25})
    tests = [quasi_interior_point(tag, 2048), LatticeVector(tag, {i: 1.5 for i in range(2, 3000, 3)})]
    assert len(list(convergence._sparse_chunks(seq, limit))) >= 3
    calls.clear()

    report = norm_tail(seq, limit, TS)
    assert _bits(report.values) == _bits((x - limit).norm() for x in terms)
    report = un_tail(seq, limit, tests, TS)
    ref = [[(x - limit).abs().meet(u).norm() for u in tests] for x in terms]
    assert _bits(report.values) == _bits(max(r) for r in ref)
    assert report.witness["test_index"] == int(np.argmax(ref[report.witness["index"] - 1]))
    assert calls == list(range(1, length + 1)) * 2  # each term once per diagnostic


def test_block_tail_checks_term_tags():
    seq = VectorSequence(c0(), 4, lambda n: unit(lp(2), n))
    with pytest.raises(TagMismatch):
        norm_tail(seq, zero(c0()), TS)
    with pytest.raises(TagMismatch):
        un_tail_qip(seq, zero(c0()), TS)
    # iteration refuses a term of another space, or of another measure, as it
    # makes it, so the step-model diagnostics refuse them too
    mu = lp_step(1, MeasureModel(1, (0.25, 0.75)))
    for term in (lambda n: unit(c0(), n), lambda n: constant_one(mu)):
        seq = VectorSequence(lp_step(1, level=1), 4, term)
        with pytest.raises(TagMismatch):
            in_measure_tail(seq, 0.5, TS)
        with pytest.raises(TagMismatch):
            pointwise_tail(seq, TS)


# a direct-sum limit stays well inside the float range, so x - limit does too
small_row = st.dictionaries(block_index, st.floats(min_value=-2.0, max_value=2.0), max_size=4)
test_row = st.dictionaries(block_index, st.floats(min_value=1e-3, max_value=2.0), max_size=6)


def _direct(left: dict, right: dict) -> DirectSumVector:
    return DirectSumVector(LatticeVector(lp(1), left), LatticeVector(linf(), right))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(block_row, block_row), min_size=1, max_size=10),
       st.one_of(st.none(), st.tuples(small_row, small_row)),
       st.lists(st.tuples(test_row, test_row), min_size=1, max_size=3), st.integers(1, 16))
def test_direct_sum_tables_are_part_maxima(rows, limit_parts, test_parts, chunk_cells):
    terms = [_direct(*row) for row in rows]
    seq, calls = _counted(sequence_from_list(terms))
    limit = zero(seq.tag) if limit_parts is None else _direct(*limit_parts)
    # a test with a zero l1 part, as direct_sum_witness has
    tests = [_direct(*parts) for parts in test_parts] + [_direct({}, {1: 1.0, 2: 0.5})]
    diffs = [x - limit for x in terms]
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        norms = convergence._tail_norms(seq, limit)
        meets = convergence._tail_norms(seq, limit, tests)
    assert _bits(norms[:, 0]) == _bits(d.norm() for d in diffs)
    assert [_bits(row) for row in meets] == [_bits(d._abs_meet_norm(u) for u in tests)
                                             for d in diffs]
    assert calls == list(range(1, len(terms) + 1)) * 2  # each term once per table


# ---------------------------------------------------------------------------
# the dense step block reducer
# ---------------------------------------------------------------------------

# (k, level offset, magnitude, seed) of one random step function whose measure
# is the base measure refined k levels, at that many levels above the refined
# base; rows near 1e-170 (p = 2) and 1e-250 (p = 1.5) underflow their power sums
step_part = st.tuples(st.integers(0, 2), st.integers(0, 3),
                      st.sampled_from([1e-250, 1e-170, 1e-5, 1.0, 3.0]), st.integers(0, 2 ** 16))


def _random_step(tags, part, positive=False, extra_level=0):
    k, offset, magnitude, seed = part
    rng = np.random.default_rng(seed)
    level = tags[k].measure.level + offset + extra_level
    v = rng.uniform(0.5, 1.5, 2 ** level) * magnitude
    if not positive:
        v *= rng.choice([-1.0, 1.0], v.size)
        v[rng.random(v.size) < 0.3] = 0.0
    return StepFunction(tags[k], level, v)


def _pair_sum_ref(f, x):
    """<f, x> as the per-term pairing takes it: w * f * x at the common level,
    summed over adjacent cell pairs first."""
    level = max(f.level, x.level)
    g = f.refined(level)
    prod = g.weights() * g.values * x.refined(level).values
    return float(prod.reshape(-1, 2).sum(axis=1).sum() if prod.size % 2 == 0 else prod.sum())


@settings(max_examples=60, deadline=None)
@example(1, 2.0, 0, [(0, 0, 1e-170, 1), (0, 2, 1.0, 2), (0, 1, 1e-170, 3)], (0, 1, 1e-5, 4),
         [(0, 0, 1.0, 5)], [(0, 3, 3.0, 6)], 4)
@example(0, 1.5, 1, [(0, 1, 1e-250, 1), (0, 3, 1.0, 2)], None, [(0, 0, 1.0, 3), (0, 3, 2.0, 4)],
         [(0, 0, 1.0, 5)], 64)
# the sequence takes the first term's tag, whose measure has base level 2; the
# second term lives at level 1 of the base-1 measure it refines
@example(1, 1.0, 2, [(1, 0, 1.0, 1), (0, 0, 3.0, 2), (1, 1, 1.0, 3)], None, [(0, 0, 1.0, 4)],
         [(0, 0, 1.0, 5)], 64)
@example(0, 2.0, 3, [(2, 0, 1.0, 1), (0, 0, 1.0, 2), (1, 0, 1e-170, 3)], (0, 0, 1.0, 4),
         [(1, 0, 1.0, 5)], [(0, 0, 1.0, 6)], 1)
@given(st.integers(0, 2), st.sampled_from([1.0, 1.5, 2.0]), st.integers(0, 2 ** 16),
       st.lists(step_part, min_size=1, max_size=10),
       st.one_of(st.none(), step_part), st.lists(step_part, min_size=1, max_size=2),
       st.lists(step_part, min_size=1, max_size=2), st.integers(1, 64))
def test_step_blocks_are_per_term_values(base, p, weight_seed, parts, limit_part, test_parts,
                                         functional_parts, chunk_cells):
    weights = np.random.default_rng(weight_seed).uniform(0.1, 2.0, 2 ** base)
    measure = MeasureModel(base, tuple(weights.tolist()))
    # compatible tags of base levels base .. base + 2: each term is weighted by its own
    tags = [lp_step(p, measure.refined(base + k)) for k in range(3)]
    terms = [_random_step(tags, part) for part in parts]
    seq, calls = _counted(sequence_from_list(terms))
    # limits, tests and functionals reach up to two levels above every term
    limit = zero(tags[0]) if limit_part is None else _random_step(tags, limit_part,
                                                                  extra_level=2)
    tests = [_random_step(tags, part, positive=True, extra_level=2) for part in test_parts]
    functionals = [_random_step(tags, part, extra_level=2) for part in functional_parts]
    diffs = [x.abs() if limit_part is None else (x - limit).abs() for x in terms]
    ts = ToleranceSpec(window=1)
    # small chunks: one level's terms fill several blocks, and some blocks hold one row
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        assert _bits(norm_tail(seq, limit, ts).values) == _bits(d.norm() for d in diffs)
        table = convergence._tail_norms(seq, limit, tests)
        assert [_bits(row) for row in table] == [_bits(d.meet(u).norm() for u in tests)
                                                 for d in diffs]
        assert _bits(un_tail(seq, limit, tests, ts).values) == _bits(table.max(axis=1))
        assert _bits(un_tail_qip(seq, limit, ts).values) == _bits(
            d.meet(constant_one(seq.tag)).norm() for d in diffs)
        assert _bits(in_measure_tail(seq, 1e-3, ts).values) == _bits(
            x.measure_where(lambda v: np.abs(v) > 1e-3) for x in terms)
        weak = weak_tail(seq, functionals, ts)
        assert _bits(weak.values) == _bits(max(abs(_pair_sum_ref(f, x)) for f in functionals)
                                           for x in terms)
        modulus = weak_tail(seq, functionals, ts, modulus=True)
        assert _bits(modulus.values) == _bits(
            max(abs(_pair_sum_ref(f.abs(), x.abs())) for f in functionals) for x in terms)
    assert _bits(pairing(f, x) for f in functionals for x in terms) == _bits(
        _pair_sum_ref(f, x) for f in functionals for x in terms)
    assert calls == list(range(1, len(terms) + 1)) * 7  # each term once per diagnostic


@pytest.mark.parametrize("top", [0, 5])
def test_step_blocks_bound_the_refined_cells(top):
    seq = typewriter(6)  # terms at levels 0 .. 5
    with mock.patch.object(convergence, "_CHUNK_CELLS", 64):
        blocks = list(convergence._step_blocks(seq, top=top))
    seen = []
    for rows, tag, level, block in blocks:
        assert tag is seq.tag and (len(rows) - 1) << max(level, top) < 64
        for n, values in zip(rows.tolist(), block):
            assert seq.at(n + 1).level == level and (values == seq.at(n + 1).values).all()
        seen += rows.tolist()
    assert sorted(seen) == list(range(seq.length))


@pytest.mark.parametrize("chunk_cells", [1, 2 ** 16])
def test_step_blocks_refuse_overflow(chunk_cells):
    tag = lp_step(1, level=1)
    big = StepFunction(tag, 2, np.array([1e308, 1.0, -1e308, 0.0]))
    seq = sequence_from_list([constant_one(tag), big, constant_one(tag).scale(3.0)])
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        with pytest.raises(ValidationError, match="values must be finite"):
            norm_tail(seq, big.scale(-1.0), TS)
        with pytest.raises(ValidationError, match="values must be finite"):
            un_tail(seq, big.scale(-1.0), [constant_one(tag)], TS)
        # w * f * x overflows against big; against three, only the adjacent-pair sum does
        three = constant_one(tag).scale(3.0)
        for f, terms, x in ((big, seq, big), (StepFunction(tag, 1, np.array([1e308, 1e308])),
                                             sequence_from_list([three]), three)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match="float range"):
                    weak_tail(terms, [constant_one(tag), f], TS)
                with pytest.raises(ValidationError, match="float range"):
                    weak_tail(terms, [f], TS, modulus=True)
                with pytest.raises(ValidationError, match="float range"):
                    pairing(f, x)


# ---------------------------------------------------------------------------
# truncation index (m-selection)
# ---------------------------------------------------------------------------

def test_truncation_index_identity():
    e = quasi_interior_point(c0(), 16)
    assert truncation_index(e, e, 0.5) == 1


def test_truncation_index_unit_against_geometric():
    u = unit(c0(), 1)
    e = quasi_interior_point(c0(), 16)
    # ||u - u /\ m e|| = 1 - m/2 for m < 2, then 0
    assert truncation_index(u, e, 0.5) == 2
    assert truncation_index(u, e, 0.25) == 2
    assert truncation_index(u, e, 1.1) == 1


def test_truncation_index_disjoint_raises():
    u = unit(c0(), 2)
    e = unit(c0(), 1)
    with pytest.raises(MNotFound) as exc:
        truncation_index(u, e, 0.5, m_max=256)
    assert exc.value.m_max == 256


def test_truncation_index_is_minimal():
    rng = np.random.default_rng(5)
    tag = lp(1)
    for _ in range(40):
        u = LatticeVector(tag, {int(i): float(v) for i, v in
                                zip(rng.integers(1, 20, 4), rng.uniform(0.1, 3, 4))})
        e = quasi_interior_point(tag, 32)
        eps = float(rng.uniform(0.01, 1.0))
        m = truncation_index(u, e, eps)
        assert (u - u.meet(e.scale(float(m)))).norm() < eps
        if m > 1:
            assert (u - u.meet(e.scale(float(m - 1)))).norm() >= eps


def test_un_tail_qip_with_m_request():
    seq = std_units(c0(), 64)
    report = un_tail_qip(seq, zero(c0()), TS, horizon=64)
    assert report.verdict == NULL
    assert report.extras["test_family"] == "quasi-interior-point"
    e = quasi_interior_point(c0(), 64)
    assert truncation_index(unit(c0(), 1), e, 0.5) == 2


# ---------------------------------------------------------------------------
# in measure
# ---------------------------------------------------------------------------

def test_in_measure_typewriter_exact_values():
    seq = typewriter(6)
    report = in_measure_tail(seq, 0.5, ToleranceSpec(tol=1e-1, window=8))
    assert report.verdict == NULL
    for n, v in enumerate(report.values, start=1):
        k = n.bit_length() - 1
        assert v == 2.0 ** -k  # exact dyadic masses


def test_in_measure_constant_not_null():
    seq = VectorSequence(lp_step(1), 16, lambda n: constant_one(lp_step(1)))
    report = in_measure_tail(seq, 0.5, TS)
    assert report.verdict == NOT_NULL
    assert report.values == [1.0] * 16
    assert report.extras["delta"] == 0.5


def test_in_measure_rejects_bad_input():
    with pytest.raises(NonStepSequence):
        in_measure_tail(std_units(c0(), 8), 0.5, TS)
    with pytest.raises(ValidationError):
        in_measure_tail(typewriter(3), 0.0, TS)


# ---------------------------------------------------------------------------
# pointwise (uo-proxy)
# ---------------------------------------------------------------------------

def test_pointwise_units_null_sup_one():
    report = pointwise_tail(std_units(c0(), 64), TS)
    assert report.verdict == NULL
    assert report.values == [1.0] * 64  # sup stays 1 while every coordinate settles


def test_pointwise_typewriter_not_null():
    ts = ToleranceSpec(tol=1e-2, window=4)
    report = pointwise_tail(typewriter(6), ts)
    assert report.verdict == NOT_NULL
    assert report.witness["coordinate"].startswith("cell[")
    assert set(report.extras["limsup"]) == {1.0}
    assert set(report.extras["liminf"]) == {0.0}
    assert report.extras["refinement_level"] == 5


def test_pointwise_generates_each_term_once():
    tag = lp(2)
    rows = [{}, {5: -1.0, 2: 0.5}, {}, {9: 2.0, 5: 0.25}, {2: -3.0}]
    seq, calls = _counted(sequence_from_list([LatticeVector(tag, r) for r in rows]))
    report = pointwise_tail(seq, ToleranceSpec(window=1))
    assert calls == [1, 2, 3, 4, 5]
    assert report.extras["coordinates"] == ["2", "5", "9"]
    assert report.values == [0.0, 1.0, 0.0, 2.0, 3.0]
    empty, calls = _counted(VectorSequence(tag, 3, lambda n: zero(tag)))
    report = pointwise_tail(empty, ToleranceSpec(window=1))
    assert calls == [1, 2, 3] and report.extras["coordinates"] == ["1"]
    assert report.verdict == NULL


def _persistent_columns(zone: np.ndarray, tol: float, window: int) -> list[int]:
    """The persistence rule, one column at a time."""
    persistent = []
    for c in range(zone.shape[1]):
        hits = np.where(np.abs(zone[:, c]) >= tol)[0]
        if hits.size >= 2 and hits[-1] - hits[0] >= window:
            persistent.append(c)
    return persistent


def _sequence_of_matrix(mat: np.ndarray, tag=c0()):
    """The sequence whose term n stores coordinate c + 1 where row n - 1 of
    ``mat`` is nonzero in column c."""
    return sequence_from_list([LatticeVector(tag, {c + 1: v for c, v in enumerate(row) if v})
                               for row in mat.tolist()])


def _pointwise_of_matrix(mat: np.ndarray, window: int):
    return pointwise_tail(_sequence_of_matrix(mat), ToleranceSpec(tol=0.5, window=window))


def _dense_pointwise(mat: np.ndarray, ts: ToleranceSpec) -> dict:
    """The pointwise report of ``_sequence_of_matrix(mat)``, recomputed from
    the dense matrix of moduli over its touched columns."""
    n, w = len(mat), ts.window_for(len(mat))
    touched = [c for c in range(mat.shape[1]) if mat[:, c].any()]
    dense = np.abs(mat[:, touched]) if touched else np.zeros((n, 1))
    labels = [str(c + 1) for c in touched] or ["1"]
    zone_start = n - max(w, math.ceil(0.75 * n))
    zone = dense[zone_start:]
    persistent = _persistent_columns(zone, ts.tol, w)
    witness = None
    if persistent:
        hits = zone_start + 1 + np.flatnonzero(zone[:, persistent[0]] >= ts.tol)
        witness = {"coordinate": labels[persistent[0]], "violation_indices": hits[:8].tolist()}
    return {"quantity": "pointwise-tail", "values": dense.max(axis=1).tolist(),
            "verdict": NOT_NULL if persistent else NULL, "tol": ts.tol, "window": w,
            "horizon": n, "witness": witness,
            "extras": {"zone_start": zone_start + 1, "limsup": zone.max(axis=0).tolist(),
                       "liminf": zone.min(axis=0).tolist(), "coordinates": labels}}


def test_pointwise_persistence_matches_column_loop():
    rng = np.random.default_rng(8)
    cases = []
    for k in range(120):
        n, width = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        hit = rng.random((n, width)) < rng.uniform(0.02, 0.3)
        if k >= 80:  # columns stored in every row: their liminf is not 0.0
            hit[:, rng.random(width) < 0.4] = True
        cases.append((np.where(hit, rng.uniform(-2.0, 2.0, (n, width)), 0.0),
                      int(rng.integers(1, n + 1))))
    # coordinate 1 has one hit, 2 has hits window - 1 apart, 3 hits window apart
    for window in (1, 2, 3, 5, 12):
        mat = np.zeros((24, 3))
        mat[10, 0] = mat[8, 1] = mat[8 + window - 1, 1] = mat[8, 2] = mat[8 + window, 2] = 1.0
        cases.append((mat, window))
        assert _pointwise_of_matrix(mat, window).witness == {
            "coordinate": "3", "violation_indices": [9, 9 + window]}
    nonzero_liminf = long_witness = 0
    for mat, window in cases:
        report = _pointwise_of_matrix(mat, window).to_json_dict()
        assert report == _dense_pointwise(mat, ToleranceSpec(tol=0.5, window=window))
        nonzero_liminf += any(report["extras"]["liminf"])
        witness = report["witness"] or {"violation_indices": []}
        long_witness += len(witness["violation_indices"]) == 8
    assert nonzero_liminf >= 20 and long_witness >= 5


def test_atomic_uo_certificate_matches_dense_reference():
    from unlattice.constructive import uo_extract
    rng = np.random.default_rng(16)
    projected = 0
    for case in range(40):
        n, width = int(rng.integers(4, 60)), int(rng.integers(1, 12))
        hit = rng.random((n, width)) < rng.uniform(0.05, 0.5)
        hit[:, rng.random(width) < 0.3] = True
        # every norm is at most 1/2, so the selection has a first index
        mat = np.where(hit, rng.uniform(-2.0, 2.0, (n, width)), 0.0) / (4 * width)
        mat *= 0.8 ** np.arange(n)[:, None]
        tag = (c0(), lp(1), lp(2), linf())[case % 4]
        ts = ToleranceSpec(tol=float(rng.choice([1e-4, 1e-3, 0.02])), window=1)
        out = uo_extract(_sequence_of_matrix(mat, tag), ts)
        sub = mat[np.array(out.subindices) - 1]
        # e covers every selected term's support, so the band keeps every column
        assert out.report.to_json_dict() == _dense_pointwise(sub, ts)
        # a sparse band shows the projection onto its support
        keep = rng.random(width) < 0.5
        band = LatticeVector(tag, {c + 1: 1.0 for c in np.flatnonzero(keep).tolist()}
                             | {width + 5: 1.0})
        report = convergence._sparse_pointwise(_sequence_of_matrix(sub, tag), ts, band)
        assert report.to_json_dict() == _dense_pointwise(np.where(keep, sub, 0.0), ts)
        projected += (keep & sub.any(axis=0)).any() and not keep.all()
    assert projected >= 15


def test_pointwise_transient_burst_is_null():
    # three consecutive spikes span less than one window: settling artifact
    tag = c0()
    seq = VectorSequence(tag, 64,
                         lambda n: unit(tag, 1) if n in (40, 41, 42) else zero(tag))
    assert pointwise_tail(seq, TS).verdict == NULL


def test_pointwise_persistent_violation_not_null():
    tag = c0()
    seq = VectorSequence(tag, 64,
                         lambda n: unit(tag, 1) if n in (20, 60) else zero(tag))
    report = pointwise_tail(seq, TS)
    assert report.verdict == NOT_NULL
    assert report.witness == {"coordinate": "1", "violation_indices": [20, 60]}


def test_pointwise_uniform_decay_null():
    tag = lp_step(1)
    seq = VectorSequence(tag, 64, lambda n: constant_one(tag).scale(1.0 / n))
    assert pointwise_tail(seq, ToleranceSpec(tol=1e-1)).verdict == NULL
    assert pointwise_tail(seq, ToleranceSpec(tol=1e-2)).verdict == NOT_NULL


def _random_step_sequence(rng, n: int, decay: float = 0.0) -> list[StepFunction]:
    """n step terms of mixed levels over a non-uniform measure; every third
    term is tagged with a coarser measure that refines to the same one, and
    the leftmost cell of every level holds values about 1 in a third of the
    terms, so that its violations spread over blocks of several levels."""
    base = int(rng.integers(1, 4))
    coarse = int(rng.integers(0, base))
    wc = rng.uniform(0.2, 1.8, 2 ** coarse)
    w = np.repeat(wc / 2 ** (base - coarse), 2 ** (base - coarse))
    p = float(rng.choice([1.0, 2.0]))
    tag = lp_step(p, MeasureModel(base, tuple(w.tolist())))
    coarse_tag = lp_step(p, MeasureModel(coarse, tuple(wc.tolist())))
    terms = []
    for k in range(n):
        level = int(rng.choice([base, base + 2, 8, 10, 11]))
        v = rng.uniform(-2.0, 2.0, 2 ** level) * (rng.random(2 ** level) < rng.uniform(0.02, 0.5))
        v *= 10.0 ** rng.uniform(-3.0, 0.0)
        if k % 3 == 0:
            v[0] = rng.uniform(0.5, 2.0)
        terms.append(StepFunction(coarse_tag if k % 3 == 1 else tag, level,
                                  v * 2.0 ** (-decay * k)))
    return terms


def _dense(terms, level: int) -> np.ndarray:
    """The (terms x cells) matrix of the moduli refined to ``level``."""
    return np.array([np.repeat(np.abs(x.values), 2 ** (level - x.level)) for x in terms])


def test_step_pointwise_matches_dense_reference():
    rng = np.random.default_rng(14)
    long_witness = 0
    for case in range(12):
        terms = _random_step_sequence(rng, int(rng.integers(2, 160)))
        level = max(x.level for x in terms)
        mat = _dense(terms, level)
        for tol, window in ((0.1, None), (0.4, 1), (1e-3, 7), (1.5, 2)):
            ts = ToleranceSpec(tol=tol, window=window)
            report = pointwise_tail(sequence_from_list(terms), ts)
            n, w = len(terms), ts.window_for(len(terms))
            zone_start = n - max(w, math.ceil(0.75 * n))
            zone = mat[zone_start:]
            persistent = _persistent_columns(zone, tol, w)
            witness = None
            if persistent:
                hits = zone_start + 1 + np.flatnonzero(zone[:, persistent[0]] >= tol)
                long_witness += hits.size > 8 and len({terms[i - 1].level for i in hits}) > 1
                witness = {"coordinate": f"cell[{level}:{persistent[0]}]",
                           "violation_indices": hits[:8].tolist()}
            assert report.to_json_dict() == {
                "quantity": "pointwise-tail", "values": mat.max(axis=1).tolist(),
                "verdict": NOT_NULL if persistent else NULL, "tol": tol, "window": w,
                "horizon": n, "witness": witness,
                "extras": {"zone_start": zone_start + 1, "limsup": zone.max(axis=0).tolist(),
                           "liminf": zone.min(axis=0).tolist(),
                           "coordinates": [f"cell[{level}:{c}]" for c in range(2 ** level)],
                           "refinement_level": level}}
    assert long_witness >= 5  # witness columns with over 8 violations at several levels


def _unsettled_mass(terms, band: StepFunction, tol: float):
    """The level and the values of the uo certificate of ``terms`` on the
    support of ``band``, by the reversed ``logical_or.accumulate`` rule."""
    level = max([band.level] + [x.level for x in terms])
    mat = _dense(terms, level)
    mat[:, band.refined(level).values == 0.0] = 0.0
    weights = band.tag.measure.weight_array(level)
    active = np.logical_or.accumulate((mat >= tol)[::-1], axis=0)[::-1]
    return level, [float(weights[row].sum()) for row in active]


def test_step_uo_certificate_matches_dense_reference():
    from unlattice.constructive import uo_extract
    rng = np.random.default_rng(15)
    nonzero = 0
    for case in range(10):
        terms = _random_step_sequence(rng, int(rng.integers(8, 60)), decay=0.5)
        for tol in (1e-2, 1e-4):
            out = uo_extract(sequence_from_list(terms), ToleranceSpec(tol=tol, window=2))
            sub = [terms[n - 1] for n in out.subindices]
            level, values = _unsettled_mass(sub, out.test_vector, tol)
            assert out.report.values == values
            assert out.report.extras == {"refinement_level": level}
            nonzero += any(values)
            # e covers every selected term's support; a sparse band shows the projection
            tag = terms[0].tag
            band_level = int(rng.integers(tag.measure.level, 12))
            band = StepFunction(tag, band_level, rng.random(2 ** band_level) < 0.5)
            level, values = _unsettled_mass(sub, band, tol)
            _, zone_level, zone = convergence._step_zone(sequence_from_list(sub), 0, tol, band)
            weights = band.tag.measure.weight_array(level)
            assert zone_level == level
            assert [float(weights[zone.last >= j].sum()) for j in range(len(sub))] == values
    assert nonzero >= 5


def test_step_pointwise_holds_no_dense_matrix():
    import tracemalloc
    seq = typewriter(11)  # 2047 x 1024 cells: the dense matrix alone is 16.8 MB
    tracemalloc.start()
    try:
        report = pointwise_tail(seq, ToleranceSpec(tol=1e-2, window=256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == NOT_NULL
    assert peak < 8e6


def test_sequence_pointwise_holds_no_dense_matrix():
    import tracemalloc
    seq = std_units(c0(), 4096)  # 4096 x 4096 coordinates: the dense matrix alone is 134 MB
    tracemalloc.start()
    try:
        report = pointwise_tail(seq, TS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == NULL and len(report.extras["coordinates"]) == 4096
    assert peak < 8e6


def test_tail_table_budget():
    units, calls = _counted(std_units(c0(), 9))
    with mock.patch.object(convergence, "_MAX_CELLS", 17):
        norm_tail(units, zero(c0()), TS)
        with pytest.raises(ValidationError, match="a 9 x 2 matrix exceeds 17 cells"):
            un_tail(units, zero(c0()), [ones(c0(), 4), unit(c0(), 1)], TS)
    assert calls == list(range(1, 10))  # the refused table generated no term


def test_pointwise_rejects_direct_sum():
    seq = VectorSequence(lp(1), 8, lambda n: unit(lp(1), n))
    assert pointwise_tail(seq, TS).verdict == NULL
    ds = VectorSequence(
        DirectSumVector(unit(lp(1), 1), unit(linf(), 1)).tag, 8,
        lambda n: DirectSumVector(unit(lp(1), n), unit(linf(), n)))
    with pytest.raises(ValidationError):
        pointwise_tail(ds, TS)


def test_coordinate_matrix_budget():
    ts = ToleranceSpec(window=1)
    with mock.patch.object(convergence, "_MAX_CELLS", 31 * 16):
        assert pointwise_tail(typewriter(5), ts).extras["refinement_level"] == 4
        seq, calls = _counted(typewriter(6))
        with pytest.raises(ValidationError, match="matrix exceeds"):
            pointwise_tail(seq, ts)
        assert calls == list(range(1, 9))  # refused when term 8 reaches level 3
    # a sequence model holds its 64 stored coordinates as a (64 x 3) table of
    # triples, whatever the number of terms x touched coordinates
    from unlattice.constructive import uo_extract
    seq, calls = _counted(VectorSequence(c0(), 16, lambda n: ones(c0(), 4).scale(2.0 ** -n)))
    runs = [lambda: pointwise_tail(seq, ts), lambda: order_witness_atomic(seq, ones(c0(), 4), ts),
            lambda: uo_extract(seq, ts)]
    with mock.patch.object(convergence, "_MAX_CELLS", 64 * 3):
        for run in runs:
            run()
    with mock.patch.object(convergence, "_MAX_CELLS", 64 * 3 - 1):
        for run in runs:
            with pytest.raises(ValidationError, match="a 64 x 3 matrix exceeds 191 cells"):
                run()
    # checked as each chunk of 2 terms (8 stored coordinates) arrives
    with mock.patch.object(convergence, "_MAX_CELLS", 40 * 3), \
            mock.patch.object(convergence, "_CHUNK_CELLS", 8):
        for run in runs[:2]:
            calls.clear()
            with pytest.raises(ValidationError, match="a 48 x 3 matrix exceeds 120 cells"):
                run()
            assert calls == list(range(1, 13))
    seq, calls = _counted(std_units(c0(), 2 ** 40))
    with pytest.raises(ValidationError, match="matrix exceeds"):
        pointwise_tail(seq, ts)
    assert calls == []


def test_streaming_diagnostics_budget():
    from unlattice.constructive import norm_to_order_subsequence, uo_extract
    step = lp_step(1)
    units, calls = _counted(std_units(c0(), 17))
    steps, step_calls = _counted(VectorSequence(step, 17, lambda n: constant_one(step)))
    diagnostics = [
        lambda: norm_tail(units, zero(c0()), TS),
        lambda: un_tail(units, zero(c0()), [ones(c0(), 4)], TS),
        lambda: un_tail_qip(units, zero(c0()), TS),
        lambda: in_measure_tail(steps, 0.5, TS),
        lambda: weak_tail(units, [unit(c0(), 1)], TS),
        lambda: weak_tail(steps, [constant_one(step)], TS, modulus=True),
        lambda: uo_extract(units, TS),
        lambda: norm_to_order_subsequence(units, TS),
    ]
    with mock.patch.object(convergence, "_MAX_CELLS", 16):
        for diagnostic in diagnostics:
            with pytest.raises(ValidationError, match="a 17 x 1 matrix exceeds 16 cells"):
                diagnostic()
    assert calls == [] and step_calls == []
    with mock.patch.object(convergence, "_MAX_CELLS", 17):
        assert norm_tail(units, zero(c0()), TS).horizon == 17


# ---------------------------------------------------------------------------
# weak tails and pairing
# ---------------------------------------------------------------------------

def test_pairing_sequence_and_step():
    f = LatticeVector(lp(2), {1: 2.0, 3: -1.0})
    x = LatticeVector(lp(2), {1: 0.5, 2: 4.0, 3: 1.0})
    assert pairing(f, x) == 0.0
    tag = lp_step(1)
    g = StepFunction(tag, 1, np.array([1.0, -1.0]))
    h = StepFunction(tag, 1, np.array([3.0, 1.0]))
    assert pairing(g, h) == pytest.approx(1.0)


def test_pairing_beyond_the_float_range():
    tag = lp(1)
    # the partial sum 2e308 overflows, the exact sum is 1e308
    f = LatticeVector(tag, {1: 1e308, 2: 1e308, 3: -1e308})
    assert pairing(f, LatticeVector(tag, {1: 1.0, 2: 1.0, 3: 1.0})) == 1e308
    assert pairing(f, LatticeVector(tag, {1: 0.5, 2: 1.0, 3: 0.25})) == 1.25e308
    with pytest.raises(ValidationError, match="float range"):
        pairing(f, LatticeVector(tag, {1: 1.0, 2: 1.0}))
    with pytest.raises(ValidationError, match="float range"):
        pairing(f, LatticeVector(tag, {1: 1e308, 2: -1e308}))
    g = StepFunction(lp_step(1), 0, np.array([1e308]))
    # each part's pairing is finite, their sum is not; a finite sum keeps its bits
    big = DirectSumVector(unit(tag, 1).scale(1e308), unit(linf(), 1).scale(1e308))
    e1 = DirectSumVector(unit(tag, 1), unit(linf(), 1))
    edge = DirectSumVector(unit(tag, 1).scale(1e308), unit(linf(), 1).scale(7e307))
    # the cell weight 2 times f overflows before any term is paired
    heavy = lp_step(1, MeasureModel(0, (2.0,)))
    h = StepFunction(heavy, 0, np.array([1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="float range"):
            pairing(g, g)
        with pytest.raises(ValidationError, match="float range"):
            weak_tail(sequence_from_list([constant_one(heavy)]), [h], TS)
        with pytest.raises(ValidationError, match="float range"):
            pairing(big, e1)
        for modulus in (False, True):
            with pytest.raises(ValidationError, match="float range"):
                weak_tail(sequence_from_list([e1, e1.scale(0.5)]), [edge, big], TS,
                          modulus=modulus)
    assert pairing(edge, e1) == 1e308 + 7e307
    assert weak_tail(sequence_from_list([e1.scale(-1.0)]), [edge], TS).values == [1.7e308]
    # w * f = 2 * 1e308 overflows, w * f * x = 2e8 does not; a row that is 0.0
    # on the overflowed cell pairs to its other cells
    tiny = StepFunction(heavy, 0, np.array([1e-300]))
    two = lp_step(1, MeasureModel(1, (2.0, 0.5)))
    f2 = StepFunction(two, 1, np.array([1e308, 3.0]))
    seq = sequence_from_list([StepFunction(two, 2, np.array([1e-300, 0.0, 2.0, 1.0])),
                              StepFunction(two, 1, np.array([0.0, 1.0]))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pairing(h, tiny) == 2e8
        assert weak_tail(sequence_from_list([tiny, tiny.scale(-1.0)]), [h], TS).values == [
            2e8, 2e8]
        assert weak_tail(seq, [f2], TS).values == [1e8 + (1.5 + 0.75), 1.5]
        with pytest.raises(ValidationError, match="float range"):
            pairing(h, StepFunction(heavy, 0, np.array([1.0])))


def test_weak_tail_sign_modulation_cancels_exactly():
    x = StepFunction(lp_step(1), 2, np.array([2.0, 1.0, 1.0, 1.0]))
    seq = rademacher_modulated(x, horizon=10)
    f = constant_one(lp_step(1))
    report = weak_tail(seq, [f], ToleranceSpec(tol=1e-12, window=2))
    assert report.verdict == NULL
    assert report.values[2:] == [0.0] * 8  # exact zeros past the profile level
    assert report.extras["verdict_scope"] == "against family"


def test_modulus_weak_tail_sees_constant_mass():
    x = StepFunction(lp_step(1), 2, np.array([2.0, 1.0, 1.0, 1.0]))
    seq = rademacher_modulated(x, horizon=10)
    f = constant_one(lp_step(1))
    report = weak_tail(seq, [f], TS, modulus=True)
    assert report.verdict == NOT_NULL
    assert report.values == [1.25] * 10
    assert report.quantity == "modulus-weak-tail"


def test_table_ties_name_the_first_column():
    seq = sequence_from_list([unit(c0(), 1)] * 8)
    half, e1 = unit(c0(), 1).scale(0.5), unit(c0(), 1)
    tied = LatticeVector(c0(), {1: 1.0, 2: 1.0})
    assert un_tail(seq, zero(c0()), [half, e1, tied], TS).witness["test_index"] == 1
    assert weak_tail(seq, [half, tied, e1], TS).witness["functional_index"] == 1
    assert weak_tail(seq, [half.scale(-1.0), e1.scale(-1.0), e1], TS,
                     modulus=True).witness["functional_index"] == 1
    step = lp_step(2)
    one = constant_one(step)
    steps = VectorSequence(step, 8, lambda n: one)
    assert un_tail(steps, zero(step), [one.scale(0.5), one, one.scale(2.0)],
                   TS).witness["test_index"] == 1


def test_weak_tail_direct_sum_pairing():
    f = DirectSumVector(unit(lp(1), 1), unit(linf(), 2))
    x = DirectSumVector(unit(lp(1), 1).scale(2.0), unit(linf(), 2).scale(-3.0))
    assert pairing(f, x) == -1.0


def _pairing_ref(f, x) -> float:
    """<f, x> by the per-family formulas: fsum of the products over the common
    support, the adjacent-pair cell sum, and the sum of the parts' pairings."""
    if isinstance(f, DirectSumVector):
        return _pairing_ref(f.left, x.left) + _pairing_ref(f.right, x.right)
    if isinstance(f, StepFunction):
        return _pair_sum_ref(f, x)
    return math.fsum(v * x[i] for i, v in f.coords.items() if i in x.coords)


def _random_vector(rng, tag, size=6):
    idx = rng.integers(1, 12, size).tolist()
    return LatticeVector(tag, dict(zip(idx, rng.uniform(-2.0, 2.0, size).tolist())))


PAIRING_FAMILIES = ("c0", "l1", "l2", "linf", "step", "direct_sum")


@pytest.mark.parametrize("family", PAIRING_FAMILIES)
def test_pairing_tables_match_the_family_formulas(family):
    rng = np.random.default_rng(PAIRING_FAMILIES.index(family))
    if family == "step":
        measure = MeasureModel(1, (0.3, 1.1))
        tags = [lp_step(1.5, measure.refined(1 + k)) for k in range(2)]
        make = lambda: _random_step(tags, (int(rng.integers(0, 2)), int(rng.integers(0, 3)),
                                           1.0, int(rng.integers(0, 2 ** 16))))
    elif family == "direct_sum":
        make = lambda: DirectSumVector(_random_vector(rng, lp(1)), _random_vector(rng, linf()))
    else:
        tag = {"c0": c0(), "l1": lp(1), "l2": lp(2), "linf": linf()}[family]
        make = lambda: _random_vector(rng, tag)
    terms = [make() for _ in range(12)]
    functionals = [make() for _ in range(3)]
    seq, calls = _counted(sequence_from_list(terms))
    assert _bits(pairing(f, x) for x in terms for f in functionals) == _bits(
        _pairing_ref(f, x) for x in terms for f in functionals)
    assert _bits(weak_tail(seq, functionals, TS).values) == _bits(
        max(abs(_pairing_ref(f, x)) for f in functionals) for x in terms)
    assert _bits(weak_tail(seq, functionals, TS, modulus=True).values) == _bits(
        max(abs(_pairing_ref(f.abs(), x.abs())) for f in functionals) for x in terms)
    assert calls == list(range(1, len(terms) + 1)) * 2  # each term once per diagnostic


# ---------------------------------------------------------------------------
# order witness and almost order boundedness
# ---------------------------------------------------------------------------

def test_order_witness_geometric():
    tag = lp(1)
    bound = LatticeVector(tag, {i: 1.0 for i in range(1, 5)})
    seq = VectorSequence(tag, 64, lambda n: bound.scale(2.0 ** -n))
    witness = order_witness_atomic(seq, bound, TS)
    assert witness.atoms == [1, 2, 3, 4]
    norms = [e["dominator_norm"] for e in witness.entries]
    assert norms == sorted(norms, reverse=True)
    for e in witness.entries:
        k, nk = e["k"], e["index"]
        cap = 1.0 / k
        vk = LatticeVector(tag, {a: (min(cap, 1.0) if i < k else 1.0)
                                 for i, a in enumerate(witness.atoms)})
        assert all(seq.at(n).abs().leq(vk, slack=1e-12)
                   for n in range(nk, seq.length + 1))
        if nk > 1:
            assert not seq.at(nk - 1).abs().leq(vk, slack=1e-12)


def test_order_witness_not_bounded():
    tag = lp(1)
    seq = VectorSequence(tag, 8, lambda n: unit(tag, n))
    with pytest.raises(NotOrderBounded) as exc:
        order_witness_atomic(seq, unit(tag, 1), TS)
    assert exc.value.witness_index == 2


def test_order_witness_disjoint_units_run_out_of_room():
    # bounded disjoint units: the deep dominators exclude every term
    tag = linf()
    seq = std_units(tag, 8)
    with pytest.raises(NoIndexFound) as exc:
        order_witness_atomic(seq, ones(tag, 8), TS)
    assert exc.value.step == 8


def _order_witness_reference(terms, bound):
    """order_witness_atomic's outcome from one ``leq`` comparison per term."""
    moduli = [x.abs() for x in terms]
    for n, m in enumerate(moduli, start=1):
        if not m.leq(bound, slack=convergence.ORDER_SLACK):
            return NotOrderBounded, n
    atoms = sorted(bound.coords)
    entries = []
    for k in range(1, max(len(atoms), 8) + 1):
        vk = LatticeVector(bound.tag, {a: (min(1.0 / k, bound[a]) if i < k else bound[a])
                                       for i, a in enumerate(atoms)})
        last_bad = max((n for n, m in enumerate(moduli, start=1)
                        if not m.leq(vk, slack=convergence.ORDER_SLACK)), default=0)
        if last_bad == len(terms):
            return NoIndexFound, k
        entries.append({"k": k, "index": last_bad + 1, "dominator_norm": vk.norm()})
    return atoms, entries


def test_order_witness_matches_per_term_leq():
    rng = np.random.default_rng(5)
    outcomes = set()
    for case in range(60):
        tag = (c0(), lp(1), lp(2), linf())[case % 4]
        atoms = rng.choice(np.arange(1, 13), int(rng.integers(1, 10)), replace=False)
        bound = LatticeVector(tag, dict(zip(atoms.tolist(), rng.uniform(0.2, 2.0, atoms.size))))
        decay = rng.choice([0.5, 0.9, 1.0])
        terms = []
        for n in range(1, int(rng.integers(1, 40)) + 1):
            picked = [a for a in bound.coords if rng.random() < 0.6]
            coords = {a: rng.choice([-1.0, 1.0]) * bound[a] * rng.uniform(0.0, 1.0) * decay ** n
                      for a in picked}
            if rng.random() < 0.05:  # slack-sized excess, or a coordinate the bound misses
                a = picked[0] if picked else 13
                coords[a] = (bound[a] + rng.choice([0.5, 2.0]) * convergence.ORDER_SLACK
                             if picked else 1e-3)
            terms.append(LatticeVector(tag, coords))
        seq, calls = _counted(sequence_from_list(terms))
        want = _order_witness_reference(terms, bound)
        try:
            witness = order_witness_atomic(seq, bound, TS)
            got = witness.atoms, witness.entries
        except NotOrderBounded as exc:
            got = NotOrderBounded, exc.witness_index
        except NoIndexFound as exc:
            got = NoIndexFound, exc.step
        assert got == want
        assert calls == list(range(1, len(terms) + 1))
        outcomes.add(want[0] if isinstance(want[0], type) else "witness")
    assert outcomes == {NotOrderBounded, NoIndexFound, "witness"}


def test_order_witness_reads_zero_outside_the_atoms():
    tag = lp(2)
    bound = LatticeVector(tag, {2: 1.0, 5: 0.5})
    for extra, dominated in ((convergence.ORDER_SLACK, True), (0.5e-12, True), (2e-12, False)):
        # coordinate 3 lies between the atoms and 9 past them: the bound is 0.0 there
        terms = [LatticeVector(tag, {2: 0.5 ** n, 5: 0.25 ** n, 3 + 6 * (n % 2): extra})
                 for n in range(1, 17)]
        want = _order_witness_reference(terms, bound)
        if dominated:
            witness = order_witness_atomic(sequence_from_list(terms), bound, TS)
            assert (witness.atoms, witness.entries) == want
        else:
            assert want == (NotOrderBounded, 1)
            with pytest.raises(NotOrderBounded):
                order_witness_atomic(sequence_from_list(terms), bound, TS)


def test_order_witness_builds_no_vector_per_step():
    tag = lp(1)
    counts = []
    for atoms in (16, 256):
        bound = ones(tag, atoms)
        seq = sequence_from_list([bound.scale(0.5 ** n) for n in range(1, 33)])
        with mock.patch.object(spaces, "_clean_coords", wraps=spaces._clean_coords) as checked:
            with mock.patch.object(LatticeVector, "_trusted",
                                   wraps=LatticeVector._trusted) as trusted:
                witness = order_witness_atomic(seq, bound, TS)
        assert len(witness.entries) == atoms
        counts.append((checked.call_count, trusted.call_count))
    assert counts[0] == counts[1] and sum(counts[0]) <= 1  # the zero limit of the moduli


def test_almost_order_bounded():
    tag = lp(1)
    vectors = [t for t in typewriter(4)]
    res = almost_order_bounded_check(vectors, constant_one(lp_step(1)), 0.5)
    assert res.bounded and res.worst_value == 0.0
    units = [unit(tag, n) for n in range(1, 6)]
    res = almost_order_bounded_check(units, zero(tag), 0.5)
    assert not res.bounded
    assert res.worst_value == 1.0
    with pytest.raises(ValidationError):
        almost_order_bounded_check(units, zero(tag), 0.0)
    with pytest.raises(ValidationError):
        almost_order_bounded_check([], zero(tag), 0.5)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def _random_un_null_seq(rng, tag, horizon=64):
    scales = rng.uniform(0.2, 1.0, size=horizon)
    return VectorSequence(tag, horizon,
                          lambda n: unit(tag, n).scale(float(scales[n - 1])))


def test_un_limits_combine_linearly():
    rng = np.random.default_rng(2)
    tag = lp(2)
    u = quasi_interior_point(tag, 128)
    x = _random_un_null_seq(rng, tag)
    y = _random_un_null_seq(rng, tag)
    a, b = 1.7, -0.4
    combo = VectorSequence(tag, 64, lambda n: x.at(n).scale(a) + y.at(n).scale(b))
    rx = un_tail(x, zero(tag), [u], TS)
    ry = un_tail(y, zero(tag), [u], TS)
    rc = un_tail(combo, zero(tag), [u], TS)
    assert rx.verdict == ry.verdict == rc.verdict == NULL
    for vc, vx, vy in zip(rc.values, rx.values, ry.values):
        assert vc <= abs(a) * vx + abs(b) * vy + 1e-12


def test_un_limit_uniqueness_surrogate():
    tag = lp(2)
    x = unit(tag, 1)
    y = x + unit(tag, 1).scale(TS.tol / 2)
    seq = VectorSequence(tag, 64, lambda n: x + unit(tag, 2).scale(2.0 ** -n))
    tests = [quasi_interior_point(tag, 64).join((x - y).abs())]
    rx = un_tail(seq, x, tests, TS)
    ry = un_tail(seq, y, tests, TS)
    assert rx.verdict == ry.verdict == NULL
    assert (x - y).norm() < 2 * TS.tol


def test_order_bounded_un_equals_norm():
    rng = np.random.default_rng(9)
    tag = lp(1)
    bound = LatticeVector(tag, {i: 2.0 for i in range(1, 9)})
    elems = [LatticeVector(tag, {i: float(rng.uniform(-2, 2)) * 0.5 ** n
                                 for i in range(1, 9)})
             for n in range(1, 33)]
    seq = sequence_from_list(elems)
    un = un_tail(seq, zero(tag), [bound], TS)
    nm = norm_tail(seq, zero(tag), TS)
    assert un.values == nm.values
    assert un.verdict == nm.verdict


def test_un_limit_lower_semicontinuity():
    tag = lp(2)
    x = LatticeVector(tag, {1: 1.0, 2: 2.0})
    seq = VectorSequence(tag, 64, lambda n: x + unit(tag, 3).scale(2.0 ** -n))
    report = un_tail(seq, x, [x.abs().join(unit(tag, 3))], TS)
    assert report.verdict == NULL
    window_norms = [seq.at(n).norm() for n in range(49, 65)]
    assert min(window_norms) >= x.norm() - 2 * TS.tol


def test_almost_order_bounded_upgrades_un_to_norm():
    tag = lp(2)
    eps = 2e-3
    u = unit(tag, 1).scale(10.0)
    seq = VectorSequence(
        tag, 64, lambda n: unit(tag, 1).scale(2.0 ** -n) + unit(tag, 2).scale(1e-3))
    aob = almost_order_bounded_check(seq.terms(), u, eps)
    assert aob.bounded
    report = un_tail(seq, zero(tag), [u], TS)
    assert report.verdict == NULL
    for n in range(49, 65):
        assert seq.at(n).norm() < eps + TS.tol
