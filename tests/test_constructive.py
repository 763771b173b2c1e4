"""Constructive witnesses: decomposition, disjointification, subsequences."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unlattice import constructive, convergence, jsonio
from unlattice.constructive import (
    kp_disjointify,
    kp_disjointify_positive,
    norm_to_order_subsequence,
    riesz_decompose,
    uo_extract,
)
from unlattice.convergence import (
    NULL,
    ToleranceSpec,
    VectorSequence,
    sequence_from_list,
    un_tail_qip,
)
from unlattice.errors import (
    HorizonExhausted,
    LatticeError,
    NegativeInput,
    NegativePart,
    NotADecomposition,
    SelectionStalled,
    ValidationError,
)
from unlattice.gallery import direct_sum_seq, overlap_seq, std_units, typewriter
from unlattice.spaces import (
    DirectSumVector,
    LatticeVector,
    MeasureModel,
    StepFunction,
    c0,
    check_tags,
    element_to_dict,
    is_disjoint,
    linf,
    lp,
    lp_step,
    unit,
    zero,
)

TS = ToleranceSpec()


# ---------------------------------------------------------------------------
# Riesz decomposition
# ---------------------------------------------------------------------------

def _assert_witness_ok(x, u, v, rtol=1e-12):
    w = riesz_decompose(x, u, v)
    residuals = w.identity_residuals(x, u, v)
    worst = max(residuals.values())
    assert worst <= rtol, residuals


def test_riesz_trivial_split():
    x = LatticeVector(lp(2), {1: 3.0, 2: -1.0})
    w = riesz_decompose(x, x.abs(), zero(lp(2)))
    assert w.y.coords == x.coords
    assert w.z.is_zero()


def test_riesz_crossed_split():
    tag = lp(1)
    x = LatticeVector(tag, {1: 1.0, 2: -1.0})
    u = unit(tag, 1)
    v = unit(tag, 2)
    w = riesz_decompose(x, u, v)
    assert w.y.coords == {1: 1.0}
    assert w.z.coords == {2: -1.0}
    _assert_witness_ok(x, u, v)


def test_riesz_step_function():
    tag = lp_step(2, MeasureModel(1, (0.3, 0.7)))
    x = StepFunction(tag, 2, np.array([1.5, -2.0, 0.0, 3.0]))
    u = x.abs().scale(0.25)
    v = x.abs() - u
    _assert_witness_ok(x, u, v)


def test_riesz_direct_sum():
    x = DirectSumVector(LatticeVector(lp(1), {1: -2.0}),
                        LatticeVector(linf(), {3: 1.0}))
    u = x.abs().scale(0.5)
    v = x.abs() - u
    _assert_witness_ok(x, u, v)


def test_riesz_randomized():
    rng = np.random.default_rng(17)
    tag = lp(2)
    for _ in range(300):
        support = rng.choice(np.arange(1, 30), size=6, replace=False)
        x = LatticeVector(tag, {int(i): float(v) for i, v in
                                zip(support, rng.uniform(-3, 3, 6))})
        t = rng.uniform(0.0, 1.0, 6)
        u = LatticeVector(tag, {int(i): float(ti) * abs(x[int(i)])
                                for i, ti in zip(support, t)})
        v = x.abs() - u
        _assert_witness_ok(x, u, v)


def test_riesz_rejects_bad_split():
    x = LatticeVector(lp(2), {1: 1.0})
    with pytest.raises(NotADecomposition):
        riesz_decompose(x, x.abs(), x.abs())
    with pytest.raises(NegativeInput):
        riesz_decompose(x, x.abs().scale(-1.0), x.abs().scale(2.0))


def _riesz_chain(x, u, v, tol):
    """riesz_decompose as the chain of element operations that the one-pass
    kernels replace: the reference they must match bit for bit."""
    if not tol > 0:
        raise ValidationError("tol must be > 0")
    check_tags(x.tag, u.tag)
    check_tags(x.tag, v.tag)
    if not u.is_positive() or not v.is_positive():
        raise NegativeInput("u and v must be >= 0")
    x_norm = x.norm()
    defect = (x.abs() - (u + v)).norm()
    if defect > tol * (1.0 + x_norm):
        raise NotADecomposition(f"|| |x| - (u+v) || = {defect:.3g} exceeds the tolerance")
    xp, xm = x.pos(), x.neg()
    a = xp.meet(u)
    b = u - a
    c = xp - a
    d = xm - b
    neg_slack = tol * (1.0 + x_norm + u.norm() + v.norm())
    for name, part in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not part.is_positive(slack=neg_slack):
            raise NegativePart(f"part {name} dips below -{neg_slack:.3g}")
    return a - b, c - d, a, b, c, d


def _outcome(fn, *args):
    """The parts fn returns, each as (canonical JSON, tag objects, positive
    flags), or the refusal as ``Type: message``."""
    def facts(e):
        pieces = (e.left, e.right) if isinstance(e, DirectSumVector) else (e,)
        return (jsonio.dumps(element_to_dict(e)), [id(q.tag) for q in pieces],
                [getattr(q, "_positive", None) for q in pieces])
    try:
        out = fn(*args)
    except LatticeError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, constructive.RieszWitness):
        out = (out.y, out.z, out.a, out.b, out.c, out.d)
    return [facts(e) for e in out]


SEQ_TAGS = (c0(), linf(), lp(1), lp(1.5), lp(2), lp(3))
magnitude = st.sampled_from([1e-310, 1e-200, 1.0, 1e200, 1e308])
share = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def seq_triple(draw, tag):
    """x, u, v with u + v = |x| up to rounding, or with u and v off by a
    small or a large amount."""
    m = draw(magnitude)
    x = draw(st.dictionaries(st.one_of(st.integers(1, 12), st.just(2 ** 62 - 1)),
                             st.floats(-1.5, 1.5).map(lambda f: f * m), max_size=6))
    u, v = {}, {}
    for i, xi in x.items():
        u[i] = draw(share) * abs(xi)
        v[i] = abs(xi) - u[i]
    for coords in (u, v):
        coords.update(draw(st.dictionaries(st.integers(1, 14),
                                           st.sampled_from([1e-12, 1e-300, 0.5, 1e308]),
                                           max_size=2)))
    return tuple(LatticeVector(tag, c) for c in (x, u, v))


@st.composite
def step_triple(draw, p):
    """x, u, v at levels of their own over distinct but compatible measures
    (cells as light as 1e-30), with signed zeros; u and v split |x| or are
    drawn freely."""
    base = draw(st.integers(0, 2))
    weights = draw(st.lists(st.sampled_from([1e-30, 0.25, 1.0, 3.0]),
                            min_size=2 ** base, max_size=2 ** base))
    measure = MeasureModel(base, tuple(weights))
    tags = [lp_step(p, measure.refined(base + k)) for k in range(3)]
    m = draw(st.sampled_from([1.0, 1e-310, 1e307]))
    value = st.one_of(st.floats(-2.0, 2.0), st.just(-0.0)).map(lambda f: f * m)

    def step(tag, level, values=value):
        return StepFunction(tag, level, draw(st.lists(values, min_size=2 ** level,
                                                      max_size=2 ** level)))

    tx, tu, tv = (draw(st.sampled_from(tags)) for _ in range(3))
    lx, lu, lv = (t.measure.level + draw(st.integers(0, 2)) for t in (tx, tu, tv))
    x = step(tx, lx)
    if draw(st.booleans()):
        lu = max(lu, lx, tv.measure.level)
        ax = np.abs(x.refined(lu).values)
        us = ax * draw(share)
        vs = ax - us
        # a bump on a light cell passes the defect test; where x < 0 it drives d below 0
        us[draw(st.integers(0, us.size - 1))] += draw(st.sampled_from([0.0, 0.5]))
        u, v = StepFunction(tu, lu, us), StepFunction(tv, lu, vs)
    else:
        nonneg = st.one_of(st.floats(0.0, 2.0).map(lambda f: f * m),
                           st.sampled_from([-0.0, 1e308]))
        u, v = step(tu, lu, nonneg), step(tv, lv, nonneg)
    return x, u, v


def riesz_case():
    tol = st.sampled_from([1e-9, 1e-12, 1e-3, 0.5, float("inf")])
    seq = st.sampled_from(SEQ_TAGS).flatmap(seq_triple)
    step = st.sampled_from([1.0, 2.0, 3.0]).flatmap(step_triple)
    direct = st.tuples(seq_triple(lp(1)), seq_triple(linf())).map(
        lambda lr: tuple(map(DirectSumVector, *lr)))
    return st.tuples(st.one_of(seq, step, direct), tol)


@settings(max_examples=200, deadline=None)
@given(riesz_case())
@example(((StepFunction(lp_step(1, MeasureModel(1, (1e-12, 1.0))), 1, [-1.0, 0.0]),
           StepFunction(lp_step(1, MeasureModel(1, (1e-12, 1.0))), 1, [1.5, 0.0]),
           zero(lp_step(1, MeasureModel(1, (1e-12, 1.0))))), 1e-9))
def test_riesz_kernels_match_the_operation_chain(case):
    (x, u, v), tol = case
    assert _outcome(riesz_decompose, x, u, v, tol) == _outcome(_riesz_chain, x, u, v, tol)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, -0.0])
def test_riesz_refuses_a_tolerance_not_above_zero(tol):
    x = LatticeVector(lp(2), {1: 1.0, 2: -2.0})
    with pytest.raises(ValidationError, match=r"^tol must be > 0$"):
        riesz_decompose(x, x.abs(), zero(lp(2)), tol)
    with pytest.raises(ValidationError, match=r"^tol must be > 0$"):  # before any other check
        riesz_decompose(x, unit(c0(), 1), x.abs().scale(-1.0), tol)


# ---------------------------------------------------------------------------
# greedy disjointification
# ---------------------------------------------------------------------------

def test_kp_positive_already_disjoint():
    seq = std_units(lp(2), 32)
    res = kp_disjointify_positive(seq, 6, TS, check_un_null=False)
    assert res.selected_indices == [1, 2, 3, 4, 5, 6]
    assert res.residual_norms == [0.0] * 6
    for part, n in zip(res.disjoint_parts, res.selected_indices):
        assert part.coords == seq.at(n).coords
    assert all(v == 0.0 for v in res.meet_matrix.values())


def test_kp_positive_overlap_bounds():
    seq = overlap_seq(lp(2), 512)
    res = kp_disjointify_positive(seq, 6, TS, check_un_null=False)
    for (i, k), m in res.meet_matrix.items():
        assert m <= 2.0 ** -(i + k)
    for k, (n, dk, r) in enumerate(zip(res.selected_indices, res.disjoint_parts,
                                       res.residual_norms), start=1):
        assert r < 2.0 ** -k
        assert dk.leq(seq.at(n))
    parts = res.disjoint_parts
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert is_disjoint(parts[i], parts[j], tol=1e-12)


def test_kp_positive_constant_sequence_exhausts():
    tag = lp(2)
    seq = VectorSequence(tag, 16, lambda n: unit(tag, 1))
    with pytest.raises(HorizonExhausted) as exc:
        kp_disjointify_positive(seq, 3, TS, check_un_null=False)
    assert exc.value.step == 2
    assert exc.value.partial.selected_indices == [1]


def test_kp_advisory_budget_reads_the_whole_length():
    calls = []

    def at(n):
        calls.append(n)
        return unit(c0(), n)

    seq = VectorSequence(c0(), 17, at)
    with mock.patch.object(convergence, "_MAX_CELLS", 16):
        # the 4-term tail window fits the budget, the 17-term sequence does not
        for kp in (kp_disjointify, kp_disjointify_positive):
            res = kp(seq, 3, ToleranceSpec(window=4))
            assert res.warnings == ["un-null precondition could not be checked: "
                                    "a 17 x 1 matrix exceeds 16 cells"]
            assert calls == [1, 2, 3]  # the greedy scan's terms, each generated once
            calls.clear()


def test_kp_advisory_window_over_the_length_warns_before_a_term_is_made():
    calls = []

    def at(n):
        calls.append(n)
        return unit(c0(), n)

    warning = "un-null precondition could not be checked: window exceeds sequence length"
    for kp in (kp_disjointify, kp_disjointify_positive):
        res = kp(VectorSequence(c0(), 6, at), 3, ToleranceSpec(window=7))
        assert res.warnings == [warning] and calls == [1, 2, 3]
        calls.clear()
    assert kp_disjointify(direct_sum_seq(6), 2, ToleranceSpec(window=7)).warnings == [warning]


def test_kp_reads_each_scanned_term_once():
    calls = []

    def at(n):  # -e_1 three times, then -e_n: the scan rejects 2 and 3
        calls.append(n)
        return unit(c0(), 1 if n <= 3 else n).scale(-1.0)

    res = kp_disjointify(VectorSequence(c0(), 8, at), 3, TS, check_un_null=False)
    assert res.selected_indices == [1, 4, 5] and calls == [1, 2, 3, 4, 5]
    assert [d.coords for d in res.disjoint_parts] == [{1: -1.0}, {4: -1.0}, {5: -1.0}]


def test_kp_positive_rejects_signed_terms():
    tag = lp(2)
    seq = VectorSequence(tag, 8, lambda n: unit(tag, n).scale(-1.0))
    with pytest.raises(NegativeInput):
        kp_disjointify_positive(seq, 2, TS, check_un_null=False)


def test_kp_advisory_warning_on_non_un_null_input():
    seq = std_units(linf(), 64)
    res = kp_disjointify_positive(seq, 4, TS)
    assert res.warnings and "not un-null" in res.warnings[0]
    with pytest.raises(ValidationError):
        kp_disjointify_positive(seq, 4, TS, require_un_null=True)


def test_kp_signed_advisory_runs_once_on_the_signed_sequence():
    calls = []

    def at(n):
        calls.append(n)
        return unit(linf(), n).scale((-1.0) ** n)

    seq = VectorSequence(linf(), 64, at)
    w = TS.window_for(seq.length)
    generated = []

    def advisory_run(tail, limit, ts):
        start = len(calls)
        report = un_tail_qip(tail, limit, ts)
        generated.extend(calls[start:])
        return report

    with mock.patch.object(constructive, "un_tail_qip", side_effect=advisory_run) as advisory:
        res = kp_disjointify(seq, 4, TS)
    advisory.assert_called_once()
    tail = advisory.call_args.args[0]
    # the advisory reads the last w signed terms, each generated once, and no other
    assert tail.length == w
    assert generated == list(range(seq.length - w + 1, seq.length + 1))
    assert [tail.at(k).coords for k in range(1, w + 1)] == [
        {n: (-1.0) ** n} for n in range(seq.length - w + 1, seq.length + 1)]
    assert res.warnings and "not un-null" in res.warnings[0]
    with pytest.raises(ValidationError, match="not un-null"):
        kp_disjointify(std_units(linf(), 64), 4, TS, require_un_null=True)
    assert kp_disjointify(std_units(linf(), 64), 4, TS, check_un_null=False).warnings == []
    assert kp_disjointify(overlap_seq(lp(2), 64), 4, TS).warnings == []


def _greedy_disjoint_nested(seq, target_count, warnings):
    """The slot-by-slot greedy scan: one rescan from the last pick per slot."""
    def term(n):
        x = seq.at(n)
        if not x.is_positive():
            raise NegativeInput(f"seq({n}) has a negative coordinate")
        return x

    selected = [1]
    terms = [term(1)]
    while len(selected) < target_count:
        k = len(selected) + 1
        found = None
        for n in range(selected[-1] + 1, seq.length + 1):
            x = term(n)
            if all(x.meet(terms[i - 1]).norm() <= 2.0 ** -(k + i) for i in range(1, k)):
                found = (n, x)
                break
        if found is None:
            partial = constructive._assemble_disjoint(selected, terms, warnings)
            raise HorizonExhausted(
                f"no admissible index for selection slot {k} "
                f"(bound 2**-(k+i), k={k})", step=k, partial=partial,
            )
        selected.append(found[0])
        terms.append(found[1])
    return constructive._assemble_disjoint(selected, terms, warnings)


def _disjoint_outcome(scan, terms, target_count):
    """What ``scan`` returns or raises on ``terms``, and the indices it generated."""
    calls = []

    def at(n):
        calls.append(n)
        return terms[n - 1]

    try:
        out = scan(VectorSequence(lp(1), len(terms), at), target_count, [])
        result = ("ok", out.selected_indices, out.residual_norms, out.meet_matrix)
    except HorizonExhausted as exc:
        result = ("exhausted", str(exc), exc.step, exc.partial.selected_indices,
                  exc.partial.residual_norms)
    except NegativeInput as exc:
        result = ("negative", str(exc))
    return result, calls


def test_greedy_disjoint_scan_matches_the_nested_scan():
    rng = np.random.default_rng(17)
    kinds = set()
    for _ in range(150):
        length = int(rng.integers(1, 16))
        terms = [LatticeVector(lp(1), {int(i): float(2.0 ** -rng.integers(0, 9)) for i in
                                       rng.choice(6, int(rng.integers(0, 3)), replace=False) + 1})
                 for _ in range(length)]
        if rng.random() < 0.1:
            terms[int(rng.integers(length))] = LatticeVector(lp(1), {2: -1.0})
        for target_count in (1, 2, 3, 5, length):
            nested = _disjoint_outcome(_greedy_disjoint_nested, terms, target_count)
            assert _disjoint_outcome(constructive._greedy_disjoint, terms, target_count) == nested
            kinds.add(nested[0][0])
            if nested[0][0] == "ok" and nested[0][1][-1] == length and target_count > 1:
                kinds.add("target at the last index")
            if nested[0][0] == "exhausted" and nested[0][2] > 2:
                kinds.add("exhausted after slot 2")
    assert kinds == {"ok", "exhausted", "negative", "target at the last index",
                     "exhausted after slot 2"}


def test_kp_signed_preserves_signs():
    tag = lp(2)
    seq = VectorSequence(tag, 16, lambda n: unit(tag, n).scale((-1.0) ** n))
    res = kp_disjointify(seq, 5, TS, check_un_null=False)
    for n, part in zip(res.selected_indices, res.disjoint_parts):
        assert part.coords == seq.at(n).coords
    assert res.residual_norms == [0.0] * 5


def test_kp_signed_overlap():
    base = overlap_seq(lp(2), 256)
    seq = VectorSequence(base.tag, base.length,
                         lambda n: base.at(n).scale((-1.0) ** n))
    res = kp_disjointify(seq, 5, TS, check_un_null=False)
    for k, (n, dk, r) in enumerate(zip(res.selected_indices, res.disjoint_parts,
                                       res.residual_norms), start=1):
        assert r < 2.0 ** -k
        assert dk.abs().leq(seq.at(n).abs(), slack=1e-12)
        # the surviving part keeps the sign of the original term
        x = seq.at(n)
        assert all(v * x[i] > 0 for i, v in dk.coords.items())
    parts = res.disjoint_parts
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert is_disjoint(parts[i], parts[j], tol=1e-12)


def test_kp_subsequence_stays_un_null():
    seq = overlap_seq(lp(2), 512)
    res = kp_disjointify_positive(seq, 6, TS, check_un_null=False)
    sub = sequence_from_list([seq.at(n) for n in res.selected_indices])
    report = un_tail_qip(sub, zero(seq.tag), ToleranceSpec(tol=1e-2, window=2))
    assert report.verdict == NULL


# ---------------------------------------------------------------------------
# uo-subsequence extraction
# ---------------------------------------------------------------------------

def _select_geometric_nested(length, q, target_count, stall_message):
    """The slot-by-slot selection: one rescan from the last pick per slot."""
    picks, values = [], []
    prev = 0
    k = 1
    while True:
        found = None
        for n in range(prev + 1, length + 1):
            v = q(n)
            if v <= 2.0 ** -k:
                found = (n, v)
                break
        if found is None:
            if target_count is not None and len(picks) < target_count:
                raise SelectionStalled(stall_message.format(k=k), step=k, partial=picks)
            break
        picks.append(found[0])
        values.append(found[1])
        prev = found[0]
        k += 1
        if target_count is not None and len(picks) == target_count:
            break
    if not picks:
        raise SelectionStalled("no admissible first index", step=1, partial=[])
    return picks, values


def _selection_outcome(scan, table, target_count):
    """What ``scan`` returns or raises over the q values ``table``, and the
    indices at which it called q."""
    calls = []

    def q(n):
        calls.append(n)
        return table[n - 1]

    try:
        result = scan(len(table), q, target_count, "stalled at k={k}")
    except SelectionStalled as exc:
        result = (str(exc), exc.step, exc.partial)
    return result, calls


def test_select_geometric_scan_matches_the_nested_scan():
    rng = np.random.default_rng(29)
    kinds = set()
    for _ in range(300):
        length = int(rng.integers(1, 30))
        table = (rng.uniform(0.0, 1.0, length) * 2.0 ** -rng.integers(0, 10, length)).tolist()
        if rng.random() < 0.5:
            table[-1] = 0.0  # always admissible: some selection ends at the last index
        free = _selection_outcome(_select_geometric_nested, table, None)[0]
        picks = len(free[0]) if isinstance(free[0], list) else 0
        for target_count in (None, 0, 1, 3, picks, picks + 1, picks + 4):
            nested = _selection_outcome(_select_geometric_nested, table, target_count)
            scan = _selection_outcome(constructive._select_geometric, table, target_count)
            assert scan == nested
            result = nested[0]
            if target_count is None:
                kinds.add("no target")
            if isinstance(result[1], int) and result[1] > 1:
                kinds.add("stall at slot k > 1")
            if target_count and isinstance(result[0], list) and result[0][-1] == length:
                kinds.add("target at the last index")
    assert kinds == {"no target", "stall at slot k > 1", "target at the last index"}


def test_uo_extract_units():
    seq = std_units(c0(), 32)
    out = uo_extract(seq, TS)
    assert out.test_vector.coords == {n: 2.0 ** -n for n in range(1, 33)}
    assert out.subindices == list(range(1, 33))
    for k, m in enumerate(out.meet_norms, start=1):
        assert m <= 2.0 ** -k
    assert out.report.verdict == NULL
    assert not out.degenerate


def test_uo_extract_typewriter():
    out = uo_extract(typewriter(10), ToleranceSpec(tol=1e-2, window=2))
    for k, m in enumerate(out.meet_norms, start=1):
        assert m <= 2.0 ** -k
    assert out.subindices == sorted(out.subindices)
    assert out.report.quantity == "uo-subsequence-unsettled-mass"
    assert out.report.verdict == NULL
    # the test vector (level 8) is finer than every selected term (levels 1..7)
    out = uo_extract(typewriter(9, p=2), ToleranceSpec(tol=1e-2, window=2))
    assert out.subindices == [3, 14, 56, 224]
    assert out.test_vector.level == 8
    assert out.report.extras["refinement_level"] == 8
    assert out.report.values == [0.5, 0.125, 0.03125, 0.0078125]


def test_uo_extract_generates_each_term_once():
    for seq in (typewriter(6), std_units(c0(), 32),
                VectorSequence(lp(2), 24, lambda n: unit(lp(2), n % 5 + 1).scale(2.0 ** -n))):
        calls = []

        def at(n, seq=seq):
            calls.append(n)
            return seq.at(n)

        uo_extract(VectorSequence(seq.tag, seq.length, at), ToleranceSpec(tol=1e-2, window=2))
        assert calls == list(range(1, seq.length + 1))


def test_uo_extract_certificate_outside_the_band():
    # the selected terms are zero, so no coordinate of e's support is touched
    tag = c0()
    seq = sequence_from_list([zero(tag), zero(tag), unit(tag, 5), unit(tag, 6)])
    out = uo_extract(seq, TS, target_count=2)
    assert out.subindices == [1, 2]
    assert out.test_vector.coords == {5: 2.0 ** -3, 6: 2.0 ** -4}
    assert out.report.extras["coordinates"] == ["1"]
    assert out.report.extras["limsup"] == [0.0]
    assert out.report.verdict == NULL


def test_uo_extract_zero_sequence_degenerate():
    seq = VectorSequence(lp(2), 8, lambda n: zero(lp(2)))
    out = uo_extract(seq, TS)
    assert out.degenerate
    assert out.test_vector.is_zero()
    assert out.report.verdict == NULL


def test_uo_extract_target_count_stalls():
    seq = std_units(c0(), 16)
    out = uo_extract(seq, TS, target_count=10)
    assert len(out.subindices) == 10
    with pytest.raises(SelectionStalled) as exc:
        uo_extract(seq, TS, target_count=20)
    assert len(exc.value.partial) == 16


# ---------------------------------------------------------------------------
# norm-null -> order-null subsequence
# ---------------------------------------------------------------------------

def test_norm_to_order_geometric():
    tag = lp(2)
    seq = VectorSequence(tag, 64, lambda n: unit(tag, 1).scale(2.0 ** -n))
    out = norm_to_order_subsequence(seq, TS)
    assert out.subindices[:4] == [1, 2, 3, 4]
    for m, c in enumerate(out.certificate_norms, start=1):
        assert c <= 2.0 ** -(m - 1)


def test_norm_to_order_certificate_dominates():
    tag = lp(1)
    rng = np.random.default_rng(23)
    scales = 2.0 ** -np.arange(1, 65) * rng.uniform(0.3, 1.0, 64)
    seq = VectorSequence(tag, 64,
                         lambda n: unit(tag, n % 5 + 1).scale(float(scales[n - 1])))
    out = norm_to_order_subsequence(seq, TS)
    for m in range(1, len(out.subindices) + 1):
        tail = zero(tag)
        for n in out.subindices[m - 1:]:
            tail = tail + seq.at(n).abs()
        assert tail.norm() == pytest.approx(out.certificate_norms[m - 1])
        for n in out.subindices[m - 1:]:
            assert seq.at(n).abs().leq(tail, slack=1e-12)


def test_norm_to_order_slow_decay():
    tag = lp(2)
    seq = VectorSequence(tag, 4096, lambda n: unit(tag, 1).scale(1.0 / n))
    out = norm_to_order_subsequence(seq, ToleranceSpec(tol=1e-2))
    assert out.subindices == [2 ** k for k in range(1, 13)]
    with pytest.raises(SelectionStalled):
        norm_to_order_subsequence(seq, ToleranceSpec(tol=1e-2), target_count=20)


def test_norm_to_order_generates_each_term_once_plus_the_selected():
    for tag in (lp(2), lp_step(1)):
        base = VectorSequence(tag, 40, lambda n, tag=tag: (
            unit(tag, n % 3 + 1) if tag.is_sequence_kind
            else StepFunction(tag, 1, np.array([1.0, -0.5]))).scale(0.8 ** n))
        calls = []

        def at(n, base=base):
            calls.append(n)
            return base.at(n)

        out = norm_to_order_subsequence(VectorSequence(tag, 40, at), ToleranceSpec(tol=1e-2))
        assert len(out.subindices) > 3
        assert calls[:40] == list(range(1, 41))
        assert sorted(calls[40:]) == out.subindices


def test_norm_to_order_requires_norm_null():
    seq = std_units(lp(2), 32)
    with pytest.raises(ValidationError):
        norm_to_order_subsequence(seq, TS)
