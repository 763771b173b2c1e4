"""Each reference check accepts the program's real output and rejects a wrong one.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from unlattice import constructive, convergence, gallery, jsonio, runner, spaces, topology  # noqa: E402
from unlattice.errors import ValidationError  # noqa: E402

TOL = 1e-6


def report(source, diag, tol=TOL, window=None):
    """The program's report, through the same path and serialisation as a job."""
    ts = convergence.ToleranceSpec(tol=tol, window=window)
    rep = runner.run_diagnostic(runner.build_sequence(source), diag, ts)
    return json.loads(jsonio.dumps(rep.to_json_dict()))


def rejects(check, bad):
    with pytest.raises(CheckFailed):
        check(bad)


def altered(rep, **changes):
    out = copy.deepcopy(rep)
    for key, fn in changes.items():
        out[key] = fn(out[key])
    return out


def flip(verdict):
    return "NULL" if verdict == "NOT_NULL" else "NOT_NULL"


def bump(i, factor):
    def fn(values):
        values[i] *= factor
        return values
    return fn


def test_typewriter_in_measure_is_exactly_dyadic():
    rep = report({"gallery": "typewriter", "params": {"max_level": 5}},
                 {"name": "in_measure", "delta": 0.5}, 1e-2, 4)
    ref = checks.typewriter_in_measure_ref(5)

    def check(r):
        checks.check_tail(r, ref, 1e-2, 4)

    check(rep)
    rejects(check, altered(rep, values=bump(6, 1.0 + 2 ** -52)))
    rejects(check, altered(rep, verdict=flip))


def test_typewriter_un_qip_within_ulps():
    rep = report({"gallery": "typewriter", "params": {"max_level": 5, "p": 2.0}},
                 {"name": "un_qip"}, 1e-2, 4)
    ref = checks.typewriter_un_qip_ref(5, 2.0)

    def check(r):
        checks.check_tail(r, ref, 1e-2, 4, ulps=4)

    check(rep)
    rejects(check, altered(rep, values=bump(9, 1.0 + 1e-12)))


def test_typewriter_pointwise_closed_form():
    rep = report({"gallery": "typewriter", "params": {"max_level": 6}},
                 {"name": "pointwise"}, 1e-2, 8)
    ref = checks.typewriter_pointwise_ref(6, 1e-2, 8)
    checks.check_pointwise(rep, ref)
    bad = copy.deepcopy(rep)
    bad["witness"]["violation_indices"][0] += 1
    rejects(lambda r: checks.check_pointwise(r, ref), bad)
    bad = copy.deepcopy(rep)
    bad["extras"]["limsup"][3] = 0.0
    rejects(lambda r: checks.check_pointwise(r, ref), bad)


def test_unit_norms_are_exactly_one_and_un_qip_exactly_dyadic():
    for entry, kind in (("std_units_c0", "c0"), ("std_units_l1", "lp")):
        rep = report({"gallery": entry, "params": {"horizon": 40}}, {"name": "norm"})
        checks.check_constant(rep, 1.0, 40, TOL, None)
        rejects(lambda r: checks.check_constant(r, 1.0, 40, TOL, None),
                altered(rep, values=bump(3, 1.0 + 2 ** -52)))
        rep = report({"gallery": entry, "params": {"horizon": 40}}, {"name": "un_qip"})
        checks.check_unit_un_qip(rep, kind, 40, TOL, None)
        rejects(lambda r: checks.check_unit_un_qip(r, kind, 40, TOL, None),
                altered(rep, values=bump(30, 1.0 - 2 ** -53)))


def test_overlap_norms_match_fsum():
    rep = report({"gallery": "overlap_l2", "params": {"horizon": 48}}, {"name": "norm"})
    checks.check_overlap_norms(rep, 48, TOL, None)
    rejects(lambda r: checks.check_overlap_norms(r, 48, TOL, None),
            altered(rep, values=bump(20, 1.0 + 1e-15)))


def test_rademacher_pairings_cancel_exactly():
    profile = np.array([2.0, 1.0, 1.0, 1.0])
    family = [np.array([1.0]), np.array([1.0, -1.0, 2.0, 0.5]), np.array([1.0, 0.0, 0.0, 0.0])]
    rep = report({"gallery": "rademacher"}, {"name": "weak", "functionals": "step_family"},
                 1e-12, 2)

    def check(r):
        checks.check_rademacher_weak(r, profile, family, 1e-12, 2, 10)

    check(rep)
    bad = copy.deepcopy(rep)
    bad["values"][6] = 1e-300
    rejects(check, bad)


def _step_case(null):
    rng = np.random.default_rng(3)
    base = 2
    weights = rng.uniform(0.2, 1.8, 4)
    weights /= weights.sum()
    tag = {"kind": "lp_step", "p": 1.5, "measure": {"level": base, "weights": weights.tolist()}}
    terms = []
    for n in range(1, 17):
        level = int(rng.integers(3, 6))
        v = rng.uniform(-1.5, 1.5, 2 ** level) * (10.0 ** (-24 * n / 16) if null else 1.0)
        terms.append((level, v))
    functionals = [(2, rng.uniform(0.2, 1.0, 4))]
    source = {"inline": {"elements": [{"tag": tag, "level": lv, "values": v.tolist()}
                                      for lv, v in terms]}}
    fdicts = [{"tag": tag, "level": lv, "values": f.tolist()} for lv, f in functionals]
    return source, weights, terms, functionals, fdicts


@pytest.mark.parametrize("null", [True, False])
def test_random_step_jobs_match_numpy(null):
    source, weights, terms, functionals, fdicts = _step_case(null)
    for diag in ({"name": "norm"}, {"name": "un"}, {"name": "in_measure", "delta": 1e-3},
                 {"name": "weak", "functionals": fdicts}, {"name": "pointwise"}):
        rep = report(source, diag)
        check = checks.step_job_check(diag, 1.5, weights, terms, functionals, TOL, None)
        check(rep)
        rejects(check, altered(rep, values=bump(0, 1.0 + 1e-9)))
        rejects(check, altered(rep, verdict=flip))


@pytest.mark.parametrize("kind,p", [("c0", None), ("lp", 1.0), ("lp", 3.0), ("linf", None)])
def test_random_sparse_jobs_match_dicts(kind, p):
    rng = np.random.default_rng(5)
    terms = []
    for n in range(1, 13):
        support = (rng.choice(300, 20, replace=False) + 1).tolist()
        terms.append(dict(zip(support, rng.uniform(-1.5, 1.5, 20).tolist())))
        terms[-1][3] = 0.75
    tag = {"kind": kind, "p": p} if kind == "lp" else {"kind": kind}

    def as_dict(x):
        return {"tag": tag, "coords": {str(i): v for i, v in x.items()}}

    tests = [{i: 2.0 ** -i for i in range(1, 40)}]
    functionals = [{i: 0.5 for i in range(1, 300, 7)}]
    source = {"inline": {"elements": [as_dict(x) for x in terms]}}
    for diag in ({"name": "norm"}, {"name": "un", "tests": [as_dict(u) for u in tests]},
                 {"name": "un_qip", "horizon": 512}, {"name": "pointwise"},
                 {"name": "weak", "functionals": [as_dict(f) for f in functionals]}):
        rep = report(source, diag)
        check = checks.sparse_job_check(diag, kind, p, terms, TOL, None, tests, functionals)
        check(rep)
        rejects(check, altered(rep, values=bump(4, 1.0 + 1e-9)))


def test_kp_result_checks():
    horizon, count = 128, 5
    res = constructive.kp_disjointify(gallery.overlap_seq(spaces.lp(2), horizon), count,
                                      convergence.ToleranceSpec())
    parts = [dict(d.coords) for d in res.disjoint_parts]
    sel, meets = list(res.selected_indices), dict(res.meet_matrix)
    checks.check_kp(sel, meets, parts, horizon, count)

    rejects(lambda s: checks.check_kp(s, meets, parts, horizon, count),
            [sel[0], sel[2], sel[1]] + sel[3:])
    rejects(lambda s: checks.check_kp(s, meets, parts, horizon, count),
            sel[:-1] + [sel[-1] + 1])
    bad = dict(meets)
    bad[(1, 2)] = 2.0 ** -2
    rejects(lambda m: checks.check_kp(sel, m, parts, horizon, count), bad)
    overlapping = copy.deepcopy(parts)
    overlapping[1][sel[0]] = 0.5  # share a coordinate with part 1
    rejects(lambda ps: checks.check_kp(sel, meets, ps, horizon, count), overlapping)
    far = copy.deepcopy(parts)
    far[2][sel[2]] = 0.5  # ||x_{n_3} - d_3|| = 0.5 > 2**-3
    rejects(lambda ps: checks.check_kp(sel, meets, ps, horizon, count), far)


def test_uo_extract_checks():
    ts = convergence.ToleranceSpec(tol=1e-2, window=2)
    out = constructive.uo_extract(gallery.typewriter(7), ts)
    e = out.test_vector
    rep = out.report.to_json_dict()

    def check(subindices, meet_norms, r):
        checks.check_uo_typewriter(subindices, meet_norms, r, e.level, np.asarray(e.values),
                                   7, 1.0, 1e-2, 2)

    check(out.subindices, out.meet_norms, rep)
    rising = copy.deepcopy(rep)
    rising["values"][-1] = rising["values"][-2] * 2
    rejects(lambda r: check(out.subindices, out.meet_norms, r), rising)
    rejects(lambda m: check(out.subindices, m, rep), [1.0] + out.meet_norms[1:])
    rejects(lambda m: check(out.subindices, m, rep),
            out.meet_norms[:2] + [out.meet_norms[2] * (1 + 1e-9)] + out.meet_norms[3:])


def test_order_witness_checks():
    tag = spaces.lp(2)
    bound = {2: 1.5, 5: 0.7, 9: 1.9, 11: 0.6, 17: 1.1, 20: 0.9, 26: 1.2, 31: 0.8}
    damps = 0.8 * 0.9 ** np.arange(1, 201)
    bvec = spaces.LatticeVector(tag, bound)
    seq = convergence.VectorSequence(tag, 200, lambda n: bvec.scale(float(damps[n - 1])))
    w = convergence.order_witness_atomic(seq, bvec, convergence.ToleranceSpec())
    checks.check_order_witness(w.atoms, w.entries, bound, damps, "lp", 2.0, steps=8)
    bad = copy.deepcopy(w.entries)
    bad[4]["index"] += 1
    rejects(lambda e: checks.check_order_witness(w.atoms, e, bound, damps, "lp", 2.0, steps=8),
            bad)


def test_axiom_suite_needs_zero_failures():
    rep = topology.axiom_suite(spaces.c0(), samples=40, rng_seed=1).to_json_dict()
    checks.check_axiom_suite(rep, 40)
    bad = copy.deepcopy(rep)
    bad["total_failures"] = 1
    rejects(lambda r: checks.check_axiom_suite(r, 40), bad)


@pytest.mark.parametrize("tag", [spaces.lp(3), spaces.lp_step(2, spaces.MeasureModel(
    2, (0.1, 0.2, 0.3, 0.4))), spaces.direct_sum()])
def test_riesz_residuals(tag):
    import workloads

    x, u, v = workloads.riesz_triple(np.random.default_rng(9), tag)
    w = constructive.riesz_decompose(x, u, v)
    checks.check_riesz(x, u, v, w)
    w.y = w.y.scale(1.0 + 1e-9)
    with pytest.raises(CheckFailed):
        checks.check_riesz(x, u, v, w)


def test_named_fault_checks():
    rep = report({"inline": {"elements": [{"tag": {"kind": "c0"}, "coords": {"21": 1.0}}] * 16}},
                 {"name": "un_qip"})
    rejects(lambda r: checks.check_verdict(r, "NOT_NULL"), rep)
    checks.check_validation_error(ValidationError("refused"))
    rejects(checks.check_validation_error, KeyError("delta"))
    rejects(checks.check_validation_error, None)


def test_tail_rule():
    assert checks.tail_rule([1.0, 0.0, 0.0], 0.5, 2) == ("NULL", None)
    assert checks.tail_rule([0.0, 0.0, math.inf], 0.5, 2) == ("NOT_NULL", 3)
