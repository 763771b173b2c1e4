"""Seeded job lists for the benchmark's three workloads.

A job is one call a user makes into the program, with the check of its
output.  Scenario jobs go through ``runner.build_sequence`` and
``runner.run_diagnostic`` and serialise the report with ``jsonio.dumps``, as
``unlattice run`` does (the echo of the input scenario is left out of the
output); the other jobs call ``constructive.*``,
``convergence.order_witness_atomic`` or ``topology.axiom_suite`` directly.
Program functions are looked up on their modules at call time, so wrappers
installed by the traced run see every call.

Each workload fixes how many jobs of each family a round holds and their
sizes; the seed draws values, supports, measures, suite seeds and the order.
Sizes are spread over continuous ranges, one in the middle of each of
several equal strata, so that job times form no separate clusters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import unlattice
from unlattice import constructive, convergence, gallery, jsonio, runner, spaces, topology

TOL = 1e-6


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises checks.CheckFailed
    fault: bool = False  # a known fault of the program: expected to fail today


def lazy(build: Callable[[], Callable]) -> Callable:
    """check(out) whose reference is built on first use and kept for later rounds."""
    built = []

    def check(out):
        if not built:
            built.append(build())
        built[0](out)

    return check


def spread(n: int, lo: float, hi: float, log: bool = False) -> np.ndarray:
    """n ascending sizes covering [lo, hi]: the middles of n equal strata.

    Sizes do not depend on the seed, so neither does the work of a round nor
    which jobs sit at the ranks of the median and the 90th percentile.
    """
    u = (np.arange(n) + 0.5) / n
    return lo * (hi / lo) ** u if log else lo + (hi - lo) * u


def scenario_job(kind: str, source: dict, diagnostic: dict, tol: float, window,
                 check_report: Callable[[dict], None], fault: bool = False) -> Job:
    def run():
        ts = convergence.ToleranceSpec(tol=tol, window=window)
        seq = runner.build_sequence(source)
        report = runner.run_diagnostic(seq, diagnostic, ts)
        return jsonio.dumps({"schema": 1, "toolkit_version": unlattice.__version__,
                             "sequence": seq.name, "report": report.to_json_dict()},
                            indent=2)

    return Job(kind, run, lambda text: check_report(json.loads(text)["report"]), fault)


def raises_job(kind: str, call: Callable[[], object]) -> Job:
    """A malformed input that must be refused with ValidationError."""
    def run():
        try:
            call()
        except Exception as exc:  # the type is what the check inspects
            return exc
        return None

    return Job(kind, run, checks.check_validation_error, fault=True)


def _tail(ref: Callable[[], list], tol, window, **kw) -> Callable[[dict], None]:
    def build():
        values = ref()
        return lambda r: checks.check_tail(r, values, tol, window, **kw)

    return lazy(build)


# ---------------------------------------------------------------------------
# step_models
# ---------------------------------------------------------------------------

TW_TOL, TW_WINDOW = 1e-2, 256


def typewriter_job(max_level: int, p: float, name: str) -> Job:
    source = {"gallery": "typewriter", "params": {"max_level": max_level, "p": p}}
    if name == "in_measure":
        diag = {"name": "in_measure", "delta": 0.5}
        check = _tail(lambda: checks.typewriter_in_measure_ref(max_level), TW_TOL, TW_WINDOW)
    elif name == "un_qip":
        diag = {"name": "un_qip"}
        check = _tail(lambda: checks.typewriter_un_qip_ref(max_level, p), TW_TOL, TW_WINDOW,
                      ulps=4)
    else:
        diag = {"name": "pointwise"}

        def build():
            ref = checks.typewriter_pointwise_ref(max_level, TW_TOL, TW_WINDOW)
            return lambda r: checks.check_pointwise(r, ref)

        check = lazy(build)
    return scenario_job(f"typewriter.{name}", source, diag, TW_TOL, TW_WINDOW, check)


def rademacher_jobs() -> list[Job]:
    source = {"gallery": "rademacher"}
    profile = np.array([2.0, 1.0, 1.0, 1.0])
    family = [np.array([1.0]), np.array([1.0, -1.0, 2.0, 0.5]), np.array([1.0, 0.0, 0.0, 0.0])]
    terms = 10
    return [
        scenario_job("rademacher.weak", source, {"name": "weak", "functionals": "step_family"},
                     1e-12, 2, lambda r: checks.check_rademacher_weak(
                         r, profile, family, 1e-12, 2, terms)),
        scenario_job("rademacher.modulus_weak", source,
                     {"name": "weak", "functionals": "constant_one", "modulus": True},
                     TOL, None, lambda r: checks.check_constant(r, 1.25, terms, TOL, None)),
        scenario_job("rademacher.un", source, {"name": "un", "tests": "profile"},
                     TOL, None, lambda r: checks.check_constant(r, 1.25, terms, TOL, None)),
    ]


def uo_job(max_level: int) -> Job:
    # p = 1 only: uo_extract(typewriter(9, p=2)) raises (a FOUND line in CHANGES.md)
    p = 1.0
    ts = convergence.ToleranceSpec(tol=1e-2, window=2)

    def run():
        return constructive.uo_extract(gallery.typewriter(max_level, p), ts)

    def check(out):
        e = out.test_vector
        checks.check_uo_typewriter(out.subindices, out.meet_norms, out.report.to_json_dict(),
                                   e.level, np.asarray(e.values), max_level, p, 1e-2, 2)

    return Job("uo_extract.typewriter", run, check)


def random_step_jobs(rng, cells: float, length: int, base: int, p: float,
                     null: bool) -> list[Job]:
    """One random step sequence over a non-uniform measure, through five diagnostics."""
    weights = rng.uniform(0.2, 1.8, 2 ** base)
    weights = weights / weights.sum()
    hi = int(np.clip(round(math.log2(cells / length)), 4, 12))
    tag = {"kind": "lp_step", "p": p, "measure": {"level": base, "weights": weights.tolist()}}
    terms = []
    for n in range(1, length + 1):
        level = max(4, hi - n % 3)  # term levels cycle, so the cell count is fixed
        v = rng.uniform(0.5, 1.5, 2 ** level) * rng.choice([-1.0, 1.0], 2 ** level)
        v[rng.random(2 ** level) < 0.3] = 0.0
        amp = 10.0 ** (-24.0 * n / length) if null else float(rng.uniform(0.5, 1.5))
        terms.append((level, v * amp))
    elements = [{"tag": tag, "level": level, "values": v.tolist()} for level, v in terms]
    functionals = []
    for _ in range(2):
        flevel = base + int(rng.integers(0, 3))
        functionals.append((flevel, rng.uniform(0.2, 1.0, 2 ** flevel)))
    diags = [
        {"name": "norm"},
        {"name": "un"},
        {"name": "in_measure", "delta": math.sqrt(TOL)},
        {"name": "weak", "functionals": [{"tag": tag, "level": fl, "values": f.tolist()}
                                         for fl, f in functionals]},
        {"name": "pointwise"},
    ]
    source = {"inline": {"name": "random_step", "elements": elements}}
    return [
        scenario_job(f"random_step.{d['name']}", source, d, TOL, None,
                     lazy(lambda d=d: checks.step_job_check(d, p, weights, terms, functionals,
                                                            TOL, None)))
        for d in diags
    ]


def step_models(rng) -> tuple[list[Job], Job]:
    jobs = []
    for max_level in (9, 10, 11, 12):
        for i, name in enumerate(("in_measure", "un_qip", "pointwise")):
            jobs.append(typewriter_job(max_level, 1.0 + (max_level + i) % 2, name))
    jobs += rademacher_jobs()
    for max_level in (8, 9, 10):
        jobs.append(uo_job(max_level))
    # cells and length grow together, so each stratum has a steady cost
    for i, u in enumerate(spread(18, 0.0, 1.0)):
        jobs += random_step_jobs(rng, 2e3 * 250 ** u, int(32 * 16 ** u), base=i % 5,
                                 p=(1.0, 1.5, 2.0)[i % 3], null=(i % 2 == 0))
    rng.shuffle(jobs)
    return jobs, typewriter_job(9, 1.0, "in_measure")


# ---------------------------------------------------------------------------
# sparse_sequences
# ---------------------------------------------------------------------------

def _seq_tag(kind: str, p=None) -> dict:
    return {"kind": kind, "p": p} if kind == "lp" else {"kind": kind}


def gallery_sparse_jobs(rng) -> list[Job]:
    jobs = []
    # l2 leaves un_qip out: its norm squares 2**-n to 0.0 from n = 538 on
    units = {"std_units_c0": ("c0", None, ("norm", "un_qip", "pointwise")),
             "std_units_l1": ("lp", 1.0, ("norm", "un_qip", "pointwise")),
             "std_units_l2": ("lp", 2.0, ("norm", "pointwise")),
             "std_units_linf": ("linf", None, ("norm", "un_qip", "pointwise"))}
    for entry, (kind, p, names) in units.items():
        for i, h in enumerate(spread(6, 64, 1024)):
            h = int(h)
            source = {"gallery": entry, "params": {"horizon": h}}
            name = names[i % len(names)]
            if name == "norm":
                check = lambda r, h=h: checks.check_constant(r, 1.0, h, TOL, None)
            elif name == "un_qip":
                check = lambda r, h=h, kind=kind: checks.check_unit_un_qip(r, kind, h, TOL, None)
            else:
                check = lazy(lambda h=h, kind=kind, p=p: checks.sparse_job_check(
                    {"name": "pointwise"}, kind, p, [{n: 1.0} for n in range(1, h + 1)],
                    TOL, None))
            jobs.append(scenario_job(f"units.{name}", source, {"name": name}, TOL, None, check))
    # direct sums and overlaps stop at 512: larger ones would form a sparse band of
    # heavy jobs at the p90 rank, where the kp jobs belong
    for i, h in enumerate(spread(6, 64, 512)):
        h = int(h)
        source = {"gallery": "direct_sum", "params": {"horizon": h}}
        if i % 3 == 0:
            diag = {"name": "norm"}
            check = lambda r, h=h: checks.check_constant(r, 1.0, h, TOL, None)
        elif i % 3 == 1:
            diag = {"name": "un", "tests": "l1_part_units"}
            check = lambda r, h=h: checks.check_tail(r, [2.0 ** -n for n in range(1, h + 1)],
                                                     TOL, None)
        else:
            diag = {"name": "un", "tests": "direct_sum_witness"}
            check = lambda r, h=h: checks.check_constant(r, 1.0, h, TOL, None)
        jobs.append(scenario_job(f"direct_sum.{diag.get('tests', 'norm')}", source, diag,
                                 TOL, None, check))
    for i, h in enumerate(spread(6, 64, 512, log=True)):
        h = int(h)
        source = {"gallery": "overlap_l2", "params": {"horizon": h}}
        name = ("norm", "un_qip", "pointwise")[i % 3]
        if name == "norm":
            check = lambda r, h=h: checks.check_overlap_norms(r, h, TOL, None)
        else:
            check = lazy(lambda h=h, name=name: checks.sparse_job_check(
                {"name": name}, "lp", 2.0, checks.overlap_terms(h), TOL, None))
        jobs.append(scenario_job(f"overlap.{name}", source, {"name": name}, TOL, None, check))
    return jobs


def random_sparse_jobs(rng, coords: float, length: int, horizon: int, kind: str, p,
                       null: bool) -> list[Job]:
    """One random sparse sequence, support up to index 2000, through five diagnostics.

    A sequence that is not null keeps a core coordinate among the first ten
    on every term, so its un_qip verdict does not rest on coordinates below
    the quasi-interior point's resolution.
    """
    size = int(np.clip(coords / length, 1, 2000))
    core = int(rng.integers(1, 11))
    terms = []
    for n in range(1, length + 1):
        support = rng.choice(2000, size=size, replace=False) + 1
        vals = rng.uniform(0.5, 1.5, size) * rng.choice([-1.0, 1.0], size)
        if null:
            x = dict(zip(support.tolist(), (vals * 10.0 ** (-24.0 * n / length)).tolist()))
        else:
            x = dict(zip(support.tolist(), vals.tolist()))
            x[core] = float(rng.uniform(0.5, 1.5))
        terms.append(x)
    tag = _seq_tag(kind, p)

    def to_dict(x):
        return {"tag": tag, "coords": {str(i): v for i, v in x.items()}}

    tests = [{i: 2.0 ** -i for i in range(1, 65)},
             dict(zip((rng.choice(2000, 300, replace=False) + 1).tolist(),
                      rng.uniform(0.1, 1.0, 300).tolist()))]
    functionals = [dict(zip((rng.choice(2000, 200, replace=False) + 1).tolist(),
                            rng.uniform(0.1, 1.0, 200).tolist())),
                   {i: float(rng.uniform(0.1, 1.0)) for i in range(1, 11)}]
    diags = [
        {"name": "norm"},
        {"name": "un", "tests": [to_dict(u) for u in tests]},
        {"name": "un_qip", "horizon": horizon},
        {"name": "pointwise"},
        {"name": "weak", "functionals": [to_dict(f) for f in functionals]},
    ]
    source = {"inline": {"name": "random_sparse", "elements": [to_dict(x) for x in terms]}}
    return [
        scenario_job(f"random_sparse.{d['name']}", source, d, TOL, None,
                     lazy(lambda d=d: checks.sparse_job_check(d, kind, p, terms, TOL, None,
                                                              tests, functionals)))
        for d in diags
    ]


def kp_job(horizon: int, count: int) -> Job:
    ts = convergence.ToleranceSpec()

    def run():
        return constructive.kp_disjointify(gallery.overlap_seq(spaces.lp(2), horizon), count, ts)

    def check(out):
        checks.require(not out.warnings, f"advisory warnings on an un-null input: {out.warnings}")
        checks.check_kp(out.selected_indices, out.meet_matrix,
                        [d.coords for d in out.disjoint_parts], horizon, count)

    return Job("kp_disjointify.overlap", run, check)


def order_witness_job(rng, length: int, kind: str, p) -> Job:
    tag = spaces.lp(p) if kind == "lp" else spaces.c0()
    atoms = sorted((rng.choice(32, 8, replace=False) + 1).tolist())
    bound = dict(zip(atoms, rng.uniform(0.5, 2.0, 8).tolist()))
    damps = rng.uniform(0.2, 1.0, length) * 0.9 ** np.arange(1, length + 1)
    bound_vec = spaces.LatticeVector(tag, bound)
    seq = convergence.VectorSequence(tag, length, lambda n: bound_vec.scale(float(damps[n - 1])),
                                     name="damped_bound")
    ts = convergence.ToleranceSpec()

    def check(out):
        checks.check_order_witness(out.atoms, out.entries, bound, damps, kind, p, steps=8)

    return Job("order_witness_atomic", lambda: convergence.order_witness_atomic(seq, bound_vec, ts),
               check)


def constant_unit_jobs(index: int, length: int = 64) -> list[Job]:
    """x_n = e_index in c0: not un-null, yet un_qip says NULL past index 20 (a known fault)."""
    source = {"inline": {"name": f"constant_e{index}",
                         "elements": [{"tag": {"kind": "c0"}, "coords": {str(index): 1.0}}]
                         * length}}
    terms = [{index: 1.0}] * length
    return [
        scenario_job("constant_unit.norm", source, {"name": "norm"}, TOL, None,
                     lambda r: checks.check_constant(r, 1.0, length, TOL, None)),
        scenario_job("constant_unit.pointwise", source, {"name": "pointwise"}, TOL, None,
                     lazy(lambda: checks.sparse_job_check({"name": "pointwise"}, "c0", None,
                                                          terms, TOL, None))),
        scenario_job("fault.un_qip_beyond_resolution", source, {"name": "un_qip"}, TOL, None,
                     lambda r: checks.check_verdict(r, "NOT_NULL"), fault=True),
    ]


def malformed_jobs() -> list[Job]:
    ts = convergence.ToleranceSpec()
    return [
        raises_job("fault.in_measure_without_delta", lambda: runner.run_diagnostic(
            runner.build_sequence({"gallery": "typewriter", "params": {"max_level": 4}}),
            {"name": "in_measure"}, ts)),
        raises_job("fault.unknown_gallery_param", lambda: runner.build_sequence(
            {"gallery": "std_units_c0", "params": {"length": 64}})),
        raises_job("fault.inline_without_coords", lambda: runner.build_sequence(
            {"inline": {"elements": [{"tag": {"kind": "c0"}}]}})),
    ]


SPARSE_KINDS = [("c0", None), ("lp", 1.0), ("lp", 2.0), ("lp", 3.0), ("linf", None)]


def sparse_sequences(rng) -> tuple[list[Job], Job]:
    jobs = gallery_sparse_jobs(rng)
    for i, u in enumerate(spread(10, 0.0, 1.0)):
        kind, p = SPARSE_KINDS[i % len(SPARSE_KINDS)]
        jobs += random_sparse_jobs(rng, 5e2 * 60 ** u, int(32 * 8 ** u), int(2048 * 2 ** u),
                                   kind, p, null=(i % 2 == 0))
    # horizons 256 * 8**(u*u): dense near the p90 rank, thinning out towards 2048
    for u, c in zip(spread(14, 0.0, 1.0), spread(14, 4, 9)):
        jobs.append(kp_job(int(256 * 8 ** (u * u)), int(c)))
    for i, length in enumerate(spread(4, 256, 1024)):
        kind, p = (("lp", 1.0), ("lp", 2.0), ("c0", None), ("lp", 3.0))[i]
        jobs.append(order_witness_job(rng, int(length), kind, p))
    jobs += constant_unit_jobs(21) + constant_unit_jobs(1100)
    jobs += malformed_jobs()
    rng.shuffle(jobs)
    warmup = scenario_job("units.un_qip", {"gallery": "std_units_c0", "params": {"horizon": 256}},
                          {"name": "un_qip"}, TOL, None,
                          lambda r: checks.check_unit_un_qip(r, "c0", 256, TOL, None))
    return jobs, warmup


# ---------------------------------------------------------------------------
# small_elements
# ---------------------------------------------------------------------------

AXIOM_TAGS = ("c0", "l1", "l2", "linf", "l1-step", "l2-step")


def axiom_job(name: str, samples: int, seed: int) -> Job:
    tag = topology.tag_from_name(name)
    return Job(f"axiom_suite.{name}",
               lambda: topology.axiom_suite(tag, samples=samples, rng_seed=seed),
               lambda out: checks.check_axiom_suite(out.to_json_dict(), samples))


def _seq_triple(rng, tag):
    size = int(rng.integers(1, 9))
    support = (rng.choice(64, size, replace=False) + 1).tolist()
    xs = rng.uniform(-1.0, 1.0, size)
    t = rng.uniform(0.0, 1.0, size)
    us = t * np.abs(xs)
    vs = np.abs(xs) - us
    return tuple(spaces.LatticeVector(tag, dict(zip(support, a.tolist()))) for a in (xs, us, vs))


def riesz_triple(rng, tag, level: int = 6):
    """x, u, v with |x| = u + v: support <= 8, step functions at ``level`` <= 6."""
    if tag.kind == "lp_step":
        level = max(level, tag.measure.level)
        xs = rng.uniform(-1.0, 1.0, 2 ** level)
        xs[rng.random(2 ** level) < 0.2] = 0.0
        us = rng.uniform(0.0, 1.0, 2 ** level) * np.abs(xs)
        vs = np.abs(xs) - us
        return tuple(spaces.StepFunction(tag, level, a) for a in (xs, us, vs))
    if tag.kind == "l1_oplus_linf":
        left = _seq_triple(rng, spaces.lp(1))
        right = _seq_triple(rng, spaces.linf())
        return tuple(spaces.DirectSumVector(a, b) for a, b in zip(left, right))
    return _seq_triple(rng, tag)


RIESZ_TAGS = [spaces.c0(), spaces.lp(1), spaces.lp(2), spaces.lp(3), spaces.linf(),
              spaces.lp_step(1, level=1),
              spaces.lp_step(2, spaces.MeasureModel(2, (0.1, 0.2, 0.3, 0.4))),
              spaces.direct_sum()]


def riesz_job(rng, size: int, offset: int) -> Job:
    """A batch of triples; spaces and step levels cycle, so the mix is fixed."""
    triples = [riesz_triple(rng, RIESZ_TAGS[(offset + k) % len(RIESZ_TAGS)], 1 + k % 6)
               for k in range(size)]

    def run():
        return [constructive.riesz_decompose(x, u, v) for x, u, v in triples]

    def check(out):
        checks.require(len(out) == len(triples), "missing decompositions")
        for (x, u, v), w in zip(triples, out):
            checks.check_riesz(x, u, v, w)

    return Job("riesz_decompose", run, check)


def small_elements(rng) -> tuple[list[Job], Job]:
    jobs = []
    for name in AXIOM_TAGS:
        for samples in spread(6, 50, 300):
            jobs.append(axiom_job(name, int(samples), int(rng.integers(2 ** 31))))
    for i, size in enumerate(spread(72, 4, 150)):
        jobs.append(riesz_job(rng, int(size), i))
    rng.shuffle(jobs)
    return jobs, axiom_job("c0", 50, 0)


WORKLOADS = {"step_models": step_models, "sparse_sequences": sparse_sequences,
             "small_elements": small_elements}


def build(workload: str, seed: int) -> tuple[list[Job], Job]:
    """The workload's job list and its warm-up job, drawn from ``seed``."""
    index = list(WORKLOADS).index(workload)
    return WORKLOADS[workload](np.random.default_rng([seed, index]))
