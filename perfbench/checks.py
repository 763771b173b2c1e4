"""Reference checks for the benchmark's jobs, computed apart from the program.

Every check takes what a job returned -- a parsed report dict, or the fields
of a result object -- and raises :class:`CheckFailed` when it disagrees with
a recomputation made here from the job's own inputs with plain Python,
``math.fsum`` and numpy.  Nothing in this module calls into ``unlattice``;
elements are read only through their data attributes (``coords``,
``values``, ``level``, ``tag``, ``left``, ``right``).
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """A job's output disagrees with the reference computation."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# the generic tail verdict
# ---------------------------------------------------------------------------

def tail_rule(values, tol: float, window: int):
    """(verdict, 1-based witness index): NULL iff the last window is below tol."""
    n = len(values)
    for i in range(n - window, n):
        if not values[i] < tol:
            return "NOT_NULL", i + 1
    return "NULL", None


def _default_window(length: int, window) -> int:
    return window if window is not None else max(1, length // 4)


def check_tail(report: dict, ref_values, tol: float, window, *,
               rel: float = 0.0, ulps: int = 0, scale=None) -> None:
    """Values agree with ``ref_values`` and the verdict follows the tail rule.

    Agreement is exact by default; ``ulps`` allows that many units in the
    last place of the reference, ``rel`` a relative error against
    ``max(|ref|, scale)`` (``scale``, a number or one per value, guards
    values that cancel to ~0).
    """
    values = report["values"]
    n = len(ref_values)
    require(len(values) == n, f"{len(values)} values, expected {n}")
    window = _default_window(n, window)
    require(report["window"] == window, f"window {report['window']} != {window}")
    require(report["tol"] == tol, f"tol {report['tol']} != {tol}")
    require(report["horizon"] == n, f"horizon {report['horizon']} != {n}")
    ref = np.asarray(ref_values, dtype=float)
    got = np.asarray(values, dtype=float)
    if rel == 0.0 and ulps == 0:
        bad = np.nonzero(got != ref)[0]
    else:
        base = np.abs(ref) if scale is None else np.maximum(np.abs(ref), scale)
        allowed = rel * base + ulps * np.spacing(np.abs(ref))
        bad = np.nonzero(np.abs(got - ref) > allowed)[0]
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(f"value {i + 1} is {got[i]!r}, reference {ref[i]!r}")
    verdict, index = tail_rule(values, tol, window)
    require(report["verdict"] == verdict,
            f"verdict {report['verdict']} but the tail rule gives {verdict}")
    if index is None:
        require(report["witness"] is None, "NULL verdict carries a witness")
    else:
        w = report["witness"]
        require(w is not None and w["index"] == index and w["value"] == values[index - 1],
                f"witness {w} does not name index {index}")


# ---------------------------------------------------------------------------
# the pointwise (cellwise / coordinatewise) rule
# ---------------------------------------------------------------------------

def pointwise_reference(mat: np.ndarray, labels: list[str], tol: float, window,
                        level=None, recurrence_fraction: float = 0.75) -> dict:
    """The pointwise report recomputed from a dense (terms x coordinates) matrix."""
    amat = np.abs(mat)
    n = amat.shape[0]
    window = _default_window(n, window)
    zone_start = n - max(window, int(math.ceil(recurrence_fraction * n)))
    zone = amat[zone_start:, :]
    bad = zone >= tol
    hits_any = bad.any(axis=0)
    first = np.argmax(bad, axis=0)
    last = bad.shape[0] - 1 - np.argmax(bad[::-1, :], axis=0)
    persistent = np.nonzero(hits_any & (last - first >= window))[0]
    witness = None
    if persistent.size:
        c = int(persistent[0])
        hits = [int(zone_start + i + 1) for i in np.nonzero(bad[:, c])[0]]
        witness = {"coordinate": labels[c], "violation_indices": hits[:8]}
    extras = {
        "zone_start": zone_start + 1,
        "limsup": zone.max(axis=0).tolist() if zone.size else [],
        "liminf": zone.min(axis=0).tolist() if zone.size else [],
        "coordinates": labels,
    }
    if level is not None:
        extras["refinement_level"] = level
    return {
        "values": (amat.max(axis=1) if amat.size else np.zeros(n)).tolist(),
        "verdict": "NOT_NULL" if persistent.size else "NULL",
        "window": window,
        "witness": witness,
        "extras": extras,
    }


def check_pointwise(report: dict, ref: dict) -> None:
    """Compare with :func:`pointwise_reference`; every field is exact."""
    require(report["values"] == ref["values"], "pointwise sup values differ")
    require(report["window"] == ref["window"], "pointwise window differs")
    require(report["verdict"] == ref["verdict"],
            f"pointwise verdict {report['verdict']}, reference {ref['verdict']}")
    require(report["witness"] == ref["witness"],
            f"pointwise witness {report['witness']}, reference {ref['witness']}")
    for key, want in ref["extras"].items():
        require(report["extras"].get(key) == want, f"pointwise extras[{key!r}] differ")


# ---------------------------------------------------------------------------
# typewriter and Rademacher (step models with exact values)
# ---------------------------------------------------------------------------

def typewriter_in_measure_ref(max_level: int) -> list[float]:
    """Term n has support mass exactly 2**-k, 2**k <= n < 2**(k+1)."""
    return [2.0 ** -(n.bit_length() - 1) for n in range(1, 2 ** max_level)]


def typewriter_un_qip_ref(max_level: int, p: float) -> list[float]:
    """|| 1_cell /\\ 1 ||_p = (2**-k)**(1/p); agrees to a few ulps."""
    return [(2.0 ** -(n.bit_length() - 1)) ** (1.0 / p) for n in range(1, 2 ** max_level)]


def typewriter_pointwise_ref(max_level: int, tol, window) -> dict:
    """The pointwise report of typewriter(max_level), from the sweep's closed form.

    Finest cell c (level F = max_level - 1) is covered once per level k, by
    term 2**k + (c >> (F - k)); every term's sup is 1.0, and no cell is
    covered by every term of a zone longer than F + 1 terms.
    """
    finest = max_level - 1
    n = 2 ** max_level - 1
    window = _default_window(n, window)
    zone_start = n - max(window, int(math.ceil(0.75 * n)))
    zone_len = n - zone_start
    labels = [f"cell[{finest}:{i}]" for i in range(2 ** finest)]
    limsup, witness = [], None
    for c in range(2 ** finest):
        hits = [2 ** k + (c >> (finest - k)) for k in range(max_level)]
        hits = [h for h in hits if h > zone_start]
        limsup.append(1.0 if hits else 0.0)
        if witness is None and len(hits) >= 2 and hits[-1] - hits[0] >= window:
            witness = {"coordinate": labels[c], "violation_indices": hits[:8]}
    require(zone_len > max_level and tol <= 1.0,
            "closed form assumes tol <= 1 and a zone longer than the sweep depth")
    return {
        "values": [1.0] * n,
        "verdict": "NULL" if witness is None else "NOT_NULL",
        "window": window,
        "witness": witness,
        "extras": {"zone_start": zone_start + 1, "limsup": limsup,
                   "liminf": [0.0] * len(labels), "coordinates": labels,
                   "refinement_level": finest},
    }


def check_constant(report: dict, value: float, length: int, tol, window) -> None:
    check_tail(report, [value] * length, tol, window)


def check_rademacher_weak(report: dict, profile: np.ndarray, functionals, tol, window,
                          terms: int) -> None:
    """Pairings of the step family with x * r_n on Lebesgue cells.

    Past the profile's resolution each pairing cancels to exactly 0.0.
    """
    plevel = int(math.log2(profile.size))
    ref = []
    for n in range(1, terms + 1):
        level = max(plevel, n)
        r = np.where(np.arange(2 ** n) % 2 == 0, 1.0, -1.0)
        x = np.repeat(profile, 2 ** (level - plevel)) * np.repeat(r, 2 ** (level - n))
        best = 0.0
        for f in functionals:
            flevel = int(math.log2(f.size))
            top = max(level, flevel)
            fx = np.repeat(f, 2 ** (top - flevel)) * np.repeat(x, 2 ** (top - level))
            best = max(best, abs(math.fsum(fx.tolist()) * 2.0 ** -top))
        ref.append(best)
    check_tail(report, ref, tol, window, rel=1e-12, scale=1.0)
    require(all(v == 0.0 for v in report["values"][plevel:]),
            "pairings past the profile resolution are not exactly 0.0")


# ---------------------------------------------------------------------------
# random step sequences over non-uniform measures
# ---------------------------------------------------------------------------

def cell_weights(base_weights: np.ndarray, level: int) -> np.ndarray:
    base_level = int(math.log2(base_weights.size))
    factor = 2 ** (level - base_level)
    return np.repeat(base_weights / factor, factor)


def _step_norm(w: np.ndarray, v: np.ndarray, p: float) -> float:
    a = np.abs(v)
    if p == 1.0:
        return float(np.sum(w * a))
    return float(np.sum(w * a ** p) ** (1.0 / p))


def step_monitored(diag: dict, p: float, base_weights: np.ndarray, terms, functionals):
    """Reference monitored values of a step-model diagnostic.

    ``terms`` and ``functionals`` are lists of (level, values) pairs.
    """
    name = diag["name"]
    out = []
    for level, v in terms:
        w = cell_weights(base_weights, level)
        if name == "norm":
            out.append(_step_norm(w, v, p))
        elif name == "un":  # the constant-one test vector
            out.append(_step_norm(w, np.minimum(np.abs(v), 1.0), p))
        elif name == "in_measure":
            out.append(float(np.sum(w[np.abs(v) > diag["delta"]])))
        elif name == "weak":
            best = 0.0
            for flevel, f in functionals:
                top = max(level, flevel)
                prod = (cell_weights(base_weights, top)
                        * np.repeat(f, 2 ** (top - flevel))
                        * np.repeat(v, 2 ** (top - level)))
                best = max(best, abs(float(np.sum(prod))))
            out.append(best)
        else:
            raise ValueError(name)
    return out


def weak_scale(base_weights, terms, functionals) -> list[float]:
    """Per term, the largest pairing before cancellation, for error bounds."""
    out = []
    for level, v in terms:
        top = 0.0
        for flevel, f in functionals:
            lv = max(level, flevel)
            prod = (cell_weights(base_weights, lv) * np.abs(np.repeat(f, 2 ** (lv - flevel)))
                    * np.abs(np.repeat(v, 2 ** (lv - level))))
            top = max(top, float(np.sum(prod)))
        out.append(top)
    return out


def step_job_check(diag: dict, p: float, base_weights: np.ndarray, terms, functionals,
                   tol, window):
    """check(report) for one random step job; terms are (level, values) pairs."""
    if diag["name"] == "pointwise":
        top = max(level for level, _ in terms)
        mat = np.stack([np.repeat(v, 2 ** (top - level)) for level, v in terms])
        labels = [f"cell[{top}:{i}]" for i in range(2 ** top)]
        ref = pointwise_reference(mat, labels, tol, window, top)
        return lambda report: check_pointwise(report, ref)
    values = step_monitored(diag, p, base_weights, terms, functionals)
    scale = weak_scale(base_weights, terms, functionals) if diag["name"] == "weak" else None
    return lambda report: check_tail(report, values, tol, window, rel=1e-12, scale=scale)


# ---------------------------------------------------------------------------
# sequence spaces (sparse dicts)
# ---------------------------------------------------------------------------

def seq_norm(coords: dict, kind: str, p) -> float:
    if not coords:
        return 0.0
    if kind in ("c0", "linf"):
        return max(abs(v) for v in coords.values())
    if p == 1.0:
        return math.fsum(abs(v) for v in coords.values())
    if p == 2.0:
        return math.sqrt(math.fsum(v * v for v in coords.values()))
    return math.fsum(abs(v) ** p for v in coords.values()) ** (1.0 / p)


def qip_coords(kind: str, horizon: int) -> dict:
    if kind == "linf":
        return {i: 1.0 for i in range(1, horizon + 1)}
    return {i: 2.0 ** -i for i in range(1, horizon + 1)}


def _meet_abs(x: dict, u: dict) -> dict:
    out = {}
    for i, v in x.items():
        if i in u:
            m = min(abs(v), u[i])
            if m != 0.0:
                out[i] = m
    return out


def sparse_monitored(diag: dict, kind: str, p, terms, tests=(), functionals=()):
    """Reference monitored values of a sequence-space diagnostic over dict terms."""
    name = diag["name"]
    if name == "norm":
        return [seq_norm(x, kind, p) for x in terms]
    if name == "un":
        return [max(seq_norm(_meet_abs(x, u), kind, p) for u in tests) for x in terms]
    if name == "un_qip":
        e = qip_coords(kind, diag.get("horizon", 4096))
        return [seq_norm(_meet_abs(x, e), kind, p) for x in terms]
    if name == "weak":
        return [max(abs(math.fsum(f[i] * x[i] for i in f.keys() & x.keys()))
                    for f in functionals) for x in terms]
    raise ValueError(name)


def sparse_matrix(terms):
    touched = sorted(set().union(*terms) or {1})
    pos = {c: j for j, c in enumerate(touched)}
    mat = np.zeros((len(terms), len(touched)))
    for n, x in enumerate(terms):
        for i, v in x.items():
            mat[n, pos[i]] = v
    return mat, [str(c) for c in touched]


def sparse_job_check(diag: dict, kind: str, p, terms, tol, window, tests=(),
                     functionals=()):
    """check(report) for one sequence-space job over dict terms."""
    if diag["name"] == "pointwise":
        mat, labels = sparse_matrix(terms)
        ref = pointwise_reference(mat, labels, tol, window)
        return lambda report: check_pointwise(report, ref)
    values = sparse_monitored(diag, kind, p, terms, tests, functionals)
    scale = None
    if diag["name"] == "weak":
        scale = [max(math.fsum(abs(f[i] * x[i]) for i in f.keys() & x.keys())
                     for f in functionals) for x in terms]
    return lambda report: check_tail(report, values, tol, window, rel=1e-12, scale=scale)


# ---------------------------------------------------------------------------
# gallery sequence spaces: units, overlap, direct sum
# ---------------------------------------------------------------------------

def overlap_terms(horizon: int):
    """x_n = e_n + 2**-n (e_1 + ... + e_{n-1}), as dicts."""
    out = []
    for n in range(1, horizon + 1):
        w = 2.0 ** -n
        x = {i: w for i in range(1, n)} if w != 0.0 else {}
        x[n] = 1.0
        out.append(x)
    return out


def check_unit_un_qip(report: dict, kind: str, horizon: int, tol, window) -> None:
    """| e_n | /\\ e = 2**-n e_n exactly in c0 / lp; = e_n in linf."""
    if kind == "linf":
        check_constant(report, 1.0, horizon, tol, window)
    else:
        check_tail(report, [2.0 ** -n for n in range(1, horizon + 1)], tol, window)


def check_overlap_norms(report: dict, horizon: int, tol, window) -> None:
    """l2 norms against an fsum recomputation, to two ulps."""
    ref = [math.sqrt(math.fsum([4.0 ** -n] * (n - 1) + [1.0])) for n in range(1, horizon + 1)]
    check_tail(report, ref, tol, window, ulps=2)


# ---------------------------------------------------------------------------
# constructive results
# ---------------------------------------------------------------------------

def overlap_meet_norm(a: int, b: int) -> float:
    """|| x_a /\\ x_b ||_2 for a < b: the value 2**-b on coordinates 1..a."""
    return 2.0 ** -b * math.sqrt(a)


def kp_reference_selection(horizon: int, count: int) -> list[int]:
    """The greedy scan on the overlap input, from the closed-form meet norms."""
    selected = [1]
    while len(selected) < count:
        k = len(selected) + 1
        for n in range(selected[-1] + 1, horizon + 1):
            if all(overlap_meet_norm(selected[i - 1], n) <= 2.0 ** -(k + i)
                   for i in range(1, k)):
                selected.append(n)
                break
        else:
            raise CheckFailed(f"reference scan exhausted the horizon at slot {k}")
    return selected


def check_kp(selected, meet_matrix: dict, parts, horizon: int, count: int) -> None:
    """kp_disjointify on overlap_seq(l2, horizon); parts are coordinate dicts."""
    require(len(selected) == count, f"{len(selected)} indices, asked for {count}")
    require(all(a < b for a, b in zip(selected, selected[1:])),
            f"indices {selected} do not strictly increase")
    require(selected == kp_reference_selection(horizon, count),
            f"indices {selected} are not the greedy selection")
    for i in range(1, count + 1):
        for k in range(i + 1, count + 1):
            v = meet_matrix.get((i, k))
            require(v is not None, f"meet matrix lacks ({i},{k})")
            require(v <= 2.0 ** -(k + i), f"meet ({i},{k}) = {v} above 2**-{k + i}")
            ref = overlap_meet_norm(selected[i - 1], selected[k - 1])
            require(abs(v - ref) <= 1e-12 * ref, f"meet ({i},{k}) = {v}, reference {ref}")
    norms = [seq_norm(d, "lp", 2.0) for d in parts]
    for i in range(count):
        for j in range(i + 1, count):
            m = seq_norm(_meet_abs(parts[i], {c: abs(v) for c, v in parts[j].items()}),
                         "lp", 2.0)
            require(m <= 1e-12 * (1.0 + norms[i] + norms[j]),
                    f"parts {i + 1} and {j + 1} overlap: {m}")
    terms = overlap_terms(max(selected))
    for k, (n, d) in enumerate(zip(selected, parts), start=1):
        x = terms[n - 1]
        diff = {c: x.get(c, 0.0) - d.get(c, 0.0) for c in x.keys() | d.keys()}
        r = seq_norm(diff, "lp", 2.0)
        require(r < 2.0 ** -k, f"||x_{n} - d_{k}|| = {r} not below 2**-{k}")


def check_uo_typewriter(subindices, meet_norms, report: dict, e_level: int,
                        e_values: np.ndarray, max_level: int, p: float, tol, window) -> None:
    """uo_extract on typewriter(max_level, p) with Lebesgue cells."""
    require(len(subindices) == len(meet_norms) and subindices, "empty or ragged selection")
    require(all(a < b for a, b in zip(subindices, subindices[1:])),
            "subindices do not strictly increase")
    # || 1_cell /\ e ||_p for every term, from prefix sums of min(1, e)**p
    w = 2.0 ** -e_level
    prefix = np.concatenate([[0.0], np.cumsum(w * np.minimum(1.0, e_values) ** p)])
    ref = {}
    for n in range(1, 2 ** max_level):
        k = n.bit_length() - 1
        if k > e_level:
            continue  # the test vector is constant on this term's cell
        width = 2 ** (e_level - k)
        cell = n - 2 ** k
        ref[n] = (prefix[(cell + 1) * width] - prefix[cell * width]) ** (1.0 / p)
    for k, (n, m) in enumerate(zip(subindices, meet_norms), start=1):
        require(m <= 2.0 ** -k, f"meet norm {m} at k={k} above 2**-{k}")
        if n in ref:
            require(abs(m - ref[n]) <= 1e-12 * max(ref[n], 1e-300),
                    f"meet norm of term {n} is {m}, reference {ref[n]}")
    values = report["values"]
    require(len(values) == len(subindices), "unsettled-mass report has the wrong length")
    require(all(a >= b for a, b in zip(values, values[1:])),
            "unsettled mass is not nonincreasing")
    verdict, _ = tail_rule(values, tol, _default_window(len(values), window))
    require(report["verdict"] == verdict, "unsettled-mass verdict breaks the tail rule")


def check_order_witness(atoms, entries, bound: dict, damps: np.ndarray, kind: str, p,
                        steps: int, slack: float = 1e-12) -> None:
    """Dominators v_k cap the first k atoms of the bound at 1/k; x_n = d_n * bound."""
    want_atoms = sorted(bound)
    require(list(atoms) == want_atoms, "order witness atoms differ from the bound's support")
    require(len(entries) == steps, f"{len(entries)} entries, expected {steps}")
    b = np.array([bound[a] for a in want_atoms])
    x = np.abs(damps)[:, None] * b[None, :]
    for k, entry in enumerate(entries, start=1):
        cap = np.array([min(1.0 / k, bound[a]) if i < k else bound[a]
                        for i, a in enumerate(want_atoms)])
        bad = np.nonzero((x > cap[None, :] + slack).any(axis=1))[0]
        index = int(bad[-1]) + 2 if bad.size else 1
        require(entry["k"] == k and entry["index"] == index,
                f"step {k}: index {entry['index']}, reference {index}")
        ref = seq_norm({a: c for a, c in zip(want_atoms, cap.tolist())}, kind, p)
        require(abs(entry["dominator_norm"] - ref) <= 1e-12 * ref,
                f"step {k}: dominator norm {entry['dominator_norm']}, reference {ref}")


def check_axiom_suite(report: dict, samples: int) -> None:
    require(report["total_failures"] == 0, f"axiom failures: {report['total_failures']}")
    axioms = [c["axiom"] for c in report["checks"]]
    require(len(axioms) == 5 and len(set(axioms)) == 5, f"axioms checked: {axioms}")
    require(all(c["samples"] == samples and c["failures"] == 0 for c in report["checks"]),
            "axiom sample or failure counts are off")


# ---------------------------------------------------------------------------
# Riesz decomposition identities on dense arrays
# ---------------------------------------------------------------------------

def dense(x, level=None, support=None):
    """(kind, p, weights, array) of an element at a common level / support.

    Sequence vectors become arrays over ``support``; step functions are
    repeated up to ``level``; direct sums concatenate (l1 part, linf part).
    """
    kind = x.tag.kind
    if kind == "lp_step":
        base = np.asarray(x.tag.measure.weights, dtype=float)
        return np.repeat(np.asarray(x.values, dtype=float), 2 ** (level - x.level)), \
            cell_weights(base, level)
    if kind == "l1_oplus_linf":
        left, _ = dense(x.left, support=support[0])
        right, _ = dense(x.right, support=support[1])
        return np.concatenate([left, right]), None
    return np.array([x.coords.get(i, 0.0) for i in support]), None


def _layout(elements):
    x = elements[0]
    kind = x.tag.kind
    if kind == "lp_step":
        return max(e.level for e in elements), None
    if kind == "l1_oplus_linf":
        left = sorted(set().union(*(e.left.coords for e in elements)))
        right = sorted(set().union(*(e.right.coords for e in elements)))
        return None, (left, right)
    return None, sorted(set().union(*(e.coords for e in elements)))


def riesz_residuals(x, u, v, witness) -> dict[str, float]:
    """Relative residuals of the eight Riesz identities, recomputed densely."""
    parts = [witness.y, witness.z, witness.a, witness.b, witness.c, witness.d]
    level, support = _layout([x, u, v] + parts)
    kind = x.tag.kind
    arrays = [dense(e, level, support) for e in [x, u, v] + parts]
    weights = arrays[0][1]
    X, U, V, Y, Z, A, B, C, D = (a for a, _ in arrays)
    split = len(support[0]) if kind == "l1_oplus_linf" else None
    p = x.tag.p

    def norm(a):
        if kind == "l1_oplus_linf":
            left, right = a[:split], a[split:]
            return max(math.fsum(np.abs(left).tolist()),
                       float(np.max(np.abs(right))) if right.size else 0.0)
        if kind == "lp_step":
            return _step_norm(weights, a, p)
        if not a.size:
            return 0.0
        if kind in ("c0", "linf"):
            return float(np.max(np.abs(a)))
        return math.fsum((np.abs(a) ** p).tolist()) ** (1.0 / p)

    def rel(lhs, rhs):
        return norm(lhs - rhs) / (1.0 + norm(rhs))

    return {
        "x=y+z": rel(Y + Z, X),
        "|y|=u": rel(np.abs(Y), U),
        "|z|=v": rel(np.abs(Z), V),
        "u=a+b": rel(A + B, U),
        "v=c+d": rel(C + D, V),
        "x+=a+c": rel(A + C, np.maximum(X, 0.0)),
        "x-=b+d": rel(B + D, np.maximum(-X, 0.0)),
        "a^b=0,c^d=0": max(norm(np.minimum(A, B)), norm(np.minimum(C, D)))
        / (1.0 + norm(U) + norm(V)),
    }


def check_riesz(x, u, v, witness, bound: float = 1e-12) -> None:
    for name, r in riesz_residuals(x, u, v, witness).items():
        require(r <= bound, f"Riesz identity {name} residual {r:.3g} above {bound}")


# ---------------------------------------------------------------------------
# the named faults
# ---------------------------------------------------------------------------

def check_validation_error(out) -> None:
    """Malformed input must be refused with the toolkit's ValidationError."""
    require(isinstance(out, Exception), "malformed input was accepted")
    require(type(out).__name__ == "ValidationError",
            f"malformed input raised {type(out).__name__}, not ValidationError")


def check_verdict(report: dict, verdict: str) -> None:
    require(report["verdict"] == verdict,
            f"verdict {report['verdict']}, the required answer is {verdict}")
