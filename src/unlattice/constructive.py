"""Constructive lattice algorithms.

* ``riesz_decompose`` -- split x = y + z with |y| = u, |z| = v given
  |x| = u + v, through an explicit choice of the four decomposition parts;
* ``kp_disjointify_positive`` / ``kp_disjointify`` -- greedy extraction of an
  almost-disjoint subsequence with geometric meet bounds and residuals;
* ``uo_extract`` -- weighted-sum test vector plus subsequence selection
  realizing "un-null implies a pointwise-null subsequence";
* ``norm_to_order_subsequence`` -- geometric-norm subsequence with a
  summable dominating certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convergence import (
    NULL,
    TailReport,
    ToleranceSpec,
    VectorSequence,
    _check_cells,
    _make_report,
    _sparse_pointwise,
    _step_zone,
    norm_tail,
    sequence_from_list,
    un_tail_qip,
)
from .errors import (
    HorizonExhausted,
    NegativeInput,
    NegativePart,
    NotADecomposition,
    SelectionStalled,
    ValidationError,
)
from .spaces import (
    _L1,
    _LINF,
    DirectSumVector,
    Element,
    LatticeVector,
    SpaceTag,
    StepFunction,
    _repeat,
    check_tags,
    zero,
)


# ---------------------------------------------------------------------------
# Riesz decomposition
# ---------------------------------------------------------------------------

@dataclass
class RieszWitness:
    y: Element
    z: Element
    a: Element
    b: Element
    c: Element
    d: Element

    def identity_residuals(self, x: Element, u: Element, v: Element) -> dict[str, float]:
        """Relative residuals of the eight defining identities."""
        def rel(lhs: Element, rhs: Element) -> float:
            return (lhs - rhs).norm() / (1.0 + rhs.norm())

        return {
            "x=y+z": rel(self.y + self.z, x),
            "|y|=u": rel(self.y.abs(), u),
            "|z|=v": rel(self.z.abs(), v),
            "u=a+b": rel(self.a + self.b, u),
            "v=c+d": rel(self.c + self.d, v),
            "x+=a+c": rel(self.a + self.c, x.pos()),
            "x-=b+d": rel(self.b + self.d, x.neg()),
            "a^b=0,c^d=0": max(self.a.meet(self.b).norm(), self.c.meet(self.d).norm())
            / (1.0 + u.norm() + v.norm()),
        }


def riesz_decompose(x: Element, u: Element, v: Element,
                    tol: float = 1e-9) -> RieszWitness:
    """Split x into y + z with |y| = u and |z| = v, given |x| = u + v.

    The four positive parts are fixed constructively as a = x+ /\\ u,
    b = u - a, c = x+ - a, d = x- - b; in the componentwise models this
    choice satisfies a <= x+ and b <= x-, which forces a _|_ b and c _|_ d.
    Each element family computes the defect || |x| - (u+v) || and the parts
    in one pass over its aligned operands (its ``_riesz`` kernel).
    """
    if not tol > 0:
        raise ValidationError("tol must be > 0")
    check_tags(x.tag, u.tag)
    check_tags(x.tag, v.tag)
    if not u.is_positive() or not v.is_positive():
        raise NegativeInput("u and v must be >= 0")
    defect, d_min, (a, b, c, d, y, z) = x._riesz(u, v)
    x_norm = x.norm()
    if defect > tol * (1.0 + x_norm):
        raise NotADecomposition(
            f"|| |x| - (u+v) || = {defect:.3g} exceeds the tolerance"
        )
    # a, b and c are >= 0 by construction: u >= 0 and x+ >= 0 give
    # a = min(x+, u) >= 0, and a <= u, a <= x+ give b = u - a >= 0 and
    # c = x+ - a >= 0.  With tol > 0 the slack is >= 0 (never nan), so of the
    # four parts only d can dip below -slack.
    if d_min < 0.0:
        neg_slack = tol * (1.0 + x_norm + u.norm() + v.norm())
        if d_min < -neg_slack:
            raise NegativePart(f"part d dips below -{neg_slack:.3g}")
    return RieszWitness(y=y, z=z, a=a, b=b, c=c, d=d)


# ---------------------------------------------------------------------------
# greedy disjointification
# ---------------------------------------------------------------------------

@dataclass
class DisjointificationResult:
    selected_indices: list[int]
    disjoint_parts: list[Element]
    residual_norms: list[float]
    meet_matrix: dict[tuple[int, int], float]  # (i, k) 1-based selection slots
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "selected_indices": self.selected_indices,
            "residual_norms": self.residual_norms,
            "meet_matrix": {f"{i},{k}": v for (i, k), v in sorted(self.meet_matrix.items())},
            "warnings": self.warnings,
        }


def _kp_prologue(seq: VectorSequence, target_count: int, ts: ToleranceSpec,
                 check_un_null: bool, require_un_null: bool) -> list[str]:
    """Check ``target_count`` and run the un-null advisory; its warnings.

    The verdict reads only the last ``window`` values, and the value of term n
    depends on x_n alone, so the advisory runs on that tail window: the terms
    before it are never generated.  |x_n| and x_n meet the quasi-interior
    point in the same norm, so a signed sequence is checked as it is.
    """
    if target_count < 1:
        raise ValidationError("target_count must be >= 1")
    if not check_un_null:
        return []
    try:
        _check_cells(seq.length, 1)  # the whole sequence is held to the budget, not the tail
        w = ts.window_for(seq.length)
        head = seq.length - w
        tail = VectorSequence(seq.tag, w, lambda n: seq.at(head + n))
        report = un_tail_qip(tail, zero(seq.tag), ToleranceSpec(ts.tol, w))
    except Exception as exc:  # advisory only; never fatal
        return [f"un-null precondition could not be checked: {exc}"]
    if report.verdict == NULL:
        return []
    warning = ("input sequence is not un-null against the default test family; "
               "the greedy scan may stall")
    if require_un_null:
        raise ValidationError(warning)
    return [warning]


def kp_disjointify_positive(seq: VectorSequence, target_count: int,
                            ts: ToleranceSpec,
                            check_un_null: bool = True,
                            require_un_null: bool = False) -> DisjointificationResult:
    """Greedy almost-disjoint subsequence of a positive sequence.

    Selection slot k accepts the first index whose meet norm against every
    previously selected term x_{a_i} is at most 2**-(k+i); the disjoint parts
    are d_k = (x_{a_k} - v_k)+ where v_k collects the pairwise meets of the
    selected terms.
    """
    warnings = _kp_prologue(seq, target_count, ts, check_un_null, require_un_null)
    return _greedy_disjoint(seq, target_count, warnings)


def _greedy_disjoint(seq: VectorSequence, target_count: int, warnings: list[str],
                     signed: list | None = None) -> DisjointificationResult:
    """The greedy scan over the terms of ``seq``, which must be >= 0.  Given a
    list ``signed``, the scan reads the moduli of signed terms instead, and
    ``signed`` receives the pair (x_n, |x_n|) of each selected index n."""
    def term(n: int) -> tuple[Element, Element]:
        x = seq.at(n)
        if signed is None and not x.is_positive():
            raise NegativeInput(f"seq({n}) has a negative coordinate")
        return x, (x if signed is None else x.abs())

    selected, kept = [1], [term(1)]
    for n in range(2, seq.length + 1):
        if len(selected) == target_count:
            break
        (x, ax), k = term(n), len(selected) + 1
        if all(ax.meet(t).norm() <= 2.0 ** -(k + i) for i, (_, t) in enumerate(kept, start=1)):
            selected.append(n)
            kept.append((x, ax))
    terms = [ax for _, ax in kept]
    if signed is not None:
        signed += kept
    if len(selected) < target_count:
        k = len(selected) + 1
        raise HorizonExhausted(
            f"no admissible index for selection slot {k} (bound 2**-(k+i), k={k})",
            step=k, partial=_assemble_disjoint(selected, terms, warnings))
    return _assemble_disjoint(selected, terms, warnings)


def _assemble_disjoint(selected, terms, warnings) -> DisjointificationResult:
    kk = len(selected)
    meets = {}
    meet_norms = {}
    for i in range(1, kk + 1):
        for k in range(i + 1, kk + 1):
            z = terms[i - 1].meet(terms[k - 1])
            meets[(i, k)] = z
            meet_norms[(i, k)] = z.norm()
    parts = []
    residuals = []
    for k in range(1, kk + 1):
        vk = zero(terms[0].tag)
        for i in range(1, k):
            vk = vk + meets[(i, k)]
        for j in range(k + 1, kk + 1):
            vk = vk + meets[(k, j)]
        dk = (terms[k - 1] - vk).pos()
        parts.append(dk)
        residuals.append((terms[k - 1] - dk).norm())
    return DisjointificationResult(selected, parts, residuals, meet_norms, warnings)


def kp_disjointify(seq: VectorSequence, target_count: int, ts: ToleranceSpec,
                   check_un_null: bool = True,
                   require_un_null: bool = False) -> DisjointificationResult:
    """General (signed) disjointification: moduli first, then Riesz splitting."""
    warnings = _kp_prologue(seq, target_count, ts, check_un_null, require_un_null)
    signed = []
    base = _greedy_disjoint(seq, target_count, warnings, signed)
    parts = []
    residuals = []
    for (x, ax), wk in zip(signed, base.disjoint_parts):
        hk = ax - wk  # >= 0: wk = (|x| - v)+ <= |x| componentwise
        witness = riesz_decompose(x, wk, hk)
        parts.append(witness.y)
        residuals.append(witness.z.norm())
    return DisjointificationResult(base.selected_indices, parts, residuals,
                                   base.meet_matrix, base.warnings)


# ---------------------------------------------------------------------------
# uo-subsequence extraction
# ---------------------------------------------------------------------------

def _select_geometric(length: int, q, target_count: int | None,
                      stall_message: str) -> tuple[list[int], list[float]]:
    """Greedy n_1 < n_2 < ...: n_k is the first index after n_{k-1} with q(n) <= 2**-k.

    One forward pass calls q once per index, in order.  Stops at
    ``target_count`` picks or when the horizon runs out; raises
    SelectionStalled (``stall_message`` formatted with k) if that leaves fewer
    than ``target_count`` picks, or none at all.  Returns the picks and their q.
    """
    picks: list[int] = []
    values: list[float] = []
    for n in range(1, length + 1):
        v = q(n)
        if v <= 2.0 ** -(len(picks) + 1):
            picks.append(n)
            values.append(v)
            if len(picks) == target_count:
                break
    else:
        if target_count is not None and len(picks) < target_count:
            k = len(picks) + 1
            raise SelectionStalled(stall_message.format(k=k), step=k, partial=picks)
    if not picks:
        raise SelectionStalled("no admissible first index", step=1, partial=[])
    return picks, values


def _weighted_moduli(tag: SpaceTag, weighted: list[tuple[float, Element]]) -> Element:
    """The sum of w |x| over the pairs (w, x) of ``weighted``, accumulated in
    place in their order: one array at the sum's level for step models, one
    dict for sequence models, one of each for the direct sum's parts.  Per
    cell the additions are those of the chain e = e + |x|.scale(w) from
    e = 0, in the same order, and refinement copies values exactly, so the
    sum is that chain's bit for bit; a sum that overflows is refused as the
    chain refuses it."""
    if tag.kind == "lp_step":
        level = max([tag.measure.level] + [x.level for _, x in weighted])
        e = np.zeros(2 ** level)
        with np.errstate(over="ignore", invalid="ignore"):  # _checked refuses the sum
            for w, x in weighted:
                e += _repeat(w * np.abs(x.values), x.level, level)
        return StepFunction._checked(tag, level, e)
    if tag.kind == "l1_oplus_linf":
        return DirectSumVector(_weighted_moduli(_L1, [(w, x.left) for w, x in weighted]),
                               _weighted_moduli(_LINF, [(w, x.right) for w, x in weighted]))
    e: dict[int, float] = {}
    for w, x in weighted:
        for i, v in x.coords.items():
            t = w * math.fabs(v)
            if t:  # the chain drops a product that underflows to 0.0
                e[i] = e.get(i, 0.0) + t
    return LatticeVector._checked(tag, e)


@dataclass
class UoExtraction:
    test_vector: Element
    subindices: list[int]
    meet_norms: list[float]
    report: TailReport
    degenerate: bool = False


def uo_extract(seq: VectorSequence, ts: ToleranceSpec,
               target_count: int | None = None) -> UoExtraction:
    """Build the weighted test vector e and select n_k with ||x_{n_k}| /\\ e|| <= 2**-k.

    Returns the selection together with a pointwise-null certificate of the
    subsequence restricted to the support (band) of e.  For step models the
    certificate is the unsettled-mass tail, the honest finite rendering of
    "a.e. convergence along the subsequence"; for atomic models it is the
    coordinatewise report.
    """
    terms = seq.terms()
    norms = [x.norm() for x in terms]
    nonzero = [n for n, v in enumerate(norms, start=1) if v > 0]
    if not nonzero:
        report = _make_report("pointwise-tail", [0.0] * seq.length, ts,
                              extras={"degenerate": True})
        return UoExtraction(zero(seq.tag), list(range(1, seq.length + 1)),
                            [0.0] * seq.length, report, degenerate=True)

    weighted = []
    for n in nonzero:
        w = 2.0 ** -n / norms[n - 1]
        if w == 0.0:
            break  # underflow past the representable horizon
        weighted.append((w, terms[n - 1]))
    e = _weighted_moduli(seq.tag, weighted)

    subindices, meet_norms = _select_geometric(
        seq.length, lambda n: terms[n - 1]._abs_meet_norm(e), target_count,
        "no index with ||x_n| /\\ e|| <= 2**-{k} within the horizon")
    sub = sequence_from_list([terms[n - 1] for n in subindices])
    if seq.tag.kind == "lp_step":
        # Borel-Cantelli style a.e. certificate: values[j] is the mass of the
        # cells of e's support on which some term at position >= j reaches tol
        _, level, zone = _step_zone(sub, 0, ts.tol, band=e)
        weights = seq.tag.measure.weight_array(level)
        report = _make_report("uo-subsequence-unsettled-mass",
                              [float(weights[zone.last >= j].sum()) for j in range(sub.length)],
                              ts, extras={"refinement_level": level})
    else:
        report = _sparse_pointwise(sub, ts, band=e)
    return UoExtraction(e, subindices, meet_norms, report)


# ---------------------------------------------------------------------------
# norm-null -> order-null subsequence
# ---------------------------------------------------------------------------

@dataclass
class OrderSubsequence:
    subindices: list[int]
    certificate_norms: list[float]  # ||z_m|| for the dominating tails z_m

    def to_json_dict(self) -> dict:
        return {"subindices": self.subindices,
                "certificate_norms": self.certificate_norms}


def norm_to_order_subsequence(seq: VectorSequence, ts: ToleranceSpec,
                              target_count: int | None = None) -> OrderSubsequence:
    """Select ||seq(n_k)|| <= 2**-k; the partial sums of moduli dominate the tail.

    The certificate z_m = sum_{k >= m} |seq(n_k)| satisfies |seq(n_k)| <= z_m
    for k >= m and ||z_m|| <= 2**-m+1, the desk-scale order-convergence bound.
    """
    norms = norm_tail(seq, zero(seq.tag), ts)
    if norms.verdict != NULL:
        raise ValidationError("sequence is not norm-null at the given tolerance")
    subindices, _ = _select_geometric(
        seq.length, lambda n: norms.values[n - 1], target_count,
        "norm tail decays too slowly for step k={k}")
    cert = []
    tail = zero(seq.tag)
    for n in reversed(subindices):
        tail = tail + seq.at(n).abs()
        cert.append(tail.norm())
    cert.reverse()
    return OrderSubsequence(subindices, cert)
