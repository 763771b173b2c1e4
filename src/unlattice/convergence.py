"""Sequence-convergence diagnostics.

Every diagnostic consumes a :class:`VectorSequence` and produces a
:class:`TailReport`: the per-index values of the monitored quantity plus a
NULL / NOT_NULL verdict decided on the final tail window.  "Converges to 0"
is rendered at desk scale as "every value in the last ``window`` indices is
below ``tol``".

The pointwise (uo-proxy) diagnostic is the one exception: its verdict is
decided coordinate-by-coordinate (cell-by-cell for step functions), because
coordinatewise convergence is weaker than uniform smallness of the reported
sup values.  A coordinate counts as failing only when its violations
*persist*: inside the recurrence zone (the last three quarters of the run)
the first and last indices with |value| >= tol must be at least a full tail
window apart.  A transient burst shorter than the window is
indistinguishable from a settling coordinate at a finite horizon.

Sequence models are read in CSR chunks, step models in dense blocks of the
terms that share a level and a measure, and the l1 (+)_inf linf direct sum
as its l1 and linf part sequences: a direct-sum norm is the max of the
parts' norms, and a pairing the sum of the parts' pairings.  Every
diagnostic, the pointwise verdict included, is one reduction over those
chunks or blocks, except the pairings of sequence models, which go term by
term over the common supports and so walk only the shorter one: no (terms x
coordinates) or (terms x cells) matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    MNotFound,
    NegativeTestVector,
    NonStepSequence,
    NotOrderBounded,
    NoIndexFound,
    RefinementOverflow,
    ValidationError,
)
from .spaces import (
    DEFAULT_HORIZON,
    MAX_INDEX,
    MAX_REFINE_LEVEL,
    MIN_NORMAL,
    _L1,
    _LINF,
    Element,
    LatticeVector,
    SpaceTag,
    StepFunction,
    _fsum,
    _power_norm,
    _power_step_norm,
    _step_norm,
    _vector_norm,
    check_tags,
    quasi_interior_point,
    zero,
)

NULL = "NULL"
NOT_NULL = "NOT_NULL"

DEFAULT_TOL = 1e-6

#: slack for exact componentwise order comparisons
ORDER_SLACK = 1e-12


# ---------------------------------------------------------------------------
# sequences, tolerances, reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorSequence:
    """Finite, 1-based, deterministic sequence of tagged elements.  Iterating
    one of more than ``_MAX_CELLS`` terms is refused before a term is made,
    and each term it makes is checked against ``tag``.  A step sequence may
    carry ``blocks``, which makes its level blocks without making its terms
    (see ``step_blocks``)."""

    tag: SpaceTag
    length: int
    at: Callable[[int], Element]
    name: str = ""
    blocks: Callable[[Callable[[int], None]], Iterator[tuple]] | None = None

    def __post_init__(self):
        if self.length < 1:
            raise ValidationError("sequence length must be >= 1")

    def __iter__(self):
        _check_cells(self.length, 1)
        for n in range(1, self.length + 1):
            x = self.at(n)
            check_tags(self.tag, x.tag)
            yield x

    def terms(self) -> list[Element]:
        return list(self)

    def step_blocks(self, check: Callable[[int], None]) -> Iterator[tuple]:
        """The terms of this step sequence as dense blocks ``(rows, tag, level,
        values)``: row i of ``values``, a fresh array, holds the cell values at
        ``level`` of term ``rows[i] + 1``; the rows of a block increase; and
        ``tag`` is a term's tag whose measure all the block's terms share.  A
        block holds ``_block_rows(level)`` rows or fewer, and ``check(level)``
        runs before a block at ``level`` is made.  Without ``blocks``, each
        term is generated once, checked and buffered with the terms of its
        level and measure, so ``check`` runs before the next term is made."""
        if self.blocks is not None:
            _check_cells(self.length, 1)  # as iterating the terms checks it
            yield from self.blocks(check)
            return
        pending: dict[tuple[int, int], tuple[SpaceTag, list[int], list[np.ndarray]]] = {}
        for n, x in enumerate(self):
            check(x.level)
            # the entry holds the tag, so the measure's id names it while buffered
            key = (x.level, id(x.tag.measure))
            tag, rows, values = pending.setdefault(key, (x.tag, [], []))
            rows.append(n)
            values.append(x.values)
            if len(rows) == _block_rows(x.level):
                del pending[key]
                yield np.array(rows), tag, x.level, np.array(values)
        for (level, _), (tag, rows, values) in pending.items():
            yield np.array(rows), tag, level, np.array(values)


def sequence_from_list(elements: Sequence[Element], name: str = "") -> VectorSequence:
    elements = list(elements)
    if not elements:
        raise ValidationError("a sequence needs at least one element")
    tag = elements[0].tag
    for x in elements[1:]:
        check_tags(tag, x.tag)
    return VectorSequence(tag, len(elements), lambda n: elements[n - 1], name=name)


@dataclass(frozen=True)
class ToleranceSpec:
    """Desk-scale rendering of "tends to zero": tail window + threshold."""

    tol: float = DEFAULT_TOL
    window: int | None = None  # None -> length // 4 (at least 1)

    def __post_init__(self):
        if not self.tol > 0:
            raise ValidationError("tol must be > 0")
        if self.window is not None and self.window < 1:
            raise ValidationError("window must be >= 1")

    def window_for(self, length: int) -> int:
        w = self.window if self.window is not None else max(1, length // 4)
        if w > length:
            raise ValidationError("window exceeds sequence length")
        return w


@dataclass
class TailReport:
    quantity: str
    values: list[float]
    verdict: str
    tol: float
    window: int
    horizon: int
    witness: dict | None = None
    extras: dict = field(default_factory=dict)

    @property
    def is_null(self) -> bool:
        return self.verdict == NULL

    def to_json_dict(self) -> dict:
        d = {
            "quantity": self.quantity,
            "values": self.values,
            "verdict": self.verdict,
            "tol": self.tol,
            "window": self.window,
            "horizon": self.horizon,
            "witness": self.witness,
        }
        if self.extras:
            d["extras"] = self.extras
        return d

    def to_csv(self) -> str:
        lines = ["index,value"]
        lines += [f"{n},{v:.17g}" for n, v in enumerate(self.values, start=1)]
        return "\n".join(lines) + "\n"


def _tail_verdict(values: Sequence[float], tol: float, window: int):
    """Generic verdict: NULL iff every value in the final window is < tol."""
    n = len(values)
    for i in range(n - window, n):
        if not values[i] < tol:
            return NOT_NULL, i + 1
    return NULL, None


def _make_report(quantity, values, ts, witness_extra=None, extras=None):
    window = ts.window_for(len(values))
    verdict, bad = _tail_verdict(values, ts.tol, window)
    witness = None
    if verdict == NOT_NULL:
        witness = {"index": bad, "value": values[bad - 1]}
        if witness_extra:
            witness.update(witness_extra(bad))
    return TailReport(quantity, [float(v) for v in values], verdict,
                      ts.tol, window, len(values), witness, extras or {})


def _table_report(quantity, table: np.ndarray, ts, key: str, extras: dict):
    """The report on the row maxima of ``table``; the witness names the first
    maximal column of its row under ``key``."""
    return _make_report(quantity, table.max(axis=1).tolist(), ts,
                        witness_extra=lambda n: {key: int(table[n - 1].argmax())},
                        extras=extras)


# ---------------------------------------------------------------------------
# norm and un diagnostics
# ---------------------------------------------------------------------------

#: Stored coordinates per block chunk: large enough to amortize the numpy
#: calls, small enough for a chunk to stay in cache.
_CHUNK_CELLS = 2 ** 16


def _sparse_chunks(seq: VectorSequence, limit: LatticeVector):
    """The moduli |seq(n) - limit| in CSR chunks ``(indptr, indices, data)`` of
    about ``_CHUNK_CELLS`` stored coordinates, generating each term once."""
    limit_is_zero = limit.is_zero()
    indptr, indices, data = [0], [], []
    for n, x in enumerate(seq, start=1):
        coords = x.coords if limit_is_zero else (x - limit).coords
        indices += coords
        data += coords.values()
        indptr.append(len(data))
        if len(data) >= _CHUNK_CELLS or n == seq.length:
            yield (np.array(indptr), np.fromiter(indices, np.int64, len(indices)),
                   np.abs(np.fromiter(data, float, len(data))))
            indptr, indices, data = [0], [], []


def _block_rows(level: int) -> int:
    """The fewest rows, one at least, whose cells at ``level`` reach
    ``_CHUNK_CELLS``: a block's size."""
    return -(-_CHUNK_CELLS >> level)


def _step_blocks(seq: VectorSequence, limit: StepFunction | None = None, top: int = 0,
                 budget: bool = False):
    """The level blocks of the step sequence ``seq`` (``VectorSequence.step_blocks``),
    less ``limit``, cut to ``_block_rows`` of level ``top`` or their own, if
    higher, so a block refined to ``top`` stays that small.  An overflowed
    difference is refused.  With ``budget``, a level is refused before its
    first block is made once ``seq.length`` rows at ``top`` or that level
    would exceed ``_MAX_CELLS``: the size of the common refinement."""
    def check(level: int) -> None:
        if budget:
            _check_cells(seq.length, 2 ** max(level, top))

    for rows, tag, level, values in seq.step_blocks(check):
        size = _block_rows(max(level, top))
        for s in range(0, len(rows), size):
            block, m = values[s:s + size], level
            if limit is not None:  # as x - limit: at the higher of the two levels
                m = max(level, limit.level)
                with np.errstate(over="ignore"):
                    block = _at_level(block, level, m) - limit.refined(m).values
                if not np.isfinite(block).all():
                    raise ValidationError("values must be finite")
            yield rows[s:s + size], tag, m, block


def _at_level(block: np.ndarray, level: int, m: int) -> np.ndarray:
    """The rows of ``block`` refined from ``level`` to ``m`` >= ``level``."""
    return block if m == level else np.repeat(block, 2 ** (m - level), axis=1)


def _block_norms(tag: SpaceTag, level: int, a: np.ndarray,
                 u: StepFunction | None = None) -> list[float]:
    """The norm of each row of the block ``a`` >= 0 at ``level``, or of its
    meet with ``u``, bit for bit ``StepFunction.norm`` of the row."""
    if u is not None:
        m = max(level, u.level)
        a, level = np.minimum(_at_level(a, level, m), u.refined(m).values), m
    w, p = tag.measure.weight_array(level), tag.p
    if p == 1.0:
        return [_step_norm(w, row, p) for row in a]
    with np.errstate(over="ignore"):  # once per block, not once per row
        return [_power_step_norm(w, row, p) for row in a]


def _fsums(values: np.ndarray, bounds) -> np.ndarray:
    """math.fsum of each segment values[s:e], inf where the sum overflows."""
    flat = memoryview(values)
    return np.array([_fsum(flat[s:e]) for s, e in bounds])


def _row_norms(tag: SpaceTag, indptr: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The norm of each row of the CSR block ``(indptr, a)`` of values >= 0,
    bit for bit ``LatticeVector.norm`` of the row's vector."""
    starts, ends = indptr[:-1], indptr[1:]
    big = np.zeros(len(starts))
    full = ends > starts
    if a.size:
        big[full] = np.maximum.reduceat(a, starts[full])
    if tag.kind in ("c0", "linf"):
        return big
    p = tag.p
    bounds = list(zip(starts.tolist(), ends.tolist()))
    if p == 1.0:
        return _fsums(a, bounds)
    if p != 2.0:  # numpy's power may differ from libm's in the last bit
        flat = memoryview(a)
        return np.array([_power_norm(flat[s:e], p) if m else 0.0
                         for (s, e), m in zip(bounds, big.tolist())])
    with np.errstate(over="ignore"):
        sums = _fsums(a * a, bounds)
    out = np.sqrt(sums)
    # a sum that is subnormal, zero or overflowed is taken of v / max|v|
    redo = np.flatnonzero(~((sums >= MIN_NORMAL) & (sums < math.inf)) & (big > 0))
    if redo.size:
        counts = ends[redo] - starts[redo]
        offsets = np.cumsum(counts) - counts
        cells = np.arange(counts.sum()) + np.repeat(starts[redo] - offsets, counts)
        r = a[cells] / np.repeat(big[redo], counts)
        sums = _fsums(r * r, zip(offsets.tolist(), (offsets + counts).tolist()))
        with np.errstate(over="ignore"):  # an overflowed norm is inf, as in LatticeVector.norm
            out[redo] = big[redo] * np.sqrt(sums)
    return out


def _tail_norms(seq: VectorSequence, limit: Element,
                tests: Sequence[Element] = ()) -> np.ndarray:
    """The (length, max(1, len(tests))) array of the norms of |seq(n) - limit|
    /\\ u for each test u, or of |seq(n) - limit| when no test is given.
    Each term is generated once; sequence models are reduced in CSR chunks,
    step models in dense blocks, and the direct sum as its two parts: its
    norm is the max of theirs.  A table over ``_MAX_CELLS`` cells is refused
    before it is allocated."""
    _check_cells(seq.length, max(1, len(tests)))
    if seq.tag.kind == "l1_oplus_linf":
        left, right = _parts(seq)
        return np.maximum(_tail_norms(left, limit.left, [u.left for u in tests]),
                          _tail_norms(right, limit.right, [u.right for u in tests]))
    if seq.tag.kind == "lp_step":
        out = np.empty((seq.length, max(1, len(tests))))
        top = max([u.level for u in tests] + [limit.level])
        for rows, tag, level, a in _step_blocks(seq, None if limit.is_zero() else limit, top):
            np.abs(a, out=a)
            out[rows] = np.stack([_block_norms(tag, level, a, u) for u in tests]
                                 or [_block_norms(tag, level, a)], axis=1)
        return out
    supports = [_sorted_support(u) for u in tests]
    blocks = []
    for indptr, indices, a in _sparse_chunks(seq, limit):
        norms = []
        for keys, values in supports:
            at = np.searchsorted(keys, indices)
            u = np.where(keys[at] == indices, values[at], 0.0)
            norms.append(_row_norms(seq.tag, indptr, np.minimum(a, u)))
        blocks.append(np.stack(norms or [_row_norms(seq.tag, indptr, a)], axis=1))
    return np.concatenate(blocks)


def _parts(seq: VectorSequence) -> tuple[VectorSequence, VectorSequence]:
    """The l1 and the linf part sequences of the direct-sum sequence ``seq``,
    over its terms, each generated once."""
    terms = seq.terms()
    return (VectorSequence(_L1, seq.length, lambda n: terms[n - 1].left, seq.name),
            VectorSequence(_LINF, seq.length, lambda n: terms[n - 1].right, seq.name))


def _sorted_support(u: LatticeVector) -> tuple[np.ndarray, np.ndarray]:
    """u's indices in increasing order and its values there, each closed by a
    sentinel (the largest index, value 0.0) that no coordinate reaches."""
    keys = sorted(u.coords)
    return (np.array(keys + [MAX_INDEX], dtype=np.int64),
            np.array([u.coords[i] for i in keys] + [0.0]))


def norm_tail(seq: VectorSequence, limit: Element, ts: ToleranceSpec) -> TailReport:
    """values[n] = ||seq(n) - limit||."""
    check_tags(seq.tag, limit.tag)
    return _make_report("norm-tail", _tail_norms(seq, limit)[:, 0].tolist(), ts)


def un_tail(seq: VectorSequence, limit: Element, tests: Sequence[Element],
            ts: ToleranceSpec) -> TailReport:
    """values[n] = max over test vectors u of || |seq(n) - limit| /\\ u ||."""
    check_tags(seq.tag, limit.tag)
    tests = list(tests)
    if not tests:
        raise ValidationError("un_tail needs at least one test vector")
    for u in tests:
        check_tags(seq.tag, u.tag)
        if not u.is_positive():
            raise NegativeTestVector("test vectors must be >= 0")
        if u.is_zero():
            raise ValidationError("test vectors must be nonzero")
    return _table_report("un-tail", _tail_norms(seq, limit, tests), ts, "test_index",
                         {"num_tests": len(tests)})


def truncation_index(u: Element, e: Element, eps: float, m_max: int = 2 ** 20) -> int:
    """Smallest m with ||u - u /\\ (m e)|| < eps (the quasi-interior m-selection)."""
    if not eps > 0:
        raise ValidationError("eps must be > 0")

    def remainder(m: int) -> float:
        return (u - u.meet(e.scale(float(m)))).norm()

    # the remainder is nonincreasing in m: double to bracket, then bisect
    hi = 1
    while remainder(hi) >= eps:
        hi *= 2
        if hi > m_max:
            raise MNotFound(
                f"no m <= {m_max} achieves ||u - u/\\me|| < {eps}", m_max=m_max
            )
    lo = hi // 2  # remainder(lo) >= eps when lo >= 1
    while hi - lo > 1 and lo >= 1:
        mid = (lo + hi) // 2
        if remainder(mid) < eps:
            hi = mid
        else:
            lo = mid
    return hi


def un_strong_unit(seq: VectorSequence, limit: Element, ts: ToleranceSpec) -> TailReport:
    """``un_tail`` of a linf sequence against its strong unit 1, which no
    horizon cuts off: || |x| /\\ 1 || = min(||x||, 1) exactly (min rounds nothing).
    A direct-sum sequence is read against 0 (+) 1: its l1 part meets 0, so the
    value is its linf part sequence's against 1."""
    check_tags(seq.tag, limit.tag)
    if seq.tag.kind == "l1_oplus_linf":
        seq, limit = _parts(seq)[1], limit.right
    return _table_report("un-tail", np.minimum(_tail_norms(seq, limit), 1.0), ts,
                         "test_index", {"num_tests": 1})


def un_tail_qip(seq: VectorSequence, limit: Element, ts: ToleranceSpec,
                horizon: int = DEFAULT_HORIZON) -> TailReport:
    """Single-vector un-test against the model's quasi-interior point e.

    ``truncation_index`` gives the reduction step that makes the single
    vector sufficient: u /\\ (m e) approximates any test u >= 0.  In linf,
    e is the strong unit 1 (``un_strong_unit``): ``horizon`` cuts nothing off.
    """
    if horizon < 1:
        raise ValidationError("qip horizon must be >= 1")
    if seq.tag.kind != "linf":
        report = un_tail(seq, limit, [quasi_interior_point(seq.tag, horizon)], ts)
    else:
        report = un_strong_unit(seq, limit, ts)
    report.quantity = "un-tail-qip"
    report.extras["test_family"] = "quasi-interior-point"
    report.extras["qip_horizon"] = horizon
    return report


# ---------------------------------------------------------------------------
# in-measure diagnostic (step models)
# ---------------------------------------------------------------------------

def in_measure_tail(seq: VectorSequence, delta: float, ts: ToleranceSpec) -> TailReport:
    """values[n] = mu{ |seq(n)| > delta }."""
    if seq.tag.kind != "lp_step":
        raise NonStepSequence("in-measure diagnostic needs an lp_step sequence")
    if not delta > 0:
        raise ValidationError("delta must be > 0")
    values = np.empty(seq.length)
    for rows, tag, level, block in _step_blocks(seq):
        w = tag.measure.weight_array(level)
        values[rows] = [w[mask].sum() for mask in np.abs(block) > delta]
    return _make_report("in-measure-tail", values.tolist(), ts, extras={"delta": delta})


# ---------------------------------------------------------------------------
# the pointwise / uo-proxy diagnostic
# ---------------------------------------------------------------------------

#: Cells of the largest table: 2**26 doubles (512 MiB) admit the common step
#: refinement of typewriter(13), not of typewriter(14), or about 22.4 M stored triples.
_MAX_CELLS = 2 ** 26

#: The pointwise recurrence zone is this final fraction of the run.
_RECURRENCE_FRACTION = 0.75


def _check_cells(rows: int, columns: int) -> None:
    if rows * columns > _MAX_CELLS:
        raise ValidationError(f"a {rows} x {columns} matrix exceeds {_MAX_CELLS} cells")


def _zone_start(n: int, ts: ToleranceSpec) -> int:
    """The first row (0-based) of the recurrence zone of a run of ``n``: its
    final three quarters, or its final window if that is longer.  A window
    over ``n`` is refused by the report, once the terms have been read."""
    return max(0, n - max(ts.window or 1, math.ceil(_RECURRENCE_FRACTION * n)))


@dataclass
class _Zone:
    """Per-column reductions over the recurrence zone of a run: the first and
    last row with modulus >= tol (past the run and -1 where there is none),
    the zone max and min, and the first 8 violating terms of a column."""

    first: np.ndarray
    last: np.ndarray
    limsup: np.ndarray
    liminf: np.ndarray
    hits: Callable[[int], list[int]]


def _sparse_moduli(seq: VectorSequence, band: LatticeVector | None = None):
    """The triples ``(rows, columns, moduli)`` of the stored coordinates of
    |seq(n)| (of its band projection onto the support of ``band``) in row
    order, row n - 1 for term n.  Each term is generated once; the triples are
    held to the budget as a (stored x 3) table as each chunk arrives."""
    if not seq.tag.is_sequence_kind:
        raise ValidationError("pointwise diagnostic supports sequence and step models")
    counts, columns, moduli = [], [], []
    for indptr, indices, a in _sparse_chunks(seq, zero(seq.tag)):
        counts.append(np.diff(indptr))
        columns.append(indices)
        moduli.append(a)
        _check_cells(sum(map(len, moduli)), 3)
    rows = np.repeat(np.arange(seq.length), np.concatenate(counts))
    columns, moduli = np.concatenate(columns), np.concatenate(moduli)
    if band is not None:
        keep = np.isin(columns, list(band.coords))
        rows, columns, moduli = rows[keep], columns[keep], moduli[keep]
    return rows, columns, moduli


def _merge_zone(acc: np.ndarray | None, stats: np.ndarray) -> np.ndarray:
    """Fold the zone statistics ``stats`` into ``acc``: rows first and min by
    minimum, rows last and max by maximum."""
    if acc is None:
        return stats
    np.minimum(acc[:2], stats[:2], out=acc[:2])
    np.maximum(acc[2:], stats[2:], out=acc[2:])
    return acc


def _step_zone(seq: VectorSequence, zone_start: int, tol: float,
               band: StepFunction | None = None):
    """The row maxima of |seq(n)|, the common refinement level of the terms
    (and of ``band``) and the ``_Zone`` of its cells, streamed over the level
    blocks of the step sequence ``seq`` with no (terms x cells) matrix.  With
    ``band``, of the band projection onto the support of ``band``.

    Each block is reduced at its own level (at the band's, if higher); the
    per-level results are refined to the common level at the end.  Max and
    min are exact, so every number is that of the dense refined matrix.  The
    common refinement is held to the budget term by term."""
    n, top = seq.length, 0 if band is None else band.level
    values, level = np.empty(n), 0
    # per level: the (4, 2**level) rows first, min, last, max of its blocks
    per_level: dict[int, np.ndarray] = {}
    masks = []  # (level, zone rows, packed violation mask) of each block that has one
    for rows, _, m, block in _step_blocks(seq, top=top, budget=True):
        np.abs(block, out=block)
        if band is not None:  # at the higher of the two levels
            block = _at_level(block, m, max(m, top))
            m = max(m, top)
            block[:, band.refined(m).values == 0.0] = 0.0
        values[rows] = block.max(axis=1)
        level = max(level, m)
        k = np.searchsorted(rows, zone_start)  # a block's rows increase
        if k == len(rows):
            continue
        rows, block = rows[k:], block[k:]
        bad = block >= tol
        hit = bad.any(axis=0)
        per_level[m] = _merge_zone(per_level.get(m), np.stack([
            np.where(hit, rows[bad.argmax(axis=0)], n), block.min(axis=0),
            np.where(hit, rows[::-1][bad[::-1].argmax(axis=0)], -1), block.max(axis=0)]))
        if hit.any():
            masks.append((m, rows, np.packbits(bad, axis=1)))
    acc = None
    for m, stats in per_level.items():
        acc = _merge_zone(acc, _at_level(stats, m, level))

    def hits(c: int) -> list[int]:
        # blocks of different levels flush out of row order: merge, then sort
        found = []
        for m, rows, packed in masks:
            j = c >> (level - m)  # the cell at level m that holds cell c
            found.append(rows[packed[:, j >> 3] >> (7 - (j & 7)) & 1 == 1])
        return (np.sort(np.concatenate(found))[:8] + 1).tolist()

    return values, level, _Zone(acc[0], acc[2], acc[3], acc[1], hits)


def _pointwise_report(values: np.ndarray, labels: list[str], level: int | None,
                      ts: ToleranceSpec, zone_start: int, zone: _Zone) -> TailReport:
    """The pointwise verdict on the zone reductions of a run whose row maxima
    are ``values``."""
    window = ts.window_for(len(values))
    persistent = np.flatnonzero(zone.last - zone.first >= window)
    witness = None
    if persistent.size:
        c = int(persistent[0])
        witness = {"coordinate": labels[c], "violation_indices": zone.hits(c)}
    extras = {"zone_start": zone_start + 1, "limsup": zone.limsup.tolist(),
              "liminf": zone.liminf.tolist(), "coordinates": labels}
    if level is not None:
        extras["refinement_level"] = level
    return TailReport("pointwise-tail", values.tolist(),
                      NOT_NULL if persistent.size else NULL,
                      ts.tol, window, len(values), witness, extras)


def _sparse_pointwise(seq: VectorSequence, ts: ToleranceSpec,
                      band: LatticeVector | None = None) -> TailReport:
    """The pointwise report of the sequence model ``seq`` (band-projected
    onto the support of ``band``) from its stored triples.  An unstored
    coordinate is 0.0: a column's zone min is 0.0 unless it is stored in every
    zone row.  Max and min are exact, so no number differs from the dense
    (terms x touched coordinates) matrix, which is never built."""
    rows, columns, moduli = _sparse_moduli(seq, band)
    n, zone_start = seq.length, _zone_start(seq.length, ts)
    touched, col = np.unique(columns, return_inverse=True)
    k = max(1, touched.size)  # a run of zeros reports coordinate 1
    values, limsup, liminf = np.zeros(n), np.zeros(k), np.full(k, np.inf)
    first, last = np.full(k, n), np.full(k, -1)
    zone = rows >= zone_start
    bad = zone & (moduli >= ts.tol)  # the zone violations, in row order
    np.maximum.at(values, rows, moduli)
    np.maximum.at(limsup, col[zone], moduli[zone])
    np.minimum.at(liminf, col[zone], moduli[zone])
    liminf[np.bincount(col[zone], minlength=k) < n - zone_start] = 0.0
    np.minimum.at(first, col[bad], rows[bad])
    np.maximum.at(last, col[bad], rows[bad])
    labels = [str(c) for c in touched.tolist()] or ["1"]
    return _pointwise_report(values, labels, None, ts, zone_start, _Zone(
        first, last, limsup, liminf, lambda c: (rows[bad & (col == c)][:8] + 1).tolist()))


def pointwise_tail(seq: VectorSequence, ts: ToleranceSpec) -> TailReport:
    """uo-proxy: coordinatewise / cellwise convergence to zero.

    values[n] is the sup of |seq(n)| over the touched coordinates
    (informational).  The verdict is per coordinate: a coordinate fails only
    if, inside the recurrence zone (the final three quarters of the run), its
    violations |seq(n)(c)| >= tol span at least a full tail window;
    per-coordinate limsup and liminf over the zone are reported.  Step models
    are refined to at most ``MAX_REFINE_LEVEL``.
    """
    if seq.tag.kind != "lp_step":
        return _sparse_pointwise(seq, ts)
    zone_start = _zone_start(seq.length, ts)
    values, level, zone = _step_zone(seq, zone_start, ts.tol)
    if level > MAX_REFINE_LEVEL:
        raise RefinementOverflow(f"common refinement level {level} exceeds "
                                 f"the maximum {MAX_REFINE_LEVEL}")
    return _pointwise_report(values, [f"cell[{level}:{i}]" for i in range(2 ** level)],
                             level, ts, zone_start, zone)


# ---------------------------------------------------------------------------
# weak diagnostics
# ---------------------------------------------------------------------------

def pairing(f: Element, x: Element) -> float:
    """Duality pairing <f, x> for the representable functional families."""
    check_tags(f.tag, x.tag)
    return float(_pairings(VectorSequence(x.tag, 1, lambda n: x), [f], False)[0, 0])


def _pair_sums(prod: np.ndarray) -> np.ndarray:
    """The sum of each row of ``prod``, over adjacent cell pairs first: exact
    cancellation for sign-modulated integrands that flip within equal-mass
    cell pairs."""
    k, cells = prod.shape
    return prod.sum(axis=1) if cells % 2 else prod.reshape(k, -1, 2).sum(axis=2).sum(axis=1)


def _exact_sum(prods: list[float]) -> float:
    """The correctly rounded sum of ``prods``, through ``Fraction`` when a
    partial sum leaves the float range; refused when a product or the sum does."""
    if all(map(math.isfinite, prods)):
        try:
            return math.fsum(prods)
        except OverflowError:  # a partial sum left the float range; the exact sum may not
            from fractions import Fraction  # a rare path; the import is slow
            try:
                return float(sum(map(Fraction, prods)))
            except OverflowError:
                pass
    raise ValidationError("the pairing exceeds the float range")


def _pairings(seq: VectorSequence, functionals: list[Element], modulus: bool) -> np.ndarray:
    """The (length, len(functionals)) table of <f, seq(n)> (of <f, |seq(n)|>
    with ``modulus``), each term generated once.  Step models pair by blocks,
    each functional weighted once per level; sequence models term by term over
    the common supports, which walks only the shorter one; the direct sum is
    the sum of its parts' tables.  A step row whose weighted sum is not finite
    is paired again with the weights applied after f * x, so that w * f
    overflowing does not refuse a finite pairing.  A pairing past the float
    range is refused."""
    if seq.tag.kind == "l1_oplus_linf":
        left, right = _parts(seq)
        with np.errstate(over="ignore"):
            table = (_pairings(left, [f.left for f in functionals], modulus)
                     + _pairings(right, [f.right for f in functionals], modulus))
        if not np.isfinite(table).all():
            raise ValidationError("the pairing exceeds the float range")
        return table
    table = np.empty((seq.length, len(functionals)))
    if seq.tag.is_sequence_kind:
        for n, x in enumerate((x.abs() for x in seq) if modulus else seq):
            for j, f in enumerate(functionals):
                a, b = f.coords, x.coords
                if len(b) < len(a):
                    a, b = b, a
                table[n, j] = _exact_sum([v * b[i] for i, v in a.items() if i in b])
        return table
    weighted: dict[tuple[int, int], np.ndarray] = {}  # the cell weights times f at a level
    for rows, _, level, block in _step_blocks(seq, top=max(f.level for f in functionals)):
        if modulus:
            np.abs(block, out=block)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, f in enumerate(functionals):
                m = max(level, f.level)
                if (j, m) not in weighted:
                    weighted[j, m] = f.tag.measure.weight_array(m) * f.refined(m).values
                x = _at_level(block, level, m)
                sums = _pair_sums(x * weighted[j, m])
                redo = ~np.isfinite(sums)
                if redo.any():  # w * f can overflow where f * x does not: weigh last
                    sums[redo] = _pair_sums(
                        x[redo] * f.refined(m).values * f.tag.measure.weight_array(m))
                table[rows, j] = sums
        if not np.isfinite(table[rows]).all():
            raise ValidationError("the pairing exceeds the float range")
    return table


def weak_tail(seq: VectorSequence, functionals: Sequence[Element], ts: ToleranceSpec,
              modulus: bool = False) -> TailReport:
    """values[n] = max over f of |<f, seq(n)>| (or <|f|, |seq(n)|> with modulus).

    A NULL verdict certifies nullity only *against the given family*; a
    NOT_NULL verdict genuinely refutes weak (resp. absolute-weak) nullity.
    """
    functionals = list(functionals)
    if not functionals:
        raise ValidationError("weak_tail needs at least one functional")
    for f in functionals:
        check_tags(seq.tag, f.tag)
    if modulus:
        functionals = [f.abs() for f in functionals]
    table = np.abs(_pairings(seq, functionals, modulus))
    return _table_report("modulus-weak-tail" if modulus else "weak-tail", table, ts,
                         "functional_index",
                         {"family_size": len(functionals), "verdict_scope": "against family"})


# ---------------------------------------------------------------------------
# order-convergence witness in atomic models
# ---------------------------------------------------------------------------

@dataclass
class OrderWitness:
    """Dominating schedule certifying desk-scale order convergence to zero."""

    atoms: list[int]
    entries: list[dict]  # {"k": k, "index": n_k, "dominator_norm": ||v_k||}

    def to_json_dict(self) -> dict:
        return {"atoms": self.atoms, "entries": self.entries}


def order_witness_atomic(seq: VectorSequence, bound: Element,
                         ts: ToleranceSpec) -> OrderWitness:
    """Construct the decreasing dominators v_k over the atoms of ``bound``.

    v_k agrees with ``bound`` beyond the first k atoms and is capped at 1/k on
    them; for each k the least n_k is found with |seq(n)| <= v_k for every
    n >= n_k within the horizon.
    """
    if not seq.tag.is_sequence_kind:
        raise ValidationError("order witness requires an atomic sequence model")
    check_tags(seq.tag, bound.tag)
    if not bound.is_positive():
        raise ValidationError("bound must be >= 0")
    rows, columns, moduli = _sparse_moduli(seq)
    # the atoms in increasing order and b, bound's values there, each closed by
    # the sentinel 0.0; a coordinate outside the atoms gathers the sentinel
    keys, b = _sorted_support(bound)
    at = np.searchsorted(keys, columns)
    at[keys[at] != columns] = len(keys) - 1

    def undominated(v: np.ndarray) -> np.ndarray:  # the rows n - 1 where |seq(n)| <= v fails
        # in increasing order, with repeats; an unstored 0.0 never exceeds v >= 0
        return rows[moduli > v[at] + ORDER_SLACK]

    unbounded = undominated(b)
    if unbounded.size:
        n = int(unbounded[0]) + 1
        raise NotOrderBounded(f"|seq({n})| is not dominated by the bound", witness_index=n)
    atoms = keys[:-1].tolist()
    entries = []
    for k in range(1, max(len(atoms), 8) + 1):
        vk = b.copy()  # b with its first k entries capped at 1/k
        np.minimum(vk[:k], 1.0 / k, out=vk[:k])
        bad = undominated(vk)
        last_bad = int(bad[-1]) + 1 if bad.size else 0
        if last_bad == seq.length:
            raise NoIndexFound(f"no index n_k within the horizon dominates step k={k}", step=k)
        entries.append({"k": k, "index": last_bad + 1,
                        "dominator_norm": _vector_norm(seq.tag, vk[:-1].tolist())})
    return OrderWitness(atoms, entries)


# ---------------------------------------------------------------------------
# almost order boundedness
# ---------------------------------------------------------------------------

@dataclass
class AlmostOrderBoundedResult:
    bounded: bool
    worst_value: float
    worst_index: int  # position in the input list, 0-based

    def __bool__(self):
        return self.bounded


def almost_order_bounded_check(vectors: Sequence[Element], u: Element,
                               eps: float) -> AlmostOrderBoundedResult:
    """True iff ||(|x| - u)^+|| < eps for every listed x."""
    if not eps > 0:
        raise ValidationError("eps must be > 0")
    vectors = list(vectors)
    if not vectors:
        raise ValidationError("need at least one vector")
    if not u.is_positive():
        raise ValidationError("u must be >= 0")
    values = []
    for x in vectors:
        check_tags(x.tag, u.tag)
        values.append((x.abs() - u).pos().norm())
    i = int(np.argmax(values))
    return AlmostOrderBoundedResult(values[i] < eps, values[i], i)
