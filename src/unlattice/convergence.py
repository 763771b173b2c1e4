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
parts' norms, and a pairing the sum of the parts' pairings.  They come from
the sequence's producer where it has one, with no term made: every producer
is ``blocks(first, stop)``, the terms ``first + 1`` .. ``stop``, so that a
window keeps it, and a nonzero limit is subtracted inside each chunk and
block.  The gallery's units, overlap sequence and direct-sum parts build
chunks with ``np.arange`` and ``np.repeat``, a list of sequence literals
decoded as one CSR (``spaces.SparseRows``) gives slices of it, the typewriter
makes identity rows, and a list of step literals decoded into one block per
(tag, level) group (``spaces.StepRows``) gives copies of cuts of those.
Otherwise each term is generated once and flattened into a chunk or buffered
with the terms of its level and measure.  Every diagnostic, the pointwise
verdict included, is one reduction over those chunks or blocks, except the
pairings of sequence models, which go term by term over the common supports
and so walk only the shorter one: no (terms x coordinates) or (terms x
cells) matrix is built.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import jsonio
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
    SparseRows,
    StepFunction,
    StepRows,
    _fsum,
    _power_norm,
    _power_step_norm,
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
    and each term it makes is checked against ``tag``.

    A sequence may carry ``blocks``, a producer that makes its terms in bulk
    without making them one at a time: ``blocks(first, stop)`` gives the
    terms ``first + 1`` .. ``stop`` in its model's layout.  For a sequence
    model, CSR chunks (see ``_sparse_chunks``); for a step model, level
    blocks ``(rows, tag, level, make)``, rows counted from ``first`` and
    ``make()`` a fresh values array (see ``_step_blocks``); for the direct
    sum, its two part sequences cut to those terms (see ``_parts``).
    Without one, the diagnostics make each term once through ``at``."""

    tag: SpaceTag
    length: int
    at: Callable[[int], Element]
    name: str = ""
    blocks: Callable[[int, int], Iterator[tuple] | tuple] | None = None

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

    def window(self, head: int, length: int) -> "VectorSequence":
        """The terms ``head + 1`` .. ``head + length`` as a sequence of their
        own, which keeps this sequence's producer, cut to them."""
        blocks = None if self.blocks is None else (
            lambda first, stop: self.blocks(head + first, head + stop))
        return VectorSequence(self.tag, length, lambda n: self.at(head + n), blocks=blocks)


def sequence_from_list(elements: Sequence[Element], name: str = "") -> VectorSequence:
    """The sequence of ``elements``; of ``SparseRows``, one whose chunks are
    slices of their CSR, and of ``StepRows``, one whose level blocks are cut
    from their group blocks; either makes its terms as they are asked for."""
    producer = {SparseRows: _csr_blocks, StepRows: _group_blocks}.get(type(elements))
    if producer is not None:
        tags, blocks = elements.tags, producer(elements)
    else:
        elements = list(elements)
        tags, blocks = [x.tag for x in elements], None
    if not elements:
        raise ValidationError("a sequence needs at least one element")
    for tag in tags[1:]:
        check_tags(tags[0], tag)
    return VectorSequence(tags[0], len(elements), lambda n: elements[n - 1], name=name,
                          blocks=blocks)


@dataclass(frozen=True)
class ToleranceSpec:
    """Desk-scale rendering of "tends to zero": tail window + threshold."""

    tol: float = DEFAULT_TOL
    window: int | None = None  # None -> length // 4 (at least 1)

    def __post_init__(self):
        # an inf tol makes every tail null; an int past the float range is refused too
        if not 0 < self.tol <= sys.float_info.max:
            raise ValidationError("tol must be finite and > 0")
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
        jsonio.check_finite(self.values)  # the JSON report's refusal
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
    return TailReport(quantity, values, verdict,
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
    about ``_CHUNK_CELLS`` cells: the chunks of the producer of ``seq`` where
    it has one, with no term made, else ``_term_chunks``, less a nonzero
    limit (``_less_limit``)."""
    _check_cells(seq.length, 1)  # before a chunk is made, as iterating the terms checks it
    chunks = _term_chunks(seq) if seq.blocks is None else seq.blocks(0, seq.length)
    if not limit.is_zero():
        chunks = _less_limit(chunks, *_sorted_support(limit))
    for indptr, indices, data in chunks:
        yield indptr, indices, np.abs(data)


def _term_chunks(seq: VectorSequence):
    """The CSR chunks of ``seq`` packed from its terms, each generated once
    and its coordinates in the order of its ``coords``: a chunk closes at the
    first term that brings it to ``_CHUNK_CELLS`` and at the last term."""
    indptr, indices, data = [0], [], []
    for n, x in enumerate(seq, start=1):
        indices += x.coords
        data += x.coords.values()
        indptr.append(len(data))
        if len(data) >= _CHUNK_CELLS or n == seq.length:
            yield (np.array(indptr), np.fromiter(indices, np.int64, len(indices)),
                   np.fromiter(data, float, len(data)))
            indptr, indices, data = [0], [], []


def _term_blocks(seq: VectorSequence, check: Callable[[int], None]):
    """The level blocks of the step sequence ``seq`` buffered from its terms:
    each term is generated once, checked (``check(level)``, before the next
    term is made) and buffered with the terms of its level and measure; a
    block closes at ``_block_rows(level)`` rows and at the last term."""
    pending: dict[tuple[int, int], tuple[SpaceTag, list[int], list[np.ndarray]]] = {}
    for n, x in enumerate(seq):
        check(x.level)
        # the entry holds the tag, so the measure's id names it while buffered
        key = (x.level, id(x.tag.measure))
        tag, rows, values = pending.setdefault(key, (x.tag, [], []))
        rows.append(n)
        values.append(x.values)
        if len(rows) == _block_rows(x.level):
            del pending[key]
            yield np.array(rows), tag, x.level, partial(np.array, values)
    for (level, _), (tag, rows, values) in pending.items():
        yield np.array(rows), tag, level, partial(np.array, values)


def _less_limit(chunks, keys: np.ndarray, values: np.ndarray):
    """The CSR ``chunks`` less the limit whose sorted support is ``(keys,
    values)`` (``_sorted_support``), row by row bit for bit
    ``LatticeVector.__sub__``: each row lives on the union of its support and
    the limit's, its own coordinates first, each value is one x - L, x or -L,
    and exact zeros drop out; a value that is not finite is refused as
    ``_checked`` refuses it.  A chunk is first cut as if each row stored the
    limit's coordinates too, so that a cut holds about ``_CHUNK_CELLS``."""
    k = len(keys) - 1
    for indptr, indices, data in chunks:
        for s, e in _chunk_bounds(lambda r: int(indptr[r]) + r * k, 0, len(indptr) - 1):
            n, a, b = e - s, indptr[s], indptr[e]
            rows = np.repeat(np.arange(n), np.diff(indptr[s:e + 1]))
            at = np.searchsorted(keys, indices[a:b])
            hit = keys[at] == indices[a:b]
            with np.errstate(over="ignore"):
                diff = data[a:b] - np.where(hit, values[at], 0.0)  # x - 0.0 is x
            rest = np.ones((n, k), bool)
            rest[rows[hit], at[hit]] = False
            rest = np.flatnonzero(rest)  # row * k + key of each limit coordinate a row lacks
            rows, key = np.concatenate((rows, rest // k)), rest % k
            out = np.concatenate((diff, -values[key]))
            if not np.isfinite(out).all():
                raise ValidationError("coordinates must be finite")
            keep = np.flatnonzero(out)
            keep = keep[np.argsort(rows[keep], kind="stable")]  # row order, own coordinates first
            yield (np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=n)))),
                   np.concatenate((indices[a:b], keys[key]))[keep], out[keep])


def _chunk_bounds(stored: Callable[[int], int], first: int, stop: int):
    """The row ranges ``(s, e)`` into which a chunk producer or ``_less_limit``
    cuts the rows ``first`` .. ``stop - 1``, given ``stored(r)``, the number
    of cells in the rows before row r."""
    s = first
    while s < stop:
        e = bisect.bisect_left(range(s + 1, stop), stored(s) + _CHUNK_CELLS, key=stored) + s + 1
        yield s, e
        s = e


def _csr_blocks(rows: SparseRows):
    """The chunk producer of a sequence held as ``rows``: slices of its CSR."""
    indptr, indices, data = rows.indptr, rows.indices, rows.data

    def blocks(first: int, stop: int):
        for s, e in _chunk_bounds(lambda r: int(indptr[r]), first, stop):
            a, b = indptr[s], indptr[e]
            yield indptr[s:e + 1] - a, indices[a:b], data[a:b]

    return blocks


def _group_blocks(rows: StepRows):
    """The level-block producer of a step sequence held as ``rows``: each
    group's rows in the range, cut to ``_block_rows`` of its level, each cut
    made a fresh copy, as a consumer may write to it."""
    def blocks(first: int, stop: int):
        for tag, level, positions, block in rows.groups:
            lo, hi = np.searchsorted(positions, (first, stop)).tolist()
            for s in range(lo, hi, _block_rows(level)):
                e = min(s + _block_rows(level), hi)
                yield positions[s:e] - first, tag, level, block[s:e].copy

    return blocks


def _block_rows(level: int) -> int:
    """The fewest rows, one at least, whose cells at ``level`` reach
    ``_CHUNK_CELLS``: a block's size."""
    return -(-_CHUNK_CELLS >> level)


def _step_blocks(seq: VectorSequence, limit: StepFunction | None = None, top: int = 0,
                 check: Callable[[int], None] = lambda level: None):
    """The terms of the step sequence ``seq`` less ``limit`` as dense blocks
    ``(rows, tag, level, values)``: row i of ``values``, a fresh array, holds
    the cell values at ``level`` of term ``rows[i] + 1``; a block's rows
    increase; and ``tag`` is a term's tag whose measure all its terms share.
    The blocks are the producer's where ``seq`` has one, else
    ``_term_blocks``'s, cut to ``_block_rows`` of level ``top`` or their own,
    if higher; ``check(level)`` runs, and may refuse, before a block at
    ``level`` is made.  An overflowed difference is refused."""
    _check_cells(seq.length, 1)  # before a block is made, as iterating the terms checks it
    blocks = _term_blocks(seq, check) if seq.blocks is None else seq.blocks(0, seq.length)
    for rows, tag, level, make in blocks:
        check(level)
        values, size = make(), _block_rows(max(level, top))
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
    meet with ``u``, bit for bit ``StepFunction.norm`` of the row.  The sums
    of w * a**p come from one stacked (1 x n) (n x 1) matmul, which numpy
    reduces row by row with the dot of ``np.dot(w, row)`` (``a @ w``, a
    gemv, differs in the last bit), and each root from scalar pow (numpy's
    array power differs from libm's).  A row whose sum is not in
    [MIN_NORMAL, inf) is rescaled by ``_power_step_norm``."""
    if u is not None:
        m = max(level, u.level)
        a, level = np.minimum(_at_level(a, level, m), u.refined(m).values), m
    w, p = tag.measure.weight_array(level), tag.p
    with np.errstate(over="ignore", invalid="ignore"):  # once per block, not once per row
        sums = np.matmul((a if p == 1.0 else a ** p)[:, None, :], w[:, None])[:, 0, 0].tolist()
        if p == 1.0:
            return sums
        r = 1.0 / p
        return [s ** r if MIN_NORMAL <= s < math.inf else _power_step_norm(w, a[i], p)
                for i, s in enumerate(sums)]


#: A row of more values than this goes to ``math.fsum``: ``_exact_row_sums``
#: needs its count**2 exact.
_EXACT_ROW = 2 ** 26


def _exact_row_sums(values: np.ndarray, indptr: np.ndarray,
                    maxima: np.ndarray | None = None) -> np.ndarray:
    """math.fsum of each row ``values[indptr[i]:indptr[i + 1]]``, inf where
    the sum overflows, for rows of values >= 0 that tile ``values`` as a CSR
    does; ``maxima``, when given, holds each row's largest value.

    A row of n values with largest value m is split, as in the error-free
    extraction of Rump, Ogita and Oishi ("Accurate floating-point summation,
    part I", 2008), against the power of two sigma = 2**e > 2 n m (e from
    ``frexp`` of m and of n) into
    hi = (sigma + v) - sigma, v rounded to a multiple of ulp(sigma), and
    lo = v - hi, both exact, with |lo| <= ulp(sigma) / 2.  Every partial sum
    of the his is a multiple of ulp(sigma) below sigma, so T = sum hi is
    exact in any order; s, the float sum of the los, is off by at most
    gamma(n - 1) * n * ulp(sigma) / 2 < n**2 * 2**-104 * sigma =: B.  The
    row returns r = fl(T + s) when the TwoSum residual t = T + s - r keeps
    t - B and t + B strictly inside half the spacing below and above r:
    then the exact sum lies there too, and r is its rounding.  B is taken
    as ``ldexp(n**2, e - 104)``: where that rounds, in the subnormal range,
    the error of s, a multiple of 2**-1074, is at most its rounding, and 0
    where it rounds to 0.  Every other row goes to ``math.fsum``: ties,
    rows whose sigma is past the float range, rows holding inf and rows of
    zeros (whose bound is no smaller than a spacing at 0)."""
    starts, counts = indptr[:-1], np.diff(indptr)
    out = np.zeros(len(counts))
    full = np.flatnonzero(counts)
    if not full.size:
        return out
    at, n = starts[full], counts[full]
    top = np.maximum.reduceat(values, at) if maxima is None else maxima[full]
    e = np.frexp(top)[1] + np.frexp(n.astype(float))[1] + 1
    ok = (e <= 1023) & (top < math.inf) & (n <= _EXACT_ROW)
    sigma = np.repeat(np.ldexp(1.0, np.where(ok, e, 0)), n)
    with np.errstate(over="ignore", invalid="ignore"):  # only in rows left to fsum
        hi = sigma + values
        hi -= sigma
        lo = np.subtract(values, hi, out=sigma)
        big, small = np.add.reduceat(hi, at), np.add.reduceat(lo, at)
        r = big + small
        z = r - big
        t = (big - (r - z)) + (small - z)
        bound = np.ldexp((n * n).astype(float), e - 104)
        ok &= ((2.0 * (t + bound) < np.nextafter(r, math.inf) - r)
               & (2.0 * (t - bound) > np.nextafter(r, -math.inf) - r))
    out[full] = r
    flat = memoryview(values)
    for i in full[~ok].tolist():
        out[i] = _fsum(flat[indptr[i]:indptr[i + 1]])
    return out


def _row_cells(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
    """The indptr of the increasing rows ``rows`` of the CSR ``indptr`` taken
    alone, and the positions of their values: all of them, without a
    gather, when the other rows are empty."""
    counts = indptr[rows + 1] - indptr[rows]
    if counts.sum() == indptr[-1]:
        return np.append(indptr[rows], indptr[-1]), slice(None)
    offsets = np.cumsum(counts) - counts
    cells = np.arange(counts.sum()) + np.repeat(indptr[rows] - offsets, counts)
    return np.append(offsets, counts.sum()), cells


def _row_norms(tag: SpaceTag, indptr: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The norm of each row of the CSR block ``(indptr, a)`` of values >= 0,
    bit for bit ``LatticeVector.norm`` of the row's vector.

    At p = 2 a row's sum of squares is taken of v / max|v| when the plain
    sum is subnormal, zero or overflowed.  A row whose largest square
    fl(big**2) is inf, or whose n squares cannot reach MIN_NORMAL
    (fl(n * fl(big**2)) < MIN_NORMAL, so their exact sum, a multiple of
    2**-1074 below 2**-1022, is its own fsum and subnormal), skips the plain
    sum."""
    starts, ends = indptr[:-1], indptr[1:]
    p = None if tag.kind in ("c0", "linf") else tag.p
    if p == 1.0:
        return _exact_row_sums(a, indptr)
    big = np.zeros(len(starts))
    full = ends > starts
    if a.size:
        big[full] = np.maximum.reduceat(a, starts[full])
    if p is None:
        return big
    if p != 2.0:  # numpy's power may differ from libm's in the last bit
        flat = memoryview(a)
        return np.array([_power_norm(flat[s:e], p) if m else 0.0
                         for s, e, m in zip(starts.tolist(), ends.tolist(), big.tolist())])
    with np.errstate(over="ignore"):
        tops = big * big
        far = (big > 0) & ((tops == math.inf) | ((ends - starts) * tops < MIN_NORMAL))
        near = np.flatnonzero(~far)
        ip, cells = _row_cells(indptr, near)
        sums = _exact_row_sums(np.square(a[cells]), ip, tops[near])
    out = np.zeros(len(big))
    out[near] = np.sqrt(sums)
    # a sum that is subnormal, zero or overflowed is taken of v / max|v|
    far[near] = ~((sums >= MIN_NORMAL) & (sums < math.inf)) & (big[near] > 0)
    redo = np.flatnonzero(far)
    if redo.size:
        ip, cells = _row_cells(indptr, redo)
        r = a[cells] / np.repeat(big[redo], np.diff(ip))
        sums = _exact_row_sums(r * r, ip, np.ones(redo.size))  # each row's max is 1.0
        with np.errstate(over="ignore"):  # an overflowed norm is inf, as in LatticeVector.norm
            out[redo] = big[redo] * np.sqrt(sums)
    return out


def _nonzero(indptr: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR block ``(indptr, a)`` of values >= 0 without its zeros, each
    value kept in its row: a zero adds nothing to a row's sum or max."""
    keep = a > 0.0
    if keep.all():
        return indptr, a
    kept = np.flatnonzero(keep)
    return np.searchsorted(kept, indptr), a[kept]  # a row starts after the values kept before it


def _tail_norms(seq: VectorSequence, limit: Element,
                tests: Sequence[Element] = ()) -> np.ndarray:
    """The (length, max(1, len(tests))) array of the norms of |seq(n) - limit|
    /\\ u for each test u, or of |seq(n) - limit| when no test is given.
    Each term is generated once; sequence models are reduced in CSR chunks
    (``_sparse_norms``, each test a gather from its sorted support), step
    models in dense blocks, and the direct sum as its two parts: its norm is
    the max of theirs.  A table over ``_MAX_CELLS`` cells is refused before it
    is allocated."""
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
    return _sparse_norms(seq, limit, [_support_gather(u) for u in tests])


def _sparse_norms(seq: VectorSequence, limit: LatticeVector,
                  gathers: Sequence[Callable[[np.ndarray], np.ndarray]]) -> np.ndarray:
    """``_tail_norms`` of the sequence model ``seq`` against the tests whose
    values at an array of indices each of ``gathers`` gives, in CSR chunks:
    each row's norm is taken of the nonzero meets alone.  One column is held
    to the budget by ``_sparse_chunks``, more by the caller."""
    blocks = []
    for indptr, indices, a in _sparse_chunks(seq, limit):
        norms = [_row_norms(seq.tag, *_nonzero(indptr, np.minimum(a, gather(indices))))
                 for gather in gathers]
        blocks.append(np.stack(norms or [_row_norms(seq.tag, indptr, a)], axis=1))
    return np.concatenate(blocks)


#: A test is read from a dense column of at most this many slots per key of
#: its sorted support (sentinel included), so the columns' memory is a fixed
#: multiple of the tests' own; a sparser test's support is searched.
_DENSE_RATIO = 64


def _support_gather(u: LatticeVector) -> Callable[[np.ndarray], np.ndarray]:
    """The values of u at an array of indices, 0.0 off its support."""
    keys, values = _sorted_support(u)
    last = keys[:-1].max(initial=0)  # keys[-1] is the sentinel
    if last + 2 > _DENSE_RATIO * len(keys):
        return _searched_gather(keys, values)
    column = np.zeros(last + 2)  # "clip" reads every later index as the last, 0.0
    column[keys[:-1]] = values[:-1]
    return lambda indices: column.take(indices, mode="clip")


def _searched_gather(keys: np.ndarray, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The values at an array of indices of the vector whose sorted support
    is ``(keys, values)`` (``_sorted_support``), 0.0 off it."""
    def gather(indices: np.ndarray) -> np.ndarray:
        at = np.searchsorted(keys, indices)
        return np.where(keys[at] == indices, values[at], 0.0)

    return gather


#: 2**-i at index i, exactly (ldexp), for i <= 1074: past it, 2**-i rounds to 0.0
_POWERS = np.ldexp(1.0, -np.arange(1075))


def _geometric_gather(horizon: int) -> Callable[[np.ndarray], np.ndarray]:
    """The values at an array of indices >= 1 of ``geometric_point(tag,
    horizon)``, in closed form: 2**-i up to min(horizon, 1074), 0.0 past it."""
    last = min(horizon, 1074)
    column = np.append(_POWERS[:last + 1], 0.0)  # "clip" reads every later i as last + 1
    return lambda indices: column.take(indices, mode="clip")


def _parts(seq: VectorSequence) -> tuple[VectorSequence, VectorSequence]:
    """The l1 and the linf part sequences of the direct-sum sequence ``seq``:
    its producer's, or over its terms, each generated once."""
    if seq.blocks is not None:
        return seq.blocks(0, seq.length)
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


def _qip_norms(seq: VectorSequence, limit: Element, horizon: int = DEFAULT_HORIZON):
    """The (length, 1) column || |seq(n) - limit| /\\ e || for the model's quasi-interior
    point e: (2**-n) up to ``horizon`` in c0 and lp, the constant one in step models,
    1 in linf (min(||x||, 1) exactly, on no horizon), (2**-n) (+) 1 in the direct sum.
    In c0 and lp, e_i = 2**-i is computed at each stored index i, so no element is built
    and the meets past index min(horizon, 1074), all 0.0, drop out of every row's norm."""
    if seq.tag.kind == "l1_oplus_linf":
        (left, right), h = _parts(seq), horizon
        return np.maximum(_qip_norms(left, limit.left, h), _qip_norms(right, limit.right, h))
    if seq.tag.kind == "linf":
        return np.minimum(_tail_norms(seq, limit), 1.0)
    if seq.tag.kind == "lp_step":
        return _tail_norms(seq, limit, [quasi_interior_point(seq.tag, horizon)])
    return _sparse_norms(seq, limit, [_geometric_gather(horizon)])


def un_strong_unit(seq: VectorSequence, limit: Element, ts: ToleranceSpec) -> TailReport:
    """``un_tail`` of a linf sequence against its strong unit 1, on no horizon; of a
    direct sum against 0 (+) 1, which is its linf part's, as its l1 part meets 0."""
    check_tags(seq.tag, limit.tag)
    if seq.tag.kind == "l1_oplus_linf":
        seq, limit = _parts(seq)[1], limit.right
    return _table_report("un-tail", _qip_norms(seq, limit), ts, "test_index", {"num_tests": 1})


def un_tail_qip(seq: VectorSequence, limit: Element, ts: ToleranceSpec,
                horizon: int = DEFAULT_HORIZON) -> TailReport:
    """Single-vector un-test against the model's quasi-interior point e: any
    test u >= 0 is approximated by u /\\ (m e), m from ``truncation_index``."""
    if horizon < 1:
        raise ValidationError("qip horizon must be >= 1")
    check_tags(seq.tag, limit.tag)
    return _table_report("un-tail-qip", _qip_norms(seq, limit, horizon), ts, "test_index",
                         {"num_tests": 1, "test_family": "quasi-interior-point",
                          "qip_horizon": horizon})


# ---------------------------------------------------------------------------
# in-measure diagnostic (step models)
# ---------------------------------------------------------------------------

def in_measure_tail(seq: VectorSequence, delta: float, ts: ToleranceSpec) -> TailReport:
    """values[n] = mu{ |seq(n)| > delta }."""
    if seq.tag.kind != "lp_step":
        raise NonStepSequence("in-measure diagnostic needs an lp_step sequence")
    if not 0 < delta <= sys.float_info.max:  # as ToleranceSpec's tol: an int past it too
        raise ValidationError("delta must be finite and > 0")
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
    common refinement is held to the budget before each block is made."""
    n, top = seq.length, 0 if band is None else band.level
    values, level = np.empty(n), 0
    # per level: the (4, 2**level) rows first, min, last, max of its blocks
    per_level: dict[int, np.ndarray] = {}
    masks = []  # (level, zone rows, packed violation mask) of each block that has one
    for rows, _, m, block in _step_blocks(  # n rows at a block's level, or at top
            seq, top=top, check=lambda level: _check_cells(n, 2 ** max(level, top))):
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
    cell pairs.  Each pair is one IEEE a + b of the two strided halves, into
    a contiguous array whose rows numpy then sums pairwise."""
    return prod.sum(axis=1) if prod.shape[1] % 2 else (prod[:, 0::2] + prod[:, 1::2]).sum(axis=1)


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
