"""Named sequence gallery: generators and the pinned verdict table."""

import json
import re
from unittest import mock

import numpy as np
import pytest

from unlattice import convergence, gallery, jsonio, spaces
from unlattice.convergence import (
    ToleranceSpec,
    VectorSequence,
    pointwise_tail,
    sequence_from_list,
    un_tail,
)
from unlattice.errors import RefinementOverflow, TagMismatch, ValidationError
from unlattice.gallery import (
    GALLERY,
    direct_sum_seq,
    direct_sum_witness,
    get_entry,
    list_entries,
    overlap_seq,
    rademacher,
    rademacher_modulated,
    std_units,
    typewriter,
)
from unlattice.constructive import kp_disjointify, kp_disjointify_positive
from unlattice.runner import build_sequence, run_diagnostic
from unlattice.spaces import (
    DirectSumVector,
    LatticeVector,
    MeasureModel,
    StepFunction,
    c0,
    element_to_dict,
    is_disjoint,
    linf,
    elements_from_dicts,
    lp,
    lp_step,
    zero,
)


# ---------------------------------------------------------------------------
# the pinned verdict table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GALLERY))
def test_entry_reproduces_pinned_verdicts(name):
    entry = get_entry(name)
    seq = entry.build()
    for check in entry.checks:
        report = run_diagnostic(seq, check.diagnostic, check.tolerance)
        assert report.verdict == check.verdict, (name, check.diagnostic)


def test_listing_and_lookup():
    assert list_entries() == sorted(GALLERY)
    assert len(GALLERY) == 8
    with pytest.raises(ValidationError):
        get_entry("nope")
    with pytest.raises(ValidationError):
        build_sequence({"gallery": "nope"})


# ---------------------------------------------------------------------------
# generator structure
# ---------------------------------------------------------------------------

def test_std_units_structure():
    seq = std_units(lp(2), 16)
    assert seq.at(5).coords == {5: 1.0}
    assert is_disjoint(seq.at(3), seq.at(7))
    with pytest.raises(ValidationError):
        std_units(lp_step(1))


def test_typewriter_block_layout():
    seq = typewriter(4)
    assert seq.length == 15
    for n in range(1, 16):
        f = seq.at(n)
        k = n.bit_length() - 1
        assert f.level == k
        assert f.norm() == 2.0 ** -k  # one cell of mass 2**-k
        assert f.values.sum() == 1.0
    # same-level blocks are disjoint and sweep the whole interval
    level3 = [seq.at(n) for n in range(8, 16)]
    for i in range(8):
        for j in range(i + 1, 8):
            assert is_disjoint(level3[i], level3[j])
    total = level3[0]
    for f in level3[1:]:
        total = total + f
    assert total.values.tolist() == [1.0] * 8
    with pytest.raises(ValidationError):
        typewriter(0)


def _per_term(seq: VectorSequence) -> VectorSequence:
    """``seq`` without its block producer: its blocks buffer its terms."""
    return VectorSequence(seq.tag, seq.length, seq.at, name=seq.name)


def _rows(blocks) -> list:
    """(row, tag, level, values) of each row of ``blocks``, in row order."""
    out = [(row, tag, level, values.tolist())
           for rows, tag, level, block in blocks for row, values in zip(rows.tolist(), block)]
    return sorted(out, key=lambda r: r[0])


@pytest.mark.parametrize("chunk_cells", [16, 2 ** 16])
@pytest.mark.parametrize("max_level", range(1, 10))
def test_typewriter_blocks_are_the_buffered_terms(max_level, chunk_cells):
    seq = typewriter(max_level)
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        for top in (0, max_level + 1):  # top above every term's level cuts every block
            produced = list(convergence._step_blocks(seq, top=top))
            buffered = list(convergence._step_blocks(_per_term(seq), top=top))
            assert _rows(produced) == _rows(buffered) and len(produced) == len(buffered)
            assert all(tag is seq.tag for _, tag, _, _ in produced)
            for rows, _, level, block in produced:  # increasing rows, one block's size
                assert (np.diff(rows) > 0).all() and block.flags.writeable
                assert (len(rows) - 1) << max(level, top) < chunk_cells


def _chunks(seq: VectorSequence) -> list:
    return list(convergence._sparse_chunks(seq, zero(seq.tag)))


def _same_chunks(produced: list, per_term: list) -> None:
    """Equal chunk for chunk, array for array, bit for bit."""
    assert len(produced) == len(per_term)
    for a, b in zip(produced, per_term):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# 1074 is the last n with 2**-n > 0.0; 1076 terms store 577 977 coordinates,
# several chunks of 2**16
@pytest.mark.parametrize("chunk_cells", [7, 2 ** 16])
@pytest.mark.parametrize("horizon", [1, 2, 64, 1073, 1074, 1076])
def test_overlap_chunks_are_the_per_term_chunks(horizon, chunk_cells):
    seq = overlap_seq(lp(2), horizon)
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        _same_chunks(_chunks(seq), _chunks(_per_term(seq)))


#: (horizon, chunk cells): one chunk, one chunk to the last term, several chunks
UNIT_CHUNKS = [(1, 7), (7, 7), (40, 7), (5, 2 ** 16)]


@pytest.mark.parametrize("horizon, chunk_cells", UNIT_CHUNKS)
@pytest.mark.parametrize("tag", [c0(), lp(1), lp(2), linf()])
def test_unit_chunks_are_the_per_term_chunks(tag, horizon, chunk_cells):
    seq = std_units(tag, horizon)
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        _same_chunks(_chunks(seq), _chunks(_per_term(seq)))


@pytest.mark.parametrize("horizon, chunk_cells", UNIT_CHUNKS)
def test_direct_sum_part_chunks_are_the_per_term_chunks(horizon, chunk_cells):
    seq = direct_sum_seq(horizon)
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        parts = zip(seq.produce(0, seq.length), _per_term(seq).produce(0, seq.length))
        for produced, per_term in parts:
            assert produced.tag is per_term.tag and produced.length == per_term.length
            _same_chunks(_chunks(produced), _chunks(per_term))


@pytest.mark.parametrize("seq", [std_units(c0(), 64), overlap_seq(lp(2), 64)],
                         ids=lambda s: s.name)
def test_limit_chunks_are_cut_and_hold_the_differences(seq):
    # 2000 keys up to 6000, and 1.0 at 5, which cancels term 5's coordinate 5
    rng = np.random.default_rng(5)
    keys = rng.choice(np.arange(1, 6001), 2000, replace=False).tolist()
    coords = dict(zip(keys, rng.uniform(-1.0, 1.0, 2000).tolist()))
    limit = LatticeVector(seq.tag, coords | {5: 1.0})
    with mock.patch.object(convergence, "_CHUNK_CELLS", 4096):
        chunks = list(convergence._sparse_chunks(seq, limit))
        _same_chunks(chunks, list(convergence._sparse_chunks(_per_term(seq), limit)))
    longest = 64 + len(limit.coords)  # a row's own coordinates and the limit's
    assert len(chunks) > 1 and all(indptr[-1] <= 4096 + longest for indptr, _, _ in chunks)
    rows = [dict(zip(indices[s:e].tolist(), a[s:e].tolist()))
            for indptr, indices, a in chunks for s, e in zip(indptr[:-1], indptr[1:])]
    keys, values = convergence._sorted_support(limit)
    for n, row in enumerate(rows, start=1):
        x = seq.at(n)
        diff = (x - limit).coords
        assert [(i, v.hex()) for i, v in row.items()] == [(i, abs(diff[i]).hex()) for i in row]
        assert len(row) == len(diff)
        # the signed differences, one x - L, x or -L each, exact zeros dropped
        chunk = np.array([0, len(x.coords)]), np.array(list(x.coords)), \
            np.array(list(x.coords.values()))
        (indptr, indices, data), = convergence._less_limit([chunk], keys, values)
        assert indptr.tolist() == [0, len(diff)]
        assert sorted(zip(indices.tolist(), map(float.hex, data.tolist()))) == \
            sorted((i, v.hex()) for i, v in diff.items())
    assert len(rows) == seq.length and 5 not in rows[4]


def _per_term_window(seq: VectorSequence, head: int, length: int) -> VectorSequence:
    return VectorSequence(seq.tag, length, lambda n: seq.at(head + n))


@pytest.mark.parametrize("chunk_cells", [7, 2 ** 16])
@pytest.mark.parametrize("head, length", [(0, 3), (1, 5), (60, 4), (1000, 76), (1073, 3),
                                          (1074, 2)])
def test_window_chunks_are_the_per_term_chunks(head, length, chunk_cells):
    literals = [{"tag": {"kind": "lp", "p": 3},
                 "coords": {str(n + k): 0.5 ** k for k in range(n % 5)}}
                for n in range(1, head + length + 1)]  # every fifth term is empty
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        for seq in (overlap_seq(lp(2), head + length), std_units(c0(), head + length),
                    sequence_from_list(elements_from_dicts(literals))):
            window = seq.window(head, length)
            assert window.length == length and window.blocks is not None
            _same_chunks(_chunks(window), _chunks(_per_term_window(seq, head, length)))
        seq = direct_sum_seq(head + length)
        parts = zip(seq.window(head, length).produce(0, length),
                    _per_term_window(seq, head, length).produce(0, length))
        for produced, per_term in parts:
            _same_chunks(_chunks(produced), _chunks(per_term))
        # a step window keeps its producer: its level blocks are the buffered terms'
        steps = _inline_step_literals(np.random.default_rng(head), head + length)
        for seq in (typewriter((head + length).bit_length()),
                    sequence_from_list(elements_from_dicts(steps))):
            window = seq.window(head, length)
            assert window.length == length and window.blocks is not None
            for top in (0, 5):  # top above every term's level cuts every block
                assert (_block_bits(convergence._step_blocks(window, top=top)) == _block_bits(
                    convergence._step_blocks(_per_term_window(seq, head, length), top=top)))


def test_window_refuses_a_range_outside_the_sequence():
    literals = [{"tag": {"kind": "c0"}, "coords": {str(n): 1.0}} for n in range(1, 8)]
    for seq in (std_units(c0(), 7), typewriter(3),
                sequence_from_list(elements_from_dicts(literals)),
                VectorSequence(c0(), 7, lambda n: spaces.unit(c0(), n))):
        assert seq.length == 7
        for head, length in ((5, 10), (-3, 2), (-1, 1), (0, 8), (7, 1)):
            with pytest.raises(ValidationError, match="exceed 1 .. 7"):
                seq.window(head, length)
        for head, length in ((0, 7), (6, 1), (2, 3)):
            window = seq.window(head, length)
            assert [element_to_dict(x) for x in window] == \
                [element_to_dict(seq.at(head + n)) for n in range(1, length + 1)]
            assert run_diagnostic(window, {"name": "norm"}, ToleranceSpec()).values == \
                [seq.at(head + n).norm() for n in range(1, length + 1)]


@pytest.mark.parametrize("chunk_cells", [3, 2 ** 16])
def test_inline_chunks_are_the_per_term_chunks(chunk_cells):
    rng = np.random.default_rng(12)
    literals = [{"tag": {"kind": "c0"},
                 "coords": {str(i): v for i, v in zip(rng.choice(50, 6, replace=False) + 1,
                                                      rng.normal(size=6) * (rng.random(6) < 0.6))}}
                for _ in range(40)]
    rows = elements_from_dicts(literals)
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        _same_chunks(_chunks(sequence_from_list(rows)), _chunks(sequence_from_list(list(rows))))


def _inline_step_literals(rng, count: int) -> list:
    """JSON-parsed step literals at up to two levels above their measure's,
    over a measure written in two equal ways and over its refinement, a
    compatible measure of a tag of its own; some values are -0.0."""
    base = {"kind": "lp_step", "p": 2, "measure": {"level": 1, "weights": [0.25, 0.75]}}
    tags = [base, dict(base, p=2.0),
            dict(base, measure={"level": 2, "weights": [0.125, 0.125, 0.375, 0.375]})]
    literals = []
    for _ in range(count):
        tag = tags[int(rng.integers(len(tags)))]
        level = tag["measure"]["level"] + int(rng.integers(0, 3))
        values = rng.normal(size=2 ** level) * (rng.random(2 ** level) < 0.7)
        values[rng.random(values.size) < 0.1] = -0.0
        literals.append({"tag": tag, "level": level, "values": values.tolist()})
    return json.loads(json.dumps(literals))


def _block_bits(blocks) -> list:
    """(rows, tag id, level, dtype, shape, bytes) of each block, in the order
    of their first rows."""
    return sorted(((rows.tolist(), id(tag), level, block.dtype, block.shape, block.tobytes())
                   for rows, tag, level, block in blocks), key=lambda b: b[0])


@pytest.mark.parametrize("chunk_cells", [8, 64, 2 ** 16])
def test_inline_step_blocks_are_the_buffered_terms(chunk_cells):
    rows = elements_from_dicts(_inline_step_literals(np.random.default_rng(3), 60))
    seq = sequence_from_list(rows)
    assert isinstance(rows, spaces.StepRows) and len(rows.groups) == 6  # 2 tags x 3 levels
    with mock.patch.object(convergence, "_CHUNK_CELLS", chunk_cells):
        checked, produced = [], []
        for block in convergence._step_blocks(seq, check=checked.append):
            assert block[2] in checked  # its level was checked before the block was made
            produced.append(block)
        buffered = list(convergence._step_blocks(_per_term(seq), check=lambda level: None))
        assert _block_bits(produced) == _block_bits(buffered)
        assert (len(produced) > len(rows.groups)) == (chunk_cells < 2 ** 16)
        for _, _, _, block in produced:  # a fresh copy, which the consumer may write to
            assert block.flags.writeable
            assert not any(np.shares_memory(block, group[3]) for group in rows.groups)
        for top in (0, 5):  # top above every term's level cuts every block
            assert (_block_bits(convergence._step_blocks(seq, top=top))
                    == _block_bits(convergence._step_blocks(_per_term(seq), top=top)))


def test_inline_step_diagnostics_make_no_terms():
    seq = build_sequence({"inline": {"elements": _inline_step_literals(
        np.random.default_rng(4), 40)}})
    ts = ToleranceSpec()

    def made(rows, k):
        raise AssertionError(f"element {k} made")

    with mock.patch.object(spaces.StepRows, "__getitem__", made):
        for diag in ({"name": "norm"}, {"name": "un"}, {"name": "un_qip"},
                     {"name": "in_measure", "delta": 0.5},
                     {"name": "weak", "functionals": "step_family"}, {"name": "pointwise"}):
            run_diagnostic(seq, diag, ts)
        with pytest.raises(AssertionError, match="element 0 made"):  # the per-term path
            run_diagnostic(_per_term(seq), {"name": "norm"}, ts)


def _termless(seq: VectorSequence) -> VectorSequence:
    """``seq``, whose terms may not be made one at a time."""
    def at(n):
        raise AssertionError(f"term {n} made")

    return VectorSequence(seq.tag, seq.length, at, seq.name, seq.blocks)


def test_producers_make_no_terms():
    ts = ToleranceSpec()
    literals = [{"tag": {"kind": "c0"}, "coords": {str(n): 1.0}} for n in range(1, 9)]
    decoded = sequence_from_list(elements_from_dicts(literals))
    for seq in (overlap_seq(lp(2), 40), std_units(linf(), 40), direct_sum_seq(40), decoded,
                typewriter(5)):
        seq = _termless(seq)
        for name in ("norm", "un_qip", "pointwise") if seq.tag.is_sequence_kind else ("norm",):
            run_diagnostic(seq, {"name": name}, ts)
        if seq.tag.is_sequence_kind:  # the pairings, of the terms and of their moduli
            for modulus in (False, True):
                run_diagnostic(seq, {"name": "weak", "functionals": "summable_units",
                                     "modulus": modulus}, ts)
    # a nonzero limit is subtracted inside the producer's chunks
    for seq, tag in ((overlap_seq(lp(2), 40), {"kind": "lp", "p": 2}), (decoded, {"kind": "c0"})):
        limit = {"tag": tag, "coords": {"1": 0.5, "3": -1.0, "50": 2.0}}
        for name in ("norm", "un_qip", "un"):
            run_diagnostic(_termless(seq), {"name": name, "limit": limit}, ts)
    # the kp advisory cuts its window with the producer; only the scan makes terms
    made = []
    seq = overlap_seq(lp(2), 400)
    kp_disjointify(VectorSequence(seq.tag, seq.length, lambda n: made.append(n) or seq.at(n),
                                  blocks=seq.blocks), 3, ts)
    assert made == list(range(1, max(made) + 1)) and max(made) < 100
    made.clear()  # a step window too: the tail of typewriter(8) is its terms 192 .. 255
    seq = typewriter(8)
    kp_disjointify_positive(VectorSequence(seq.tag, seq.length,
                                           lambda n: made.append(n) or seq.at(n),
                                           blocks=seq.blocks),
                            2, ToleranceSpec(tol=1e-2, window=64))
    assert made == list(range(1, max(made) + 1)) and max(made) < 192


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_reports_are_those_of_the_per_term_path(name):
    entry = get_entry(name)
    seq = entry.build()
    for check in entry.checks:
        produced = run_diagnostic(seq, check.diagnostic, check.tolerance)
        per_term = run_diagnostic(_per_term(seq), check.diagnostic, check.tolerance)
        assert jsonio.dumps(produced.to_json_dict()) == jsonio.dumps(per_term.to_json_dict())


def test_typewriter_blocks_refuse_a_level_before_making_it():
    seq = typewriter(6)  # 63 terms: level 3 needs 63 x 8 cells
    made = []

    def indicator_rows(level, first, count):
        made.append(level)
        return np.eye(count, 2 ** level, first)

    ts = ToleranceSpec(window=1)
    with mock.patch.object(convergence, "_MAX_CELLS", 31 * 16), \
            mock.patch.object(gallery, "_indicator_rows", indicator_rows):
        for top, last in ((0, 2), (5, None)):
            made.clear()

            def budget(level):  # the common refinement, as the pointwise diagnostic's
                convergence._check_cells(seq.length, 2 ** max(level, top))

            with pytest.raises(ValidationError) as produced:
                list(convergence._step_blocks(seq, top=top, check=budget))
            with pytest.raises(ValidationError) as buffered:
                list(convergence._step_blocks(_per_term(seq), top=top, check=budget))
            assert str(produced.value) == str(buffered.value)
            assert max(made, default=None) == last  # no block of the refused level
        with pytest.raises(ValidationError, match="a 63 x 8 matrix exceeds 496 cells"):
            pointwise_tail(seq, ts)
        assert pointwise_tail(typewriter(5), ts).extras["refinement_level"] == 4


def test_rademacher_structure():
    tag = lp_step(1)
    r2 = rademacher(tag, 2)
    assert r2.values.tolist() == [1.0, -1.0, 1.0, -1.0]
    with pytest.raises(ValidationError, match="level must be >= 1"):
        rademacher(tag, 0)
    with pytest.raises(ValidationError, match="need a step model"):
        rademacher(c0(), 2)
    x = StepFunction(tag, 1, np.array([2.0, 3.0]))
    seq = rademacher_modulated(x, horizon=6)
    for n in range(1, 7):
        assert seq.at(n).abs().approx_eq(x)  # constant modulus
    with pytest.raises(ValidationError):
        rademacher_modulated(StepFunction(tag, 0, np.array([-1.0])))
    with pytest.raises(RefinementOverflow):
        rademacher_modulated(x, horizon=20)


def test_overlap_pairwise_meets():
    seq = overlap_seq(linf(), 16)
    for n in range(2, 10):
        for m in range(n + 1, 12):
            meet = seq.at(n).meet(seq.at(m))
            assert meet.norm() == 2.0 ** -m  # sup-norm meet = 2**-max(n,m)
    assert seq.at(4).coords == {1: 0.0625, 2: 0.0625, 3: 0.0625, 4: 1.0}
    with pytest.raises(ValidationError, match="needs a sequence-space tag"):
        overlap_seq(lp_step(1))


def test_overlap_terms_equal_validated_vectors():
    tag = lp(2)
    seq = overlap_seq(tag, 2000)
    for n in (1, 1074, 1075, 2000):
        coords = {i: 2.0 ** -n for i in range(1, n)}
        coords[n] = 1.0
        expected = LatticeVector(tag, coords)  # drops the coordinates 2**-n == 0.0
        x = seq.at(n)
        assert list(x.coords.items()) == list(expected.coords.items())
        assert x.is_positive() and x.norm() == expected.norm()
    assert len(seq.at(1074).coords) == 1074 and seq.at(1075).coords == {1075: 1.0}
    for build in (lambda: overlap_seq(tag, 4), lambda: std_units(tag, 4), direct_sum_seq):
        with pytest.raises(ValidationError):
            build().at(0)


def test_direct_sum_witness_shape():
    u = direct_sum_witness(horizon=8)
    assert u.left.is_zero()
    assert u.right.coords == {n: 1.0 for n in range(1, 9)}
    seq = direct_sum_seq(8)
    assert seq.at(3).left.coords == {3: 1.0}
    assert seq.at(3).right.coords == {3: 1.0}


WITNESS_UN = {"name": "un", "tests": "direct_sum_witness"}


def test_direct_sum_witness_reads_past_its_horizon():
    # against 0 (+) 1, || |x_n| /\\ u || = min(||right part of x_n||_inf, 1):
    # the witness's horizon of 4096 cuts nothing off
    for horizon in (64, 4096, 8192):
        seq = build_sequence({"gallery": "direct_sum", "params": {"horizon": horizon}})
        report = run_diagnostic(seq, WITNESS_UN, ToleranceSpec()).to_json_dict()
        assert report["verdict"] == "NOT_NULL"
        assert report["values"] == [1.0] * horizon
        assert report["witness"] == {"index": horizon - horizon // 4 + 1, "value": 1.0,
                                     "test_index": 0}
        assert report["extras"] == {"num_tests": 1}
    seq = build_sequence({"gallery": "std_units_c0", "params": {"horizon": 8}})
    with pytest.raises(TagMismatch, match=r"^cannot combine c0 with l1\(\+\)linf$"):
        run_diagnostic(seq, WITNESS_UN, ToleranceSpec())


def test_direct_sum_witness_closed_form_is_the_un_tail():
    # within the witness's horizon the closed form gives un_tail's report, a limit included
    rng = np.random.default_rng(5)
    ts = ToleranceSpec(1e-3)

    def vector(tag, scale):
        size = int(rng.integers(0, 5))
        keys = rng.choice(np.arange(1, 4097), size, replace=False).tolist()
        return LatticeVector(tag, dict(zip(keys, (rng.uniform(-1.5, 1.5, size) * scale).tolist())))

    for _ in range(20):
        scale = float(rng.choice([1e-310, 1e-3, 1.0, 1e308]))
        terms = [DirectSumVector(vector(lp(1), scale), vector(linf(), scale))
                 for _ in range(int(rng.integers(1, 12)))]
        limit = DirectSumVector(vector(lp(1), 1.0), vector(linf(), 1.0))
        seq = sequence_from_list(terms)
        closed = run_diagnostic(seq, dict(WITNESS_UN, limit=element_to_dict(limit)), ts)
        assert closed.to_json_dict() == un_tail(seq, limit, [direct_sum_witness()],
                                                ts).to_json_dict()


def test_direct_sum_un_qip_reads_its_linf_part():
    # e = (2**-n) (+) 1: the l1 part reads NULL, the linf part min(||x_n||, 1) = 1,
    # so the direct sum reads NOT_NULL, as its witness 0 (+) 1 does
    for horizon, index in ((64, 49), (512, 385), (4096, 3073), (8192, 6145)):
        seq = build_sequence({"gallery": "direct_sum", "params": {"horizon": horizon}})
        for diagnostic in ({"name": "un_qip"}, {"name": "un"}):
            report = run_diagnostic(seq, diagnostic, ToleranceSpec())
            assert report.verdict == "NOT_NULL" and report.values == [1.0] * horizon
            assert report.witness == {"index": index, "value": 1.0, "test_index": 0}


def _random_vector(rng, tag):
    keys = rng.choice(np.arange(1, 5001), int(rng.integers(0, 6)), replace=False)
    return LatticeVector(tag, dict(zip(keys.tolist(), rng.uniform(-2.0, 2.0, keys.size).tolist())))


def _random_step(rng, tag):
    level = tag.measure.level + int(rng.integers(0, 3))
    return StepFunction(tag, level, rng.uniform(-2.0, 2.0, 2 ** level))


QIP_MODELS = {
    "c0": lambda rng: _random_vector(rng, c0()),
    "l1": lambda rng: _random_vector(rng, lp(1)),
    "l2": lambda rng: _random_vector(rng, lp(2)),
    "linf": lambda rng: _random_vector(rng, linf()),
    "l2-step": lambda rng: _random_step(rng, lp_step(2, MeasureModel(1, (0.3, 0.7)))),
    "direct_sum": lambda rng: DirectSumVector(_random_vector(rng, lp(1)),
                                              _random_vector(rng, linf())),
}


@pytest.mark.parametrize("model", QIP_MODELS)
def test_un_qip_family_is_the_un_qip_report(model):
    # the "qip" family of un and the un_qip diagnostic read one column: the
    # reports differ only in the quantity and un_qip's two extras
    rng = np.random.default_rng(list(QIP_MODELS).index(model))
    for _ in range(10):
        seq = sequence_from_list([QIP_MODELS[model](rng) for _ in range(int(rng.integers(1, 12)))])
        limit = element_to_dict(QIP_MODELS[model](rng))
        ts = ToleranceSpec(float(rng.choice([1e-6, 1e-3, 0.5])))
        un = run_diagnostic(seq, {"name": "un", "tests": "qip", "limit": limit}, ts).to_json_dict()
        qip = run_diagnostic(seq, {"name": "un_qip", "limit": limit}, ts).to_json_dict()
        assert qip.pop("quantity") == "un-tail-qip"
        assert qip["extras"].pop("test_family") == "quasi-interior-point"
        assert qip["extras"].pop("qip_horizon") == 4096
        assert un == dict(qip, quantity="un-tail")


def test_unknown_test_family_lists_the_known_ones():
    seq = build_sequence({"gallery": "std_units_c0", "params": {"horizon": 8}})
    known = "['qip', 'l1_part_units', 'direct_sum_witness', 'profile']"
    with pytest.raises(ValidationError, match=re.escape(f"unknown family 'nope'; known: {known}")):
        run_diagnostic(seq, {"name": "un", "tests": "nope"}, ToleranceSpec())


def test_gallery_dump_shape():
    entry = get_entry("typewriter")
    assert entry.provenance
    assert all(c.verdict in ("NULL", "NOT_NULL") for c in entry.checks)


def test_build_sequence_gallery_params():
    seq = build_sequence({"gallery": "std_units_c0", "params": {"horizon": 12}})
    assert seq.length == 12
    assert seq.tag == c0()
    seq = build_sequence({"gallery": "typewriter", "params": {"max_level": 4, "p": 2}})
    assert seq.length == 15
    assert seq.tag.p == 2.0
    assert build_sequence({"gallery": "typewriter", "params": {"p": 2}}).tag.p == 2.0
    assert build_sequence({"gallery": "rademacher", "params": None}).length == 10
    for source in (
        {"gallery": "rademacher", "params": {"horizon": 3}},
        {"gallery": "std_units_c0", "params": {"length": 64}},
        {"gallery": "std_units_c0", "params": [["horizon", 12]]},
        {"gallery": "std_units_c0", "params": 12},
        {"gallery": "std_units_c0", "params": {"horizon": "64"}},
        {"gallery": "std_units_c0", "params": {"horizon": None}},
        {"gallery": "typewriter", "params": {"max_level": 4.5}},
        {"gallery": "typewriter", "params": {"p": True}},
        {"gallery": "typewriter", "params": {"max_level": 4}, "surprise": 1},
        {"inline": {"elements": []}, "gallery": "typewriter"},
        {},
    ):
        with pytest.raises(ValidationError):
            build_sequence(source)
