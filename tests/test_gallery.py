"""Named sequence gallery: generators and the pinned verdict table."""

from unittest import mock

import numpy as np
import pytest

from unlattice import convergence, gallery
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
from unlattice.runner import build_sequence, run_diagnostic
from unlattice.spaces import (
    DirectSumVector,
    LatticeVector,
    StepFunction,
    c0,
    element_to_dict,
    is_disjoint,
    linf,
    lp,
    lp_step,
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
            with pytest.raises(ValidationError) as produced:
                list(convergence._step_blocks(seq, top=top, budget=True))
            with pytest.raises(ValidationError) as buffered:
                list(convergence._step_blocks(_per_term(seq), top=top, budget=True))
            assert str(produced.value) == str(buffered.value)
            assert max(made, default=None) == last  # no block of the refused level
        with pytest.raises(ValidationError, match="a 63 x 8 matrix exceeds 496 cells"):
            pointwise_tail(seq, ts)
        assert pointwise_tail(typewriter(5), ts).extras["refinement_level"] == 4


def test_rademacher_structure():
    tag = lp_step(1)
    r2 = rademacher(tag, 2)
    assert r2.values.tolist() == [1.0, -1.0, 1.0, -1.0]
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
