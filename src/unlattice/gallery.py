"""Executable counterexample gallery.

Each entry packages a generator for a named sequence together with the
verdicts it is pinned to: the standard unit vectors in c0 / l1 / l2 / linf,
the l1-in-(l1 (+)_inf linf) direct-sum sequence, the typewriter sequence of
shrinking indicator blocks, Rademacher sign modulation of a fixed positive
step function, and an overlapping stress input for the disjointification
scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .convergence import _MAX_CELLS, ToleranceSpec, VectorSequence, _block_rows
from .errors import RefinementOverflow, ValidationError
from .spaces import (
    DEFAULT_HORIZON,
    MAX_INDEX,
    MAX_REFINE_LEVEL,
    DirectSumVector,
    LatticeVector,
    SpaceTag,
    StepFunction,
    c0,
    linf,
    lp,
    lp_step,
    ones,
    zero,
)

DEFAULT_SEQ_HORIZON = 1024
DEFAULT_TYPEWRITER_LEVELS = 10
DEFAULT_RADEMACHER_TERMS = 10


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _index(n: int) -> int:
    """A generator's term index, which is also a coordinate index."""
    if not 1 <= n < MAX_INDEX:
        raise ValidationError("term indices must be >= 1 and < 2**62")
    return n


def _unit(tag: SpaceTag, n: int) -> LatticeVector:
    return LatticeVector._trusted(tag, {_index(n): 1.0})


def std_units(tag: SpaceTag, horizon: int = DEFAULT_SEQ_HORIZON) -> VectorSequence:
    """seq(n) = e_n, the standard unit sequence."""
    if not tag.is_sequence_kind:
        raise ValidationError("std_units needs a sequence-space tag")
    return VectorSequence(tag, horizon, lambda n: _unit(tag, n),
                          name=f"std_units_{tag.describe()}")


def direct_sum_seq(horizon: int = DEFAULT_SEQ_HORIZON) -> VectorSequence:
    """seq(n) = f_n (+) g_n with f_n the l1 units and g_n the linf units."""
    l1, sup = lp(1), linf()

    def at(n: int) -> DirectSumVector:
        return DirectSumVector(_unit(l1, n), _unit(sup, n))

    return VectorSequence(SpaceTag("l1_oplus_linf"), horizon, at, name="direct_sum")


def direct_sum_witness(horizon: int = DEFAULT_HORIZON) -> DirectSumVector:
    """u = 0 (+) 1, the test vector that pins the direct-sum sequence down."""
    return DirectSumVector(zero(lp(1)), ones(linf(), horizon))


def typewriter(max_level: int = DEFAULT_TYPEWRITER_LEVELS,
               p: float = 1.0) -> VectorSequence:
    """Shrinking indicator blocks sweeping [0,1).

    Term n (with 2**k <= n < 2**(k+1)) is the indicator of the dyadic cell
    [(n - 2**k) / 2**k, (n - 2**k + 1) / 2**k); levels k = 0 .. max_level-1
    give 2**max_level - 1 terms.  The support mass of term n is 2**-k.  Over
    ``_MAX_CELLS`` terms are refused before 2**max_level is computed.
    """
    if max_level < 1:
        raise ValidationError("max_level must be >= 1")
    if max_level > _MAX_CELLS.bit_length() or 2 ** max_level - 1 > _MAX_CELLS:
        raise ValidationError(f"typewriter max_level {max_level} gives over "
                              f"{_MAX_CELLS} terms")
    tag = lp_step(p)
    length = 2 ** max_level - 1

    def at(n: int) -> StepFunction:
        k = n.bit_length() - 1  # 2**k <= n < 2**(k+1)
        cell = n - 2 ** k
        v = np.zeros(2 ** k)
        v[cell] = 1.0
        return StepFunction._trusted(tag, k, v)

    def blocks(check):
        # the terms 2**k .. 2**(k+1) - 1 of level k are the rows of the 2**k identity
        for k in range(max_level):
            check(k)
            size = _block_rows(k)
            for first in range(0, 2 ** k, size):
                count = min(size, 2 ** k - first)
                rows = np.arange(2 ** k - 1 + first, 2 ** k - 1 + first + count)
                yield rows, tag, k, _indicator_rows(k, first, count)

    return VectorSequence(tag, length, at, name="typewriter", blocks=blocks)


def _indicator_rows(level: int, first: int, count: int) -> np.ndarray:
    """Rows ``first`` .. ``first + count - 1`` of the 2**level identity: the
    indicators of those cells at ``level``."""
    return np.eye(count, 2 ** level, first)


def rademacher(tag: SpaceTag, level: int) -> StepFunction:
    """The level-n Rademacher function: +-1 alternating on 2**n cells."""
    if level < 1:
        raise ValidationError("Rademacher level must be >= 1")
    if tag.kind != "lp_step" or level < tag.measure.level:
        raise ValidationError("Rademacher functions need a step model of at most their level")
    v = np.where(np.arange(2 ** level) % 2 == 0, 1.0, -1.0)
    return StepFunction._trusted(tag, level, v)


def rademacher_modulated(x: StepFunction,
                         horizon: int = DEFAULT_RADEMACHER_TERMS) -> VectorSequence:
    """seq(n) = x * r_n; the moduli are all equal to x while signs cancel."""
    if not x.is_positive():
        raise ValidationError("the modulated profile must be >= 0")
    if x.level + horizon > MAX_REFINE_LEVEL:
        raise RefinementOverflow(
            f"horizon {horizon} over level-{x.level} profile exceeds the "
            f"maximum refinement level {MAX_REFINE_LEVEL}"
        )
    return VectorSequence(x.tag, horizon, lambda n: x * rademacher(x.tag, n),
                          name="rademacher_modulated")


def overlap_seq(tag: SpaceTag, horizon: int = DEFAULT_SEQ_HORIZON) -> VectorSequence:
    """x_n = e_n + 2**-n (e_1 + ... + e_{n-1}): un-null but nowhere disjoint."""
    if not tag.is_sequence_kind:
        raise ValidationError("overlap_seq needs a sequence-space tag")

    def at(n: int) -> LatticeVector:
        w = 2.0 ** -_index(n)  # 0.0 past n = 1074: those coordinates vanish
        coords = dict.fromkeys(range(1, n), w) if w else {}
        coords[n] = 1.0
        return LatticeVector._trusted(tag, coords)

    return VectorSequence(tag, horizon, at, name=f"overlap_{tag.describe()}")


# ---------------------------------------------------------------------------
# the verdict table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectedCheck:
    """One diagnostic run with its pinned verdict (see runner.run_diagnostic)."""

    diagnostic: dict
    verdict: str
    tolerance: ToleranceSpec = ToleranceSpec()


@dataclass(frozen=True)
class GalleryEntry:
    """A named sequence; ``build``'s keyword parameters are the entry's params
    (``runner.bind`` checks them), and it looks the generators up in this module
    at call time, so that a generator rebound here (e.g. for tracing) runs."""

    name: str
    provenance: str
    build: Callable[..., VectorSequence]
    checks: tuple[ExpectedCheck, ...] = field(default_factory=tuple)


def _rademacher_profile() -> StepFunction:
    # fixed level-2 positive profile; ||x||_1 = 1.25
    return StepFunction(lp_step(1), 2, np.array([2.0, 1.0, 1.0, 1.0]))


def _build_entries() -> dict[str, GalleryEntry]:
    ts = ToleranceSpec()
    tw = ToleranceSpec(tol=1e-2, window=256)
    units_checks = (
        ExpectedCheck({"name": "un_qip"}, "NULL", ts),
        ExpectedCheck({"name": "norm"}, "NOT_NULL", ts),
        ExpectedCheck({"name": "pointwise"}, "NULL", ts),
    )
    entries = [
        GalleryEntry(
            "std_units_c0", "disjoint units are un-null in c0",
            lambda horizon=DEFAULT_SEQ_HORIZON: std_units(c0(), horizon),
            units_checks,
        ),
        GalleryEntry(
            "std_units_l1", "units are un-null but not norm-null in l1",
            lambda horizon=DEFAULT_SEQ_HORIZON: std_units(lp(1), horizon),
            units_checks,
        ),
        GalleryEntry(
            "std_units_l2", "units are un-null but not norm-null in l2",
            lambda horizon=DEFAULT_SEQ_HORIZON: std_units(lp(2), horizon),
            units_checks,
        ),
        GalleryEntry(
            "std_units_linf", "a disjoint sequence need not be un-null",
            lambda horizon=DEFAULT_SEQ_HORIZON: std_units(linf(), horizon),
            (
                ExpectedCheck({"name": "un_qip"}, "NOT_NULL", ts),
                ExpectedCheck({"name": "norm"}, "NOT_NULL", ts),
            ),
        ),
        GalleryEntry(
            "direct_sum",
            "un-null inside the l1 copy, not un-null in the whole direct sum",
            lambda horizon=DEFAULT_SEQ_HORIZON: direct_sum_seq(horizon),
            (
                ExpectedCheck({"name": "un", "tests": "l1_part_units"}, "NULL", ts),
                ExpectedCheck({"name": "un", "tests": "direct_sum_witness"},
                              "NOT_NULL", ts),
                ExpectedCheck({"name": "norm"}, "NOT_NULL", ts),
            ),
        ),
        GalleryEntry(
            "typewriter", "null in measure yet nowhere settling cellwise",
            lambda max_level=DEFAULT_TYPEWRITER_LEVELS, p=1.0: typewriter(max_level, p),
            (
                ExpectedCheck({"name": "in_measure", "delta": 0.5}, "NULL", tw),
                ExpectedCheck({"name": "pointwise"}, "NOT_NULL", tw),
                ExpectedCheck({"name": "un_qip"}, "NULL", tw),
            ),
        ),
        GalleryEntry(
            "rademacher", "weakly null against step functionals, constant modulus",
            lambda: rademacher_modulated(_rademacher_profile()),
            (
                ExpectedCheck({"name": "weak", "functionals": "step_family"},
                              "NULL", ToleranceSpec(tol=1e-12, window=2)),
                ExpectedCheck({"name": "weak", "functionals": "constant_one",
                               "modulus": True}, "NOT_NULL", ts),
                ExpectedCheck({"name": "un", "tests": "profile"}, "NOT_NULL", ts),
            ),
        ),
        GalleryEntry(
            "overlap_l2", "un-null overlap stress input for disjointification",
            lambda horizon=DEFAULT_SEQ_HORIZON: overlap_seq(lp(2), horizon),
            (
                ExpectedCheck({"name": "un_qip"}, "NULL", ts),
                ExpectedCheck({"name": "pointwise"}, "NULL", ts),
            ),
        ),
    ]
    return {e.name: e for e in entries}


GALLERY: dict[str, GalleryEntry] = _build_entries()


def get_entry(name: str) -> GalleryEntry:
    try:
        return GALLERY[name]
    except KeyError:
        raise ValidationError(f"unknown gallery entry {name!r}") from None


def list_entries() -> list[str]:
    return sorted(GALLERY)
