"""Concrete vector-lattice models.

Three element families are provided:

* ``LatticeVector`` -- finitely supported real sequences, the elements of the
  c0 / lp / l-infinity models (sparse storage, 1-based indices);
* ``StepFunction`` -- dyadic step functions on [0,1) with per-cell measure
  weights, the elements of the Lp(mu) step models (dense storage);
* ``DirectSumVector`` -- pairs (l1-part, linf-part) under the max norm.

All values are immutable after construction and every operation is a pure
function, so elements are safe to share freely.

Data is validated where it enters: the public constructors check every
element, tag and measure.  Operations on valid elements build their results
through the private ``_trusted`` constructors, which skip the checks the
result passes by construction; an operation that can overflow, underflow to
zero or produce a zero coordinate goes through ``_checked`` instead.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import NegativeInput, TagMismatch, ValidationError

#: Default working horizon for "infinite" sequence-space objects.
DEFAULT_HORIZON = 4096

#: Default maximum dyadic refinement level for step functions.
MAX_REFINE_LEVEL = 14

#: The smallest normal float: a power sum below it has lost precision.
MIN_NORMAL = 2.0 ** -1022

#: Coordinate indices are below this bound, which fits numpy's int64.
MAX_INDEX = 2 ** 62


# ---------------------------------------------------------------------------
# measures and space tags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureModel:
    """Finite measure on the 2**level dyadic cells of [0,1)."""

    level: int
    weights: tuple[float, ...]
    #: level -> read-only cell weights at that level, filled on first use
    _arrays: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.level < 0:
            raise ValidationError("measure level must be >= 0")
        if not _is_power_length(len(self.weights), self.level):
            raise ValidationError("measure needs 2**level cell weights")
        if any(w < 0 or not math.isfinite(w) for w in self.weights):
            raise ValidationError("cell weights must be finite and >= 0")
        if not sum(self.weights) > 0:
            raise ValidationError("total mass must be positive")

    @classmethod
    def lebesgue(cls, level: int) -> "MeasureModel":
        return cls(level, (2.0 ** -level,) * 2 ** level)

    @classmethod
    def _trusted(cls, level: int, w: np.ndarray) -> "MeasureModel":
        """The measure of ``w``, a fresh array of 2**level finite weights >= 0
        with positive total mass, which becomes read-only."""
        w.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "level", level)
        object.__setattr__(m, "weights", tuple(w.tolist()))
        object.__setattr__(m, "_arrays", {level: w})
        return m

    def refined(self, level: int) -> "MeasureModel":
        """Split each cell into equal-mass children down to ``level``."""
        if level < self.level:
            raise ValidationError("cannot coarsen a measure")
        if level == self.level:
            return self
        factor = 2 ** (level - self.level)
        w = np.repeat(self.weight_array(self.level) / factor, factor)
        if not w.any():  # splitting can underflow subnormal weights to zero
            raise ValidationError("total mass must be positive")
        return MeasureModel._trusted(level, w)

    def weight_array(self, level: int) -> np.ndarray:
        """The cell weights at ``level``, read-only; one array per level."""
        w = self._arrays.get(level)
        if w is None:
            if level == self.level:
                w = np.array(self.weights, dtype=float)
                w.setflags(write=False)
            else:
                w = self.refined(level).weight_array(level)
            self._arrays[level] = w
        return w


def _is_power_length(n: int, level: int) -> bool:
    """Whether n == 2**level, for a level >= 0; a huge level is told by bit
    length, without building 2**level."""
    return n.bit_length() == level + 1 and n == 1 << level


@dataclass(frozen=True)
class SpaceTag:
    """Ambient-space tag; two elements combine only if their tags agree."""

    kind: str  # "c0" | "lp" | "linf" | "lp_step" | "l1_oplus_linf"
    p: float | None = None
    measure: MeasureModel | None = None

    def __post_init__(self):
        if self.kind not in ("c0", "lp", "linf", "lp_step", "l1_oplus_linf"):
            raise ValidationError(f"unknown space kind {self.kind!r}")
        if self.kind in ("lp", "lp_step"):
            if self.p is None or not 1 <= self.p < math.inf:
                raise ValidationError("lp spaces need a finite p >= 1")
        elif self.p is not None:
            raise ValidationError(f"{self.kind} takes no exponent")
        if self.kind == "lp_step":
            if self.measure is None:
                raise ValidationError("lp_step needs a MeasureModel")
        elif self.measure is not None:
            raise ValidationError(f"{self.kind} takes no measure")

    @property
    def is_sequence_kind(self) -> bool:
        return self.kind in ("c0", "lp", "linf")

    def describe(self) -> str:
        if self.kind == "lp":
            return f"l{self.p:g}"
        if self.kind == "lp_step":
            return f"L{self.p:g}-step(level={self.measure.level})"
        return {"c0": "c0", "linf": "linf", "l1_oplus_linf": "l1(+)linf"}[self.kind]


def c0() -> SpaceTag:
    return SpaceTag("c0")


def lp(p: float) -> SpaceTag:
    return SpaceTag("lp", p=float(p))


def linf() -> SpaceTag:
    return SpaceTag("linf")


def lp_step(p: float, measure: MeasureModel | None = None, level: int = 0) -> SpaceTag:
    if measure is None:
        measure = MeasureModel.lebesgue(level)
    return SpaceTag("lp_step", p=float(p), measure=measure)


def direct_sum() -> SpaceTag:
    return SpaceTag("l1_oplus_linf")


def _step_tags_compatible(a: SpaceTag, b: SpaceTag) -> bool:
    if a.p != b.p:
        return False
    ma, mb = a.measure, b.measure
    if ma is mb:
        return True
    level = max(ma.level, mb.level)
    return np.array_equal(ma.weight_array(level), mb.weight_array(level))


def check_tags(a: SpaceTag, b: SpaceTag) -> None:
    if a is b:
        return
    if a.kind != b.kind:
        raise TagMismatch(f"cannot combine {a.describe()} with {b.describe()}")
    if a.kind == "lp_step":
        if not _step_tags_compatible(a, b):
            raise TagMismatch("step-function measures are not refinement-compatible")
    elif a != b:
        raise TagMismatch(f"cannot combine {a.describe()} with {b.describe()}")


# ---------------------------------------------------------------------------
# operations common to the element families
# ---------------------------------------------------------------------------

class _ElementOps:
    """Operations shared by the element families, written over their own
    ``scale``, ``__sub__`` and ``norm``."""

    def __neg__(self):
        return self.scale(-1.0)

    def __mul__(self, a: float):
        return self.scale(a)

    __rmul__ = __mul__

    def approx_eq(self, other, tol: float = 1e-12) -> bool:
        d = self - other
        scale = 1.0 + self.norm() + other.norm()
        return d.norm() <= tol * scale


# ---------------------------------------------------------------------------
# sequence-space vectors
# ---------------------------------------------------------------------------

def _clean_coords(coords: Mapping) -> tuple[dict[int, float], bool]:
    """Validated nonzero coordinates, and whether all of them are positive.
    Each entry is converted once; of two keys that name one index ("1" and
    "01"), the later entry wins, a later zero included."""
    out = {}
    for i, v in coords.items():
        i = int(i)
        v = float(v)
        if not 1 <= i < MAX_INDEX:
            raise ValidationError("coordinate indices must be >= 1 and < 2**62")
        if not math.isfinite(v):
            raise ValidationError("coordinates must be finite")
        if v != 0.0:
            out[i] = v
        elif i in out:
            del out[i]
    return out, not out or min(out.values()) > 0.0


@dataclass(frozen=True, eq=False)
class LatticeVector(_ElementOps):
    """Finitely supported vector in a tagged sequence space."""

    tag: SpaceTag
    coords: dict[int, float] = field(default_factory=dict)
    #: every stored coordinate is > 0; __post_init__ clears it per instance
    #: (a class default spares the common positive case a second attribute write)
    _positive = True

    def __post_init__(self):
        if not self.tag.is_sequence_kind:
            raise ValidationError("LatticeVector requires a sequence-space tag")
        coords, positive = _clean_coords(self.coords)
        object.__setattr__(self, "coords", coords)
        if not positive:
            object.__setattr__(self, "_positive", False)

    @classmethod
    def _trusted(cls, tag: SpaceTag, coords: dict[int, float],
                 positive: bool = True) -> "LatticeVector":
        """A vector of valid parts: nonzero finite floats at int indices >= 1."""
        x = object.__new__(cls)
        object.__setattr__(x, "tag", tag)
        object.__setattr__(x, "coords", coords)
        if not positive:
            object.__setattr__(x, "_positive", False)
        return x

    @classmethod
    def _checked(cls, tag: SpaceTag, coords: dict[int, float]) -> "LatticeVector":
        """The vector of float results at valid indices: zeros are dropped,
        and a value that overflowed (or a nan scale) raises."""
        out = {}
        positive = True
        for i, v in coords.items():
            if v:
                if not -math.inf < v < math.inf:
                    raise ValidationError("coordinates must be finite")
                out[i] = v
                if v < 0.0:
                    positive = False
        return cls._trusted(tag, out, positive)

    # -- basic access ------------------------------------------------------

    def __getitem__(self, i: int) -> float:
        return self.coords.get(i, 0.0)

    @property
    def support(self) -> set[int]:
        return set(self.coords)

    def is_zero(self) -> bool:
        return not self.coords

    # -- arithmetic ----------------------------------------------------------

    def _zip(self, other: "LatticeVector", fn) -> "LatticeVector":
        check_tags(self.tag, other.tag)
        a, b = self.coords, other.coords
        return LatticeVector._checked(
            self.tag, {i: fn(a.get(i, 0.0), b.get(i, 0.0)) for i in a.keys() | b.keys()})

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def scale(self, a: float) -> "LatticeVector":
        a = float(a)
        return LatticeVector._checked(self.tag, {i: a * v for i, v in self.coords.items()})

    # -- lattice structure ---------------------------------------------------

    def meet(self, other):
        check_tags(self.tag, other.tag)
        if self._positive and other._positive:
            # positive meets live on the support intersection
            a, b = self.coords, other.coords
            if len(b) < len(a):
                a, b = b, a
            return LatticeVector._trusted(
                self.tag, {i: min(v, b[i]) for i, v in a.items() if i in b}
            )
        return self._zip(other, min)

    def join(self, other):
        return self._zip(other, max)

    def abs(self):
        return LatticeVector._trusted(
            self.tag, {i: math.fabs(v) for i, v in self.coords.items()})

    def pos(self):
        return LatticeVector._trusted(
            self.tag, {i: v for i, v in self.coords.items() if v > 0})

    def neg(self):
        return LatticeVector._trusted(
            self.tag, {i: -v for i, v in self.coords.items() if v < 0})

    def leq(self, other, slack: float = 0.0) -> bool:
        check_tags(self.tag, other.tag)
        keys = self.coords.keys() | other.coords.keys()
        return all(self[i] <= other[i] + slack for i in keys)

    def is_positive(self, slack: float = 0.0) -> bool:
        if self._positive and slack >= 0:
            return True
        return all(v >= -slack for v in self.coords.values())

    # -- norm ----------------------------------------------------------------

    def norm(self) -> float:
        return _vector_norm(self.tag, self.coords.values())

    def _abs_meet_norm(self, other: "LatticeVector") -> float:
        """|| |self| /\\ |other| ||, for an ``other`` whose tag the caller has
        checked: the gauge of the un-topology when other >= 0.  Each family
        computes it in one pass, with no modulus or meet element built."""
        a, b = self.coords, other.coords
        if len(b) < len(a):
            a, b = b, a
        return _vector_norm(self.tag, [min(math.fabs(v), math.fabs(b[i]))
                                       for i, v in a.items() if i in b])

    def _riesz(self, u: "LatticeVector", v: "LatticeVector"):
        """The Riesz kernel of |self| = u + v, for u, v >= 0 whose tags the
        caller has checked: the defect || |self| - (u + v) ||, the least
        value of part d (0.0 when no value is negative) and the parts
        (a, b, c, d, y, z) of ``riesz_decompose``, in one pass over the union
        of the supports.  Every float is the one the chain of element
        operations gives; b carries u's tag, the other parts self's."""
        xs, us, vs = self.coords, u.coords, v.coords
        defect, a, b, c, d, y, z = [], {}, {}, {}, {}, {}, {}
        d_min, y_positive, z_positive = 0.0, True, True
        for i in xs.keys() | us.keys() | vs.keys():
            xi, ui = xs.get(i, 0.0), us.get(i, 0.0)
            s = ui + vs.get(i, 0.0)
            if s == math.inf:
                raise ValidationError("coordinates must be finite")
            e = math.fabs(xi) - s
            if e:
                defect.append(e)
            xp = xi if xi > 0.0 else 0.0
            xm = -xi if xi < 0.0 else 0.0
            ai = min(xp, ui)
            bi = ui - ai
            ci = xp - ai
            di = xm - bi
            yi = ai - bi
            zi = ci - di
            if ai:
                a[i] = ai
            if bi:
                b[i] = bi
            if ci:
                c[i] = ci
            if di:
                d[i] = di
                if di < d_min:
                    d_min = di
            if yi:
                y[i] = yi
                if yi < 0.0:
                    y_positive = False
            if zi:
                z[i] = zi
                if zi < 0.0:
                    z_positive = False
        tag, new = self.tag, LatticeVector._trusted
        return _vector_norm(tag, defect), d_min, (
            new(tag, a), new(u.tag, b), new(tag, c), new(tag, d, d_min == 0.0),
            new(tag, y, y_positive), new(tag, z, z_positive))


def _vector_norm(tag: SpaceTag, values) -> float:
    """The norm in the sequence space ``tag`` of the vector whose nonzero
    coordinates are ``values``, a collection that can be read twice."""
    if not values:
        return 0.0
    if tag.kind in ("c0", "linf"):
        return max(math.fabs(v) for v in values)
    p = tag.p
    if p == 1.0:
        return _fsum(math.fabs(v) for v in values)
    return _power_norm(values, p)


def _fsum(values) -> float:
    """math.fsum of ``values``, or inf when the sum overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _power_norm(values, p: float) -> float:
    """(sum |v|**p)**(1/p) for p > 1 over ``values``, not all zero."""
    big, s = 1.0, _power_sum(values, p)
    if not MIN_NORMAL <= s < math.inf:
        # the sum is subnormal, zero or overflowed: sum the powers of v / max|v|
        big = max(math.fabs(v) for v in values)
        s = _power_sum([v / big for v in values], p)
    return big * (math.sqrt(s) if p == 2.0 else s ** (1.0 / p))


def _power_sum(values, p: float) -> float:
    """sum |v|**p, or inf when a power or the sum overflows."""
    if p == 2.0:
        return _fsum(v * v for v in values)
    return _fsum(math.fabs(v) ** p for v in values)


def unit(tag: SpaceTag, n: int) -> LatticeVector:
    """Standard unit vector e_n."""
    return LatticeVector(tag, {n: 1.0})


def ones(tag: SpaceTag, horizon: int = DEFAULT_HORIZON) -> LatticeVector:
    """The vector 1 on the coordinates 1 .. horizon."""
    if not tag.is_sequence_kind:
        raise ValidationError("LatticeVector requires a sequence-space tag")
    return LatticeVector._trusted(tag, dict.fromkeys(range(1, horizon + 1), 1.0))


# ---------------------------------------------------------------------------
# dyadic step functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StepFunction(_ElementOps):
    """Dyadic step function on [0,1); values[i] on cell [i/2**L, (i+1)/2**L)."""

    tag: SpaceTag
    level: int
    values: np.ndarray

    def __post_init__(self):
        if self.tag.kind != "lp_step":
            raise ValidationError("StepFunction requires an lp_step tag")
        object.__setattr__(self, "values", _step_values(self.tag, self.level, self.values))

    @classmethod
    def _trusted(cls, tag: SpaceTag, level: int, values: np.ndarray) -> "StepFunction":
        """A step function of valid parts; ``values`` is a fresh finite float
        array of 2**level entries, which becomes read-only."""
        values.setflags(write=False)
        f = object.__new__(cls)
        object.__setattr__(f, "tag", tag)
        object.__setattr__(f, "level", level)
        object.__setattr__(f, "values", values)
        return f

    @classmethod
    def _checked(cls, tag: SpaceTag, level: int, values: np.ndarray) -> "StepFunction":
        """As ``_trusted``, for values that may have overflowed."""
        if not np.isfinite(values).all():
            raise ValidationError("values must be finite")
        return cls._trusted(tag, level, values)

    # -- refinement ----------------------------------------------------------

    def refined(self, level: int) -> "StepFunction":
        if level < self.level:
            raise ValidationError("cannot coarsen a step function")
        if level == self.level:
            return self
        return StepFunction._trusted(self.tag, level, _repeat(self.values, self.level, level))

    def _aligned(self, other: "StepFunction"):
        """The common level and both operands' values refined to it."""
        check_tags(self.tag, other.tag)
        level = max(self.level, other.level)
        return level, self.refined(level).values, other.refined(level).values

    def _zip(self, other: "StepFunction", fn):
        level, a, b = self._aligned(other)
        with np.errstate(over="ignore", invalid="ignore"):  # _checked rejects the result
            values = fn(a, b)
        return StepFunction._checked(self.tag, level, values)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._zip(other, np.add)

    def __sub__(self, other):
        return self._zip(other, np.subtract)

    def scale(self, a: float):
        with np.errstate(over="ignore", invalid="ignore"):  # _checked rejects the result
            values = float(a) * self.values
        return StepFunction._checked(self.tag, self.level, values)

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return self._zip(other, np.multiply)  # pointwise product
        return self.scale(other)

    __rmul__ = __mul__

    # -- lattice structure ---------------------------------------------------

    def meet(self, other):
        level, a, b = self._aligned(other)
        return StepFunction._trusted(self.tag, level, np.minimum(a, b))

    def join(self, other):
        level, a, b = self._aligned(other)
        return StepFunction._trusted(self.tag, level, np.maximum(a, b))

    def abs(self):
        return StepFunction._trusted(self.tag, self.level, np.abs(self.values))

    def pos(self):
        return StepFunction._trusted(self.tag, self.level, np.maximum(self.values, 0.0))

    def neg(self):
        return StepFunction._trusted(self.tag, self.level, np.maximum(-self.values, 0.0))

    def leq(self, other, slack: float = 0.0) -> bool:
        _, a, b = self._aligned(other)
        return bool((a <= b + slack).all())

    def is_positive(self, slack: float = 0.0) -> bool:
        return bool((self.values >= -slack).all())

    def is_zero(self) -> bool:
        return not self.values.any()

    # -- measure-aware quantities ---------------------------------------------

    def weights(self) -> np.ndarray:
        return self.tag.measure.weight_array(self.level)

    def norm(self) -> float:
        return _step_norm(self.weights(), np.abs(self.values), self.tag.p)

    def _abs_meet_norm(self, other: "StepFunction") -> float:
        # as LatticeVector._abs_meet_norm; only the coarser operand is refined
        level = max(self.level, other.level)
        a = _repeat(np.abs(self.values), self.level, level)
        b = _repeat(np.abs(other.values), other.level, level)
        return _step_norm(self.tag.measure.weight_array(level), np.minimum(a, b), self.tag.p)

    def _riesz(self, u: "StepFunction", v: "StepFunction"):
        """As ``LatticeVector._riesz``, in numpy over the operands refined
        once: the defect at the level of x, u and v, the parts at the level of
        x and u, as the chain of element operations refines them."""
        check_tags(u.tag, v.tag)  # u + v checks it
        top = max(self.level, u.level, v.level)
        with np.errstate(over="ignore"):  # an overflowed sum is refused below
            s = _repeat(u.values, u.level, top) + _repeat(v.values, v.level, top)
        if not np.isfinite(s).all():
            raise ValidationError("values must be finite")
        e = np.abs(_repeat(np.abs(self.values), self.level, top) - s)
        level = max(self.level, u.level)
        x = _repeat(self.values, self.level, level)
        xp, xm = np.maximum(x, 0.0), np.maximum(-x, 0.0)
        uu = _repeat(u.values, u.level, level)
        a = np.minimum(xp, uu)
        b = uu - a
        c = xp - a
        d = xm - b
        tag, new = self.tag, StepFunction._trusted
        return _step_norm(tag.measure.weight_array(top), e, tag.p), float(d.min()), (
            new(tag, level, a), new(u.tag, level, b), new(tag, level, c), new(tag, level, d),
            new(tag, level, a - b), new(tag, level, c - d))

    def measure_where(self, predicate) -> float:
        """Total mass of the cells whose value satisfies ``predicate``."""
        mask = predicate(self.values)
        return float(self.weights()[mask].sum())


def _repeat(values: np.ndarray, level: int, to: int) -> np.ndarray:
    """The cell values ``values`` at ``level`` refined to ``to`` >= level;
    ``values`` itself when the levels agree."""
    return values if to == level else np.repeat(values, 2 ** (to - level))


def _step_values(tag: SpaceTag, level: int, values, ndim: int = 1) -> np.ndarray:
    """``values`` as a fresh read-only float array, once the rules of a step
    function at ``level`` on ``tag`` hold: one function's values (``ndim`` 1),
    or a block of rows, one function each (``ndim`` 2)."""
    if level < tag.measure.level:
        raise ValidationError("function level below the measure's base level")
    v = np.array(values, dtype=float)
    if v.ndim != ndim or not _is_power_length(v.shape[-1], level):
        raise ValidationError("values must have 2**level entries")
    if not np.isfinite(v).all():
        raise ValidationError("values must be finite")
    v.setflags(write=False)
    return v


def _step_norm(w: np.ndarray, a: np.ndarray, p: float) -> float:
    """(sum w * a**p)**(1/p) for cell weights ``w`` and cell values ``a`` >= 0:
    the norm of a step function and of a block row."""
    if p == 1.0:
        return float(np.dot(w, a))
    with np.errstate(over="ignore"):
        return _power_step_norm(w, a, p)


def _power_step_norm(w: np.ndarray, a: np.ndarray, p: float) -> float:
    """``_step_norm`` for p != 1, under the caller's ``np.errstate(over="ignore")``."""
    s = np.dot(w, a ** p)
    if not MIN_NORMAL <= s < math.inf:
        # the sum is subnormal, zero or overflowed: sum the powers of |v| / max|v|
        big = a.max()
        if big == 0.0:
            return 0.0
        return float(big * np.dot(w, (a / big) ** p) ** (1.0 / p))
    return float(s ** (1.0 / p))


def constant_one(tag: SpaceTag) -> StepFunction:
    if tag.kind != "lp_step":
        raise ValidationError("StepFunction requires an lp_step tag")
    level = tag.measure.level
    return StepFunction._trusted(tag, level, np.ones(2 ** level))


def indicator(tag: SpaceTag, level: int, cell: int) -> StepFunction:
    """Characteristic function of the dyadic cell [cell/2**level, (cell+1)/2**level)."""
    v = np.zeros(2 ** level)
    v[cell] = 1.0
    return StepFunction(tag, level, v)


# ---------------------------------------------------------------------------
# the l1 (+)_inf linf direct sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DirectSumVector(_ElementOps):
    """Pair (l1-part, linf-part) with norm max(||left||_1, ||right||_inf)."""

    left: LatticeVector
    right: LatticeVector

    def __post_init__(self):
        if self.left.tag is not _L1 and self.left.tag != _L1:
            raise ValidationError("left part must carry the l1 tag")
        if self.right.tag is not _LINF and self.right.tag != _LINF:
            raise ValidationError("right part must carry the linf tag")

    @property
    def tag(self) -> SpaceTag:
        return _DIRECT_SUM

    def _zip(self, other, method):
        if not isinstance(other, DirectSumVector):
            raise TagMismatch("direct-sum vectors only combine with each other")
        return DirectSumVector(
            method(self.left)(other.left), method(self.right)(other.right)
        )

    def __add__(self, other):
        return self._zip(other, lambda part: part.__add__)

    def __sub__(self, other):
        return self._zip(other, lambda part: part.__sub__)

    def scale(self, a: float):
        return DirectSumVector(self.left.scale(a), self.right.scale(a))

    def meet(self, other):
        return self._zip(other, lambda part: part.meet)

    def join(self, other):
        return self._zip(other, lambda part: part.join)

    def abs(self):
        return DirectSumVector(self.left.abs(), self.right.abs())

    def pos(self):
        return DirectSumVector(self.left.pos(), self.right.pos())

    def neg(self):
        return DirectSumVector(self.left.neg(), self.right.neg())

    def leq(self, other, slack: float = 0.0) -> bool:
        return self.left.leq(other.left, slack) and self.right.leq(other.right, slack)

    def is_positive(self, slack: float = 0.0) -> bool:
        return self.left.is_positive(slack) and self.right.is_positive(slack)

    def is_zero(self) -> bool:
        return self.left.is_zero() and self.right.is_zero()

    def norm(self) -> float:
        return max(self.left.norm(), self.right.norm())

    def _abs_meet_norm(self, other: "DirectSumVector") -> float:
        return max(self.left._abs_meet_norm(other.left),
                   self.right._abs_meet_norm(other.right))

    def _riesz(self, u: "DirectSumVector", v: "DirectSumVector"):
        """As ``LatticeVector._riesz``, part by part: the defect is the max of
        the parts' defects (the direct-sum norm), part d's least value the
        min of theirs."""
        dl, ml, left = self.left._riesz(u.left, v.left)
        dr, mr, right = self.right._riesz(u.right, v.right)
        return max(dl, dr), min(ml, mr), tuple(map(DirectSumVector, left, right))


#: The tags of the direct sum and of its parts, shared so that check_tags
#: compares them by identity.
_L1, _LINF, _DIRECT_SUM = lp(1), linf(), direct_sum()

Element = Union[LatticeVector, StepFunction, DirectSumVector]


# ---------------------------------------------------------------------------
# shared element operations
# ---------------------------------------------------------------------------

def zero(tag: SpaceTag) -> Element:
    if tag.is_sequence_kind:
        return LatticeVector(tag, {})
    if tag.kind == "lp_step":
        return StepFunction(tag, tag.measure.level, np.zeros(2 ** tag.measure.level))
    return DirectSumVector(zero(_L1), zero(_LINF))


def quasi_interior_point(tag: SpaceTag, horizon: int = DEFAULT_HORIZON) -> Element:
    """A canonical quasi-interior point of the tagged model.

    c0 and lp get the summable ``geometric_point`` (2**-n); linf gets its
    strong unit 1 on the horizon; the step models get the constant-one
    function.
    """
    if tag.kind == "lp_step":
        return constant_one(tag)
    if tag.kind == "linf":
        return ones(tag, horizon)
    if tag.is_sequence_kind:
        return geometric_point(tag, horizon)
    raise ValidationError(f"no canonical quasi-interior point for {tag.describe()}")


def geometric_point(tag: SpaceTag, horizon: int = DEFAULT_HORIZON) -> LatticeVector:
    """The summable sequence (2**-n) in a sequence space, truncated at
    ``horizon`` and stored only where 2**-n is not 0.0 (n <= 1074)."""
    return LatticeVector._trusted(
        tag, {n: 2.0 ** -n for n in range(1, min(horizon, 1074) + 1)})


def truncate(u: Element, e: Element, m: int) -> Element:
    """u /\\ (m*e), the truncation used to reduce un-tests to a single vector."""
    if m < 1:
        raise ValidationError("truncation multiple must be a positive integer")
    if not u.is_positive() or not e.is_positive():
        raise NegativeInput("truncate expects positive u and e")
    return u.meet(e.scale(float(m)))


def is_disjoint(x: Element, y: Element, tol: float = 0.0) -> bool:
    """Whether || |x| /\\ |y| || vanishes up to ``tol`` relative slack."""
    if tol < 0:
        raise ValidationError("tol must be >= 0")
    check_tags(x.tag, y.tag)
    m = x._abs_meet_norm(y)
    return m <= tol * (1.0 + x.norm() + y.norm())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def tag_to_dict(tag: SpaceTag) -> dict:
    d: dict = {"kind": tag.kind}
    if tag.p is not None:
        d["p"] = tag.p
    if tag.measure is not None:
        d["measure"] = {"level": tag.measure.level, "weights": list(tag.measure.weights)}
    return d


def tag_from_dict(d: Mapping) -> SpaceTag:
    m = d.get("measure")
    # float(p) and + 0.0 (-0.0 becomes 0.0) give equal literals identical tags
    measure = (None if m is None
               else MeasureModel(_level(m["level"]), tuple(float(w) + 0.0 for w in m["weights"])))
    p = d.get("p")
    return SpaceTag(d.get("kind"), p=float(p) if isinstance(p, numbers.Real) else p,
                    measure=measure)


def _level(v) -> int:
    """The level a literal gives: an integer, or a float of integral value."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    try:
        return operator.index(v)
    except TypeError:
        raise ValidationError(f"a level must be an integer, not {v!r:.40}") from None


def element_to_dict(x: Element) -> dict:
    if isinstance(x, LatticeVector):
        return {"tag": tag_to_dict(x.tag),
                "coords": {str(i): x.coords[i] for i in sorted(x.coords)}}
    if isinstance(x, StepFunction):
        return {"tag": tag_to_dict(x.tag), "level": x.level,
                "values": [float(v) for v in x.values],
                "weights": [float(w) for w in x.weights()]}
    if isinstance(x, DirectSumVector):
        return {"tag": {"kind": "l1_oplus_linf"},
                "left": element_to_dict(x.left), "right": element_to_dict(x.right)}
    raise ValidationError(f"cannot serialize {type(x).__name__}")


def element_from_dict(d: Mapping) -> Element:
    """The element a literal describes; ``ValidationError`` if it does not parse."""
    return _element_from_dict(d, tag_from_dict)


def elements_from_dicts(ds: Sequence[Mapping]) -> list[Element]:
    """The elements a list of literals describes; equal tag literals give one
    shared ``SpaceTag``, so their elements combine without comparing measures."""
    tags: dict[tuple, SpaceTag] = {}

    def tag_of(literal: Mapping) -> SpaceTag:
        # the raw fields tag_from_dict reads: on JSON values, fields equal by ==
        # (1 == 1.0, -0.0 == 0.0) give equal tags; a literal whose key cannot be
        # built or hashed goes to tag_from_dict, which gives any refusal
        try:
            m = literal.get("measure")
            key = (literal.get("kind"), literal.get("p"),
                   None if m is None else (m["level"], tuple(m["weights"])))
            tag = tags.get(key)
        except Exception:
            return tag_from_dict(literal)
        if tag is None:
            tag = tags[key] = tag_from_dict(literal)
        return tag

    steps = _step_elements(ds, tag_of)
    if steps is not None:
        return steps
    return [_element_from_dict(d, tag_of) for d in ds]


def _step_elements(ds: Sequence[Mapping], tag_of) -> list[StepFunction] | None:
    """The elements of a list of step literals, checked one (tag, level) group
    at a time: one array and one run of the checks per group, each element a
    row of it.  None when a literal is not a step literal (a list of other
    literals is told at its first) or a group fails a check, so that the
    per-element path gives the first refusal in list order."""
    groups: dict[tuple, tuple] = {}  # (id(tag), level) -> (tag, level, positions, rows)
    try:
        for i, d in enumerate(ds):
            tag = tag_of(d["tag"])
            if tag.kind != "lp_step":
                return None
            level = _level(d["level"])
            group = groups.get((id(tag), level))
            if group is None:
                group = groups[id(tag), level] = (tag, level, [], [])
            group[2].append(i)
            group[3].append(d["values"])
        out: list = [None] * len(ds)
        for tag, level, positions, rows in groups.values():
            block = _step_values(tag, level, rows, ndim=2)
            for i, row in zip(positions, block):
                out[i] = StepFunction._trusted(tag, level, row)
    except Exception:  # the per-element path names the refusal
        return None
    return out


def _element_from_dict(d: Mapping, tag_of) -> Element:
    try:
        tag = tag_of(d["tag"])
        if tag.is_sequence_kind:
            return LatticeVector(tag, d["coords"])
        if tag.kind == "lp_step":
            return StepFunction(tag, _level(d["level"]), d["values"])
        return DirectSumVector(_element_from_dict(d["left"], tag_of),
                               _element_from_dict(d["right"], tag_of))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"malformed element literal: {type(exc).__name__}: {exc}") from None
