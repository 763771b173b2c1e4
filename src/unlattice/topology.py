"""The un-topology: neighborhood base V_{u,eps} and its axioms.

A base neighborhood of zero is V_{u,eps} = { x : || |x| /\\ u || < eps } for a
nonzero positive u and eps > 0.  Membership uses a strict comparison with no
floating-point slack, so the separation identity || |x| /\\ |x| || = ||x||
excludes x from V_{|x|, ||x||} deterministically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import NoRoom, ValidationError
from .spaces import (
    Element,
    LatticeVector,
    MeasureModel,
    SpaceTag,
    StepFunction,
    check_tags,
    lp_step,
    zero,
)


@dataclass(frozen=True)
class Neighborhood:
    u: Element
    eps: float

    def __post_init__(self):
        if not self.u.is_positive() or self.u.is_zero():
            raise ValidationError("u must be positive and nonzero")
        if not self.eps > 0:
            raise ValidationError("eps must be > 0")

    @classmethod
    def _trusted(cls, u: Element, eps: float) -> "Neighborhood":
        """V_{u,eps} for a u >= 0, u != 0 and an eps > 0 that the caller has
        proven, without the checks."""
        V = object.__new__(cls)
        object.__setattr__(V, "u", u)
        object.__setattr__(V, "eps", eps)
        return V

    @property
    def tag(self) -> SpaceTag:
        return self.u.tag


def gauge(V: Neighborhood, x: Element) -> float:
    """The membership quantity || |x| /\\ u ||."""
    check_tags(V.tag, x.tag)
    with np.errstate(over="ignore", invalid="ignore"):  # a step norm past the float range is inf
        return x._abs_meet_norm(V.u)


def _member(V: Neighborhood, x: Element) -> bool:
    """``contains(V, x)`` for an x of V's tag, under the caller's
    ``np.errstate(over="ignore", invalid="ignore")``: the axiom suite holds it
    once."""
    return x._abs_meet_norm(V.u) < V.eps


def contains(V: Neighborhood, x: Element) -> bool:
    return gauge(V, x) < V.eps


def base_intersection(V1: Neighborhood, V2: Neighborhood) -> Neighborhood:
    """V_{u1 \\/ u2, eps1 /\\ eps2}, contained in both inputs."""
    check_tags(V1.tag, V2.tag)
    # u1 \/ u2 >= u1 >= 0 is nonzero, as u1 is; both eps are > 0
    return Neighborhood._trusted(V1.u.join(V2.u), min(V1.eps, V2.eps))


def translate(V: Neighborhood, y: Element) -> Neighborhood:
    """Shrink eps so that y + V_{u, delta} stays inside V_{u, eps}."""
    g = gauge(V, y)
    if not g < V.eps:
        raise NoRoom("y is not a member of the neighborhood")
    return Neighborhood(V.u, V.eps - g)


# ---------------------------------------------------------------------------
# randomized axiom suite
# ---------------------------------------------------------------------------

@dataclass
class AxiomCheck:
    axiom: str
    samples: int
    failures: int
    first_counterexample: dict | None = None

    def to_json_dict(self) -> dict:
        return {"axiom": self.axiom, "samples": self.samples,
                "failures": self.failures,
                "first_counterexample": self.first_counterexample}


@dataclass
class AxiomSuiteReport:
    tag: str
    seed: int
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return sum(c.failures for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "seed": self.seed,
                "total_failures": self.total_failures,
                "checks": [c.to_json_dict() for c in self.checks]}


#: PCG64 words the axiom suite's draw source reads from its bit generator at once
_BLOCK = 4096

_UINT32 = 0xFFFFFFFF


class _Draws:
    """The draws of ``np.random.default_rng(seed)`` for the calls the axiom
    suite makes, decoded from raw PCG64 words as numpy's C code decodes them,
    at a fraction of the per-call cost of the ``Generator`` API.

    The words come from ``PCG64(seed).random_raw`` in blocks of ``_BLOCK``;
    ``used`` counts those consumed.  A double is ``(w >> 11) * 2**-53``
    (``next_double``), computed for a block at once.  A 32-bit draw is the
    low half of a fresh word, then the high half held back (PCG64's
    ``next_uint32``, whose buffer is ``_half`` and ``_has_half``, the bit
    generator's ``uinteger`` and ``has_uint32``).  A fresh ``PCG64(seed)``
    advanced by ``used`` and given that buffer is the state the ``Generator``
    has after the same calls.  Single draws read memoryviews, which make no
    Python object for a word that an array draw takes."""

    __slots__ = ("_bits", "_raw", "_array", "_words", "_doubles", "_pos", "_pulled", "_half",
                 "_has_half")

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._raw = np.empty(0, np.uint64)
        self._words = memoryview(self._raw)
        self._pos = self._pulled = self._half = 0
        self._has_half = False

    @property
    def used(self) -> int:
        return self._pulled - len(self._words) + self._pos

    def _pull(self, n: int) -> None:
        """Hold at least ``n`` unread words."""
        raw = self._bits.random_raw(max(_BLOCK, n))
        self._pulled += raw.size
        self._raw = np.concatenate((self._raw[self._pos:], raw))
        self._array = (self._raw >> 11) * 2.0 ** -53
        self._words, self._doubles = memoryview(self._raw), memoryview(self._array)
        self._pos = 0

    def random(self, size: int | None = None):
        """``Generator.random()``, a float, or ``Generator.random(size)``."""
        pos = self._pos
        n = 1 if size is None else size
        if pos + n > len(self._words):
            self._pull(n)
            pos = 0
        self._pos = pos + n
        return self._doubles[pos] if size is None else self._array[pos:pos + n].copy()

    def _bounded(self, r: int) -> int:
        """Uniform on 0 .. ``r`` for 1 <= r < 2**32: numpy's
        ``buffered_bounded_lemire_uint32``, Lemire's m = u * (r + 1) of a
        32-bit draw u, kept when its low half is at least (2**32 - 1 - r)
        mod (r + 1), a threshold <= r, so taken only for a low half <= r.
        numpy draws nothing for r = 0, which no caller asks."""
        while True:
            if self._has_half:
                self._has_half = False
                u = self._half
            else:
                if self._pos == len(self._words):
                    self._pull(1)
                w = self._words[self._pos]
                self._pos += 1
                self._half, self._has_half = w >> 32, True
                u = w & _UINT32
            m = u * (r + 1)
            if m & _UINT32 > r or m & _UINT32 >= (_UINT32 - r) % (r + 1):
                return m >> 32

    def integers(self, lo: int, hi: int) -> int:
        """``Generator.integers(lo, hi)`` for 2 <= hi - lo <= 2**32."""
        return lo + self._bounded(hi - lo - 1)

    def choice(self, pop: int, k: int) -> list[int]:
        """``Generator.choice(pop, k, replace=False).tolist()`` for
        1 <= k < pop <= 10000: Floyd's draws for j = pop - k .. pop - 1 (j
        itself where the draw is taken), then the Fisher-Yates pass over
        i = k - 1 .. 1."""
        picked = []
        seen = set()
        for j in range(pop - k, pop):
            v = self._bounded(j)
            if v in seen:
                v = j
            seen.add(v)
            picked.append(v)
        for i in range(k - 1, 0, -1):
            j = self._bounded(i)
            picked[i], picked[j] = picked[j], picked[i]
        return picked


def _sample_element(tag: SpaceTag, rng: _Draws, positive: bool = False,
                    max_index: int = 64) -> Element:
    """One random element of ``tag``: a step function at a random level >= 1
    with values in [-1, 1), or up to 8 such coordinates at distinct indices
    in 1 .. ``max_index``; their moduli if ``positive``.

    A draw U(lo, hi) is written ``lo + (hi - lo) * rng.random(...)``: that is
    the affine map ``Generator.uniform`` applies to the same ``next_double``,
    so the values are bit-identical to ``uniform``'s.  The suite's stream is
    ``default_rng(seed)``'s, call for call: a draw made in another order,
    size or number re-seeds it."""
    if tag.kind == "lp_step":
        level = max(tag.measure.level, rng.integers(1, 7))
        vals = rng.random(2 ** level)
        vals *= 2.0
        vals -= 1.0  # 2.0 * r - 1.0 is -1.0 + 2.0 * r exactly
        if positive:
            np.abs(vals, out=vals)
        return StepFunction._trusted(tag, level, vals)  # fresh, finite, 2**level cells
    if tag.is_sequence_kind:
        size = rng.integers(1, 9)
        support = rng.choice(max_index, size)
        vals = [-1.0 + 2.0 * r for r in rng.random(size).tolist()]
        if positive:
            vals = [math.fabs(v) for v in vals]
        # finite draws at distinct indices >= 1; an exact zero is not stored
        coords = {i + 1: v for i, v in zip(support, vals) if v}
        return LatticeVector._trusted(
            tag, coords, positive or not coords or min(coords.values()) > 0.0)
    raise ValidationError(f"axiom suite does not sample {tag.describe()}")


def _sample_nonzero(tag: SpaceTag, rng: _Draws, positive: bool = False) -> Element:
    for _ in range(64):
        x = _sample_element(tag, rng, positive=positive)
        if not x.is_zero():
            return x
    raise ValidationError("sampler failed to produce a nonzero element")


def _sample_eps(rng: _Draws) -> float:
    return 10.0 ** (-4.0 + 4.0 * rng.random())  # 10**U(-4, 0)


def _sample_member(V: Neighborhood, rng: _Draws) -> Element:
    """A random element of V: draw and, if needed, shrink into the ball.
    The caller holds ``np.errstate(over="ignore", invalid="ignore")``.

    A drawn x outside V has ||x|| >= || |x| /\\ u || >= eps > 0, so the
    rescale never divides by zero: the suite's eps are >= 1e-4."""
    x = _sample_element(V.tag, rng)
    if _member(V, x):
        return x
    # || |cx| /\ u || <= ||cx||, so scaling under eps/||x|| forces membership
    return x.scale(0.9 * V.eps * (0.1 + (1.0 - 0.1) * rng.random()) / x._norm())


def _describe(x: Element) -> str:
    if isinstance(x, LatticeVector):
        return str({i: round(v, 6) for i, v in sorted(x.coords.items())})
    return f"step(level={x.level})"


def axiom_suite(tag: SpaceTag, samples: int = 10_000, rng_seed: int = 0) -> AxiomSuiteReport:
    """Randomized verification of the five neighborhood-base axioms."""
    if samples < 1:  # no samples would pass every axiom vacuously
        raise ValidationError(f"samples must be >= 1, not {samples}")
    if rng_seed < 0:
        raise ValidationError(f"the seed must be >= 0, not {rng_seed}")
    rng = _Draws(rng_seed)
    report = AxiomSuiteReport(tag.describe(), rng_seed)
    origin = zero(tag)

    def run(axiom: str, trial) -> None:
        failures = 0
        first = None
        for _ in range(samples):
            ok, info = trial()
            if not ok:
                failures += 1
                if first is None:
                    first = info
        report.checks.append(AxiomCheck(axiom, samples, failures, first))

    def fresh_v() -> Neighborhood:
        # _sample_nonzero(positive=True) draws moduli, so u >= 0, and only a
        # nonzero u; eps = 10**U(-4, 0) >= 1e-4
        return Neighborhood._trusted(_sample_nonzero(tag, rng, positive=True), _sample_eps(rng))

    def t_zero():
        V = fresh_v()
        return _member(V, origin), {"eps": V.eps}

    def t_intersection():
        V1, V2 = fresh_v(), fresh_v()
        W = base_intersection(V1, V2)
        x = _sample_member(W, rng)
        ok = _member(V1, x) and _member(V2, x)
        return ok, (None if ok else {"x": _describe(x)})

    def t_addition():
        V = fresh_v()
        x1 = _sample_member(V, rng)
        x2 = _sample_member(V, rng)
        W = Neighborhood._trusted(V.u, 2.0 * V.eps)  # V's u, and 2 eps > eps > 0
        ok = _member(W, x1 + x2)
        return ok, (None if ok else {"x1": _describe(x1), "x2": _describe(x2)})

    def t_scaling():
        V = fresh_v()
        x = _sample_member(V, rng)
        lam = -1.0 + 2.0 * rng.random()  # U(-1, 1)
        ok = _member(V, x.scale(lam))
        return ok, (None if ok else {"lambda": lam, "x": _describe(x)})

    def t_separation():
        x = _sample_nonzero(tag, rng)
        V = Neighborhood(x.abs(), x._norm())
        ok = not _member(V, x)
        return ok, (None if ok else {"x": _describe(x)})

    with np.errstate(over="ignore", invalid="ignore"):  # once for the suite's step norms
        run("zero-membership", t_zero)
        run("base-intersection", t_intersection)
        run("additive-halving", t_addition)
        run("scalar-absorption", t_scaling)
        run("hausdorff-separation", t_separation)
    return report


#: the names of lp and lp-step tags: "l", a decimal p, and "-step" for a step model
_LP_NAME = re.compile(r"l(\d+\.?\d*|\.\d+)(-step)?")


def tag_from_name(name: str) -> SpaceTag:
    """Space tags addressable from the command line: c0, linf, l<p> and
    l<p>-step (a step model on [0, 1] with Lebesgue measure)."""
    name = name.lower()
    if name in ("c0", "linf"):
        return SpaceTag(name)
    match = _LP_NAME.fullmatch(name)
    if match is None:
        raise ValidationError(f"unknown space name {name!r}")
    p = float(match[1])
    return lp_step(p, MeasureModel.lebesgue(0)) if match[2] else SpaceTag("lp", p=p)
