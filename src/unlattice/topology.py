"""The un-topology: neighborhood base V_{u,eps} and its axioms.

A base neighborhood of zero is V_{u,eps} = { x : || |x| /\\ u || < eps } for a
nonzero positive u and eps > 0.  Membership uses a strict comparison with no
floating-point slack, so the separation identity || |x| /\\ |x| || = ||x||
excludes x from V_{|x|, ||x||} deterministically.
"""

from __future__ import annotations

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
    return x._abs_meet_norm(V.u)


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


def _sample_element(tag: SpaceTag, rng: np.random.Generator,
                    positive: bool = False, max_index: int = 64) -> Element:
    if tag.kind == "lp_step":
        level = max(tag.measure.level, int(rng.integers(1, 7)))
        vals = rng.uniform(-1.0, 1.0, size=2 ** level)
        if positive:
            vals = np.abs(vals)
        return StepFunction._trusted(tag, level, vals)  # fresh, finite, 2**level cells
    if tag.is_sequence_kind:
        size = int(rng.integers(1, 9))
        support = rng.choice(max_index, size=size, replace=False) + 1
        vals = rng.uniform(-1.0, 1.0, size=size)
        if positive:
            vals = np.abs(vals)
        # finite draws at distinct indices >= 1; an exact zero is not stored
        coords = {i: v for i, v in zip(support.tolist(), vals.tolist()) if v}
        return LatticeVector._trusted(
            tag, coords, positive or not coords or min(coords.values()) > 0.0)
    raise ValidationError(f"axiom suite does not sample {tag.describe()}")


def _sample_nonzero(tag, rng, positive=False) -> Element:
    for _ in range(64):
        x = _sample_element(tag, rng, positive=positive)
        if not x.is_zero():
            return x
    raise ValidationError("sampler failed to produce a nonzero element")


def _sample_eps(rng) -> float:
    return float(10.0 ** rng.uniform(-4.0, 0.0))


def _sample_member(V: Neighborhood, rng) -> Element:
    """A random element of V: draw and, if needed, shrink into the ball."""
    x = _sample_element(V.tag, rng)
    if contains(V, x):
        return x
    n = x.norm()
    if n == 0.0:
        return x
    # || |cx| /\ u || <= ||cx||, so scaling under eps/||x|| forces membership
    return x.scale(0.9 * V.eps * float(rng.uniform(0.1, 1.0)) / n)


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
    rng = np.random.default_rng(rng_seed)
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
        return contains(V, origin), {"eps": V.eps}

    def t_intersection():
        V1, V2 = fresh_v(), fresh_v()
        W = base_intersection(V1, V2)
        x = _sample_member(W, rng)
        ok = contains(V1, x) and contains(V2, x)
        return ok, (None if ok else {"x": _describe(x)})

    def t_addition():
        V = fresh_v()
        x1 = _sample_member(V, rng)
        x2 = _sample_member(V, rng)
        W = Neighborhood._trusted(V.u, 2.0 * V.eps)  # V's u, and 2 eps > eps > 0
        ok = contains(W, x1 + x2)
        return ok, (None if ok else {"x1": _describe(x1), "x2": _describe(x2)})

    def t_scaling():
        V = fresh_v()
        x = _sample_member(V, rng)
        lam = float(rng.uniform(-1.0, 1.0))
        ok = contains(V, x.scale(lam))
        return ok, (None if ok else {"lambda": lam, "x": _describe(x)})

    def t_separation():
        x = _sample_nonzero(tag, rng)
        V = Neighborhood(x.abs(), x.norm())
        ok = not contains(V, x)
        return ok, (None if ok else {"x": _describe(x)})

    run("zero-membership", t_zero)
    run("base-intersection", t_intersection)
    run("additive-halving", t_addition)
    run("scalar-absorption", t_scaling)
    run("hausdorff-separation", t_separation)
    return report


def tag_from_name(name: str) -> SpaceTag:
    """Space tags addressable from the command line."""
    name = name.lower()
    if name in ("c0", "linf"):
        return SpaceTag(name)
    try:
        if name.startswith("l") and "step" in name:
            # e.g. "l1-step", "l2-step"
            return lp_step(float(name[1:].split("-")[0]), MeasureModel.lebesgue(0))
        if name.startswith("l"):
            return SpaceTag("lp", p=float(name[1:]))
    except ValueError:
        pass
    raise ValidationError(f"unknown space name {name!r}")
