"""Foundational value types: fuzzy points in the plane and fuzzy numbers
represented by their alpha-cut interval families.

A fuzzy point is a location with a circular or elliptical spread and a
linearly decaying membership cone: grade 1 exactly at the core, 0 on and
outside the support ellipse.  Every alpha-cut is the concentric ellipse
scaled by (1 - alpha), so cuts are convex, compact and nested.

A fuzzy number is stored as a function alpha -> [lo(alpha), hi(alpha)]
rather than as a triangular triple, because the cut endpoints produced by
the distance constructions are square roots of quadratics and hence not
linear in alpha.  The triangular triple (lo(0), core, hi(0)) is kept as a
summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

DEFAULT_ALPHA_LEVELS = 101


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Point2:
    """A crisp point in the plane."""

    x: float
    y: float

    def __post_init__(self):
        x, y = self.x, self.y
        # finite Python floats are stored as given
        if not (type(x) is float and type(y) is float and math.isfinite(x)
                and math.isfinite(y)):
            object.__setattr__(self, "x", _require_finite("x", x))
            object.__setattr__(self, "y", _require_finite("y", y))

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Spread:
    """Support radii of a fuzzy point; circular means p1 == p2."""

    kind: str
    p1: float
    p2: float

    def __post_init__(self):
        if self.kind not in ("circular", "elliptical"):
            raise ValueError(f"unknown spread kind {self.kind!r}")
        p1 = _require_finite("p1", self.p1)
        p2 = _require_finite("p2", self.p2)
        if p1 <= 0 or p2 <= 0:
            raise ValueError(f"spread radii must be positive, got ({p1}, {p2})")
        if self.kind == "circular" and p1 != p2:
            raise ValueError(f"circular spread requires equal radii, got ({p1}, {p2})")
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @classmethod
    def circular(cls, r: float) -> "Spread":
        return cls("circular", r, r)

    @classmethod
    def elliptical(cls, p1: float, p2: float) -> "Spread":
        return cls("elliptical", p1, p2)

    @property
    def is_circular(self) -> bool:
        return self.kind == "circular"


@dataclass(frozen=True)
class AlphaBoundaryPair:
    """Under/over boundary points of an alpha-cut along a direction."""

    under: Point2
    over: Point2


@dataclass(frozen=True)
class FuzzyPoint:
    """A fuzzy location: core point plus spread with linear membership decay.

    membership(x, y) = max(0, 1 - sqrt(((x-a1)/p1)^2 + ((y-a2)/p2)^2))
    """

    core: Point2
    spread: Spread

    @classmethod
    def circular(cls, x: float, y: float, r: float) -> "FuzzyPoint":
        return cls(Point2(x, y), Spread.circular(r))

    @classmethod
    def elliptical(cls, x: float, y: float, p1: float, p2: float) -> "FuzzyPoint":
        return cls(Point2(x, y), Spread.elliptical(p1, p2))

    @property
    def is_circular(self) -> bool:
        return self.spread.is_circular

    @property
    def radius(self) -> float:
        if not self.is_circular:
            raise ValueError("radius is only defined for circular spreads")
        return self.spread.p1

    def membership(self, q: Point2) -> float:
        rho = math.hypot(
            (q.x - self.core.x) / self.spread.p1,
            (q.y - self.core.y) / self.spread.p2,
        )
        return max(0.0, 1.0 - rho)

    def cut_boundary(self, alpha: float, theta: float) -> AlphaBoundaryPair:
        """Boundary points of the alpha-cut ellipse at parametric angle theta."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        u = 1.0 - alpha
        dx = self.spread.p1 * u * math.cos(theta)
        dy = self.spread.p2 * u * math.sin(theta)
        a1, a2 = self.core.x, self.core.y
        return AlphaBoundaryPair(
            under=Point2(a1 - dx, a2 - dy),
            over=Point2(a1 + dx, a2 + dy),
        )

    def cut_radii(self, alpha: float) -> tuple[float, float]:
        u = 1.0 - alpha
        return (self.spread.p1 * u, self.spread.p2 * u)


@dataclass(frozen=True)
class TriangularTriple:
    """Triangular summary (l, m, u) of a fuzzy number, l <= m <= u."""

    l: float
    m: float
    u: float

    def __post_init__(self):
        for name in ("l", "m", "u"):
            _require_finite(name, getattr(self, name))
        if not (self.l <= self.m <= self.u):
            raise ValueError(f"triple must be ordered l <= m <= u, got {self}")

    def __add__(self, other: "TriangularTriple") -> "TriangularTriple":
        return TriangularTriple(self.l + other.l, self.m + other.m, self.u + other.u)

    def __le__(self, other: "TriangularTriple") -> bool:
        # componentwise fuzzy order; a partial order, not total
        return self.l <= other.l and self.m <= other.m and self.u <= other.u

    def almost_equals(self, other: "TriangularTriple", tol: float = 1e-9) -> bool:
        return (
            abs(self.l - other.l) <= tol
            and abs(self.m - other.m) <= tol
            and abs(self.u - other.u) <= tol
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l, self.m, self.u)


def tri_add(a: TriangularTriple, b: TriangularTriple) -> TriangularTriple:
    return a + b


def fuzzy_leq(a: TriangularTriple, b: TriangularTriple) -> bool:
    return a <= b


class FuzzyNumber:
    """Fuzzy number given by its alpha-cut interval function.

    The cut function must return nested intervals: cut(a2) inside cut(a1)
    whenever a1 <= a2, with cut(1) collapsing to the core value.
    """

    def __init__(self, cut_fn: Callable[[float], tuple[float, float]],
                 levels: int = DEFAULT_ALPHA_LEVELS):
        self._cut_fn = cut_fn
        self.levels = levels
        self._summary: Optional[TriangularTriple] = None

    @classmethod
    def from_triple(cls, l: float, m: float, u: float) -> "FuzzyNumber":
        tri = TriangularTriple(l, m, u)

        def cut(alpha: float) -> tuple[float, float]:
            return (tri.l + alpha * (tri.m - tri.l), tri.u - alpha * (tri.u - tri.m))

        num = cls(cut)
        num._summary = tri
        return num

    def cut(self, alpha: float) -> tuple[float, float]:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        lo, hi = self._cut_fn(alpha)
        return (float(lo), float(hi))

    @property
    def summary(self) -> TriangularTriple:
        if self._summary is None:
            lo0, hi0 = self.cut(0.0)
            lo1, hi1 = self.cut(1.0)
            self._summary = TriangularTriple(lo0, 0.5 * (lo1 + hi1), hi0)
        return self._summary

    def cuts(self, levels: Optional[int] = None) -> np.ndarray:
        """Table of (alpha, lo, hi) rows over a uniform alpha grid."""
        n = levels or self.levels
        alphas = np.linspace(0.0, 1.0, n)
        rows = np.empty((n, 3))
        for i, a in enumerate(alphas):
            lo, hi = self.cut(float(a))
            rows[i] = (a, lo, hi)
        return rows

    def membership(self, x: float, tol: float = 1e-10) -> float:
        """Grade of x: sup of the alpha levels whose cut contains x.

        Uses bisection on the endpoint branches, which assumes lo is
        non-decreasing and hi non-increasing in alpha (true for every
        construction in this package).  from_triple and other generic
        numbers use it; the fuzzy distance, closeness and Hausdorff
        numbers invert their cuts in closed form instead.
        """
        lo0, hi0 = self.cut(0.0)
        if x < lo0 or x > hi0:
            return 0.0
        lo1, hi1 = self.cut(1.0)
        if lo1 <= x <= hi1:
            return 1.0

        if x < lo1:
            def inside(alpha: float) -> bool:
                return self.cut(alpha)[0] <= x
        else:
            def inside(alpha: float) -> bool:
                return self.cut(alpha)[1] >= x

        a_in, a_out = 0.0, 1.0
        while a_out - a_in > tol:
            mid = 0.5 * (a_in + a_out)
            if inside(mid):
                a_in = mid
            else:
                a_out = mid
        return a_in
