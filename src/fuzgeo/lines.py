"""Lines in the plane, the rigid map to line coordinates, and projection
of fuzzy points onto a line through their core, which gives a
ProjectedFuzzyNumber: a triangular fuzzy number in line coordinates that
keeps its line.

The s-coordinate along a line is anchored at the line's axis intercept
(the y-intercept when the line is closer to horizontal, the x-intercept
otherwise) with positive direction (cos(theta), sin(theta)) for the
elevation angle theta in [0, pi).  Distances along the line do not depend
on the anchor; the anchor only fixes the absolute coordinates that the
Hausdorff construction reports for its projected fuzzy numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import FuzzyPoint, Point2, TriangularNumber


@dataclass(frozen=True)
class LineSpec:
    """Line a*x + b*y = c with (a, b) != (0, 0).

    Coefficients are normalized to unit normal with a canonical sign, so
    equal lines compare equal regardless of the input scaling.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        norm = math.hypot(self.a, self.b)
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("line requires (a, b) != (0, 0)")
        a, b, c = self.a / norm, self.b / norm, self.c / norm
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def through_points(cls, p: Point2, q: Point2) -> "LineSpec":
        if p.x == q.x and p.y == q.y:
            raise ValueError("two distinct points are needed to define a line")
        a = q.y - p.y
        b = p.x - q.x
        return cls(a, b, a * p.x + b * p.y)

    @classmethod
    def through_point_angle(cls, p: Point2, psi: float) -> "LineSpec":
        a = -math.sin(psi)
        b = math.cos(psi)
        return cls(a, b, a * p.x + b * p.y)

    @property
    def theta(self) -> float:
        """Angle of elevation in [0, pi)."""
        return math.atan2(-self.a, self.b) % math.pi

    @property
    def direction(self) -> tuple[float, float]:
        t = self.theta
        return (math.cos(t), math.sin(t))

    @property
    def foot(self) -> Point2:
        """Foot of the perpendicular from the origin (lies on the line)."""
        d = self.a * self.a + self.b * self.b
        return Point2(self.a * self.c / d, self.b * self.c / d)

    @property
    def anchor(self) -> Point2:
        """Origin of the s-coordinate: the better conditioned axis intercept."""
        if abs(self.b) >= abs(self.a):
            return Point2(0.0, self.c / self.b)
        return Point2(self.c / self.a, 0.0)

    def contains(self, p: Point2, tol: float = 1e-9) -> bool:
        """Whether p is on the line, to tol relative to the size of the terms.

        The residual a*x + b*y - c of a point far from the origin carries a
        rounding error proportional to |a*x| + |b*y| + |c|, so the tolerance
        scales with that size where it exceeds 1.
        """
        ax, by = self.a * p.x, self.b * p.y
        return abs(ax + by - self.c) <= tol * max(1.0, abs(ax) + abs(by) + abs(self.c))

    def to_line_coords(self, q: Point2) -> tuple[float, float]:
        """(s, n): coordinate along the line and signed offset from it."""
        cx, sx = self.direction
        ox, oy = self.anchor
        dx, dy = q.x - ox, q.y - oy
        return (dx * cx + dy * sx, -dx * sx + dy * cx)

    def from_line_coords(self, s: float, n: float) -> Point2:
        cx, sx = self.direction
        ox, oy = self.anchor
        return Point2(ox + s * cx - n * sx, oy + s * sx + n * cx)


class ProjectedFuzzyNumber(TriangularNumber):
    """A fuzzy point seen as a triangular fuzzy number along a line through its core.

    The numbers are s-coordinates along line (see to_line_coords).
    """

    def __init__(self, line: LineSpec, l: float, m: float, u: float):
        super().__init__(l, m, u)
        self.line = line


def project_onto_line(p: FuzzyPoint, line: LineSpec) -> ProjectedFuzzyNumber:
    """Project a fuzzy point onto a line passing through its core.

    The half-width at level alpha is (1 - alpha) times the Euclidean norm
    of the boundary offset along the line direction,
    sqrt((p1*cos(psi))^2 + (p2*sin(psi))^2); for circular spreads this is
    the radius for every line angle.
    """
    if not line.contains(p.core):
        raise ValueError("projection line must pass through the fuzzy point core")
    cx, sx = line.direction
    w = math.hypot(p.spread.p1 * cx, p.spread.p2 * sx)
    s0, _ = line.to_line_coords(p.core)
    return ProjectedFuzzyNumber(line, s0 - w, s0, s0 + w)


def classify_pair(a: FuzzyPoint, p1: Point2, b: FuzzyPoint, p2: Point2,
                  tol: float = 1e-9) -> str:
    """Classify two support points as 'same', 'inverse' or 'neither'.

    Same/inverse points carry equal membership grades and parallel
    core-to-point offsets; they lie on the same or on opposite sides of
    the line joining the cores.  For offsets along that line the side test
    is vacuous and the (anti)parallel direction decides.
    """
    for fp, pt in ((a, p1), (b, p2)):
        rho = math.hypot((pt.x - fp.core.x) / fp.spread.p1,
                         (pt.y - fp.core.y) / fp.spread.p2)
        if rho > 1.0 + tol:
            raise ValueError(f"point {pt} lies outside the support of its fuzzy point")

    if abs(a.membership(p1) - b.membership(p2)) > tol:
        return "neither"

    o1 = (p1.x - a.core.x, p1.y - a.core.y)
    o2 = (p2.x - b.core.x, p2.y - b.core.y)
    cross = o1[0] * o2[1] - o1[1] * o2[0]
    scale = math.hypot(*o1) * math.hypot(*o2)
    if scale == 0.0:
        # at least one point sits at its core; grades match, offsets trivial
        return "same"
    if abs(cross) > tol * max(1.0, scale):
        return "neither"
    dot = o1[0] * o2[0] + o1[1] * o2[1]
    return "same" if dot > 0 else "inverse"
