"""Lines in the plane, the s-coordinate along a line, and projection of
fuzzy points onto a line through their core, which gives a
ProjectedFuzzyNumber: a triangular fuzzy number in s-coordinates that
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
from .core import FuzzyPoint, Point2, TriangularNumber, Value, _set, _triple


class LineSpec(Value):
    """Line a*x + b*y = c with (a, b) != (0, 0).

    Coefficients are normalized to unit normal with a canonical sign, so
    equal lines compare equal regardless of the input scaling.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        a, b, c = _unit_normal(a, b, c)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    @classmethod
    def through_points(cls, p: Point2, q: Point2) -> "LineSpec":
        if p.x == q.x and p.y == q.y:
            raise ValueError("two distinct points are needed to define a line")
        return cls._of(*_line_through(p, q))

    def contains(self, p: Point2, tol: float = 1e-9) -> bool:
        """Whether p is on the line, to tol relative to the size of the terms.

        The residual a*x + b*y - c of a point far from the origin carries a
        rounding error proportional to |a*x| + |b*y| + |c|, so the tolerance
        scales with that size where it exceeds 1.
        """
        return _on_line(self.a, self.b, self.c, p.x, p.y, tol)


# LineSpec's arithmetic on floats, shared with the Hausdorff rows

def _unit_normal(a, b, c):
    norm = math.hypot(a, b)
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("line requires (a, b) != (0, 0)")
    a, b, c = a / norm, b / norm, c / norm
    if a < 0 or (a == 0 and b < 0):
        return -a, -b, -c
    return a, b, c


def _line_through(p, q):
    # c from the unit normal: from the unnormalised one it overflows from 2^511 up
    a, b, _ = _unit_normal(q.y - p.y, p.x - q.x, 0.0)
    return a, b, a * p.x + b * p.y


def _frame(a, b, c):
    """(a, b, c, theta, cos(theta), sin(theta), x0, y0) of a unit-normal line,
    where (x0, y0) is the anchor."""
    theta = math.atan2(-a, b) % math.pi
    anchor = (0.0, c / b) if abs(b) >= abs(a) else (c / a, 0.0)
    return (a, b, c, theta, math.cos(theta), math.sin(theta), *anchor)


def _on_line(a, b, c, x, y, tol=1e-9):
    ax, by = a * x, b * y
    return abs(ax + by - c) <= tol * max(1.0, abs(ax) + abs(by) + abs(c))


def _project(p, frame):
    """The (l, m, u) of project_onto_line onto the line of a _frame."""
    a, b, c, _, cx, sx, ox, oy = frame
    x, y = p.core.x, p.core.y
    if not _on_line(a, b, c, x, y):
        raise ValueError("projection line must pass through the fuzzy point core")
    if not (math.isfinite(ox) and math.isfinite(oy)):
        Point2(ox, oy)  # raises the anchor's error
    w = math.hypot(p.spread.p1 * cx, p.spread.p2 * sx)
    s0 = (x - ox) * cx + (y - oy) * sx
    return _triple(s0 - w, s0, s0 + w)


class ProjectedFuzzyNumber(TriangularNumber):
    """A fuzzy point seen as a triangular fuzzy number along a line through its core.

    The numbers are s-coordinates along line, as the module docstring defines them.
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
    return ProjectedFuzzyNumber(line, *_project(p, _frame(line.a, line.b, line.c)))
